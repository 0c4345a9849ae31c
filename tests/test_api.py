"""The public surface: what each layer module exports resolves, and the names
the benchmark's per-layer metrics trace stay exported.

perfbench/spans.py wraps every function named in a layer module's __all__,
so a stale entry there breaks the traced benchmark run.
"""

import importlib
import inspect
import json
import pathlib
import types

import pytest

import gencorr

LAYERS = (
    "channels",
    "linalg",
    "entropy",
    "classical_search",
    "genuine_correlations",
    "states",
    "experiments",
)
BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _layer(name: str) -> types.ModuleType:
    return importlib.import_module(f"gencorr.{name}")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    mod = _layer(layer)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_top_level_name_is_a_layer_export():
    exported = {name for layer in LAYERS for name in _layer(layer).__all__}
    public = [
        name for name, val in vars(gencorr).items()
        if not name.startswith("_") and not isinstance(val, types.ModuleType)
    ]
    assert public
    assert sorted(set(public) - exported) == []


def test_traced_per_layer_functions_stay_exported():
    """Every <module>.<function>.<metric> of BENCHMARK.json's per_layer list."""
    names = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = {(parts[0], parts[1]) for parts in names if len(parts) == 3}
    assert traced
    for layer, fn in sorted(traced):
        assert layer in LAYERS
        assert fn in _layer(layer).__all__, f"{layer}.{fn}"


def test_no_quantifier_takes_symmetries():
    """A state carries its own symmetries (rho.symmetries), so no caller can
    claim one that the state lacks."""
    gc, experiments = _layer("genuine_correlations"), _layer("experiments")
    fns = [getattr(gc, name) for name in gc.__all__] + [experiments.evaluate_measures]
    takers = [fn.__name__ for fn in fns
              if callable(fn) and "symmetries" in inspect.signature(fn).parameters]
    assert takers == []


def test_the_swap_symmetry_is_defined_once():
    assert gencorr.SWAP_SYMMETRY is _layer("channels").SWAP_SYMMETRY
    assert not hasattr(_layer("experiments"), "SWAP_SYMMETRY")
