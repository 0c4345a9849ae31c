"""The public surface: what each layer module exports resolves, the names
the benchmark's per-layer metrics trace stay exported, the reports are plain
records, README lists the measures and modules there are, and the library
runs on numpy alone, as pyproject.toml declares.

perfbench/spans.py wraps every function named in a layer module's __all__,
so a stale entry there breaks the traced benchmark run.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
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
ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


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


# Exported names that no module of the library, the scripts or the benchmark
# reads, each with the reason it stays.
UNREAD_EXPORTS = {
    "total_correlation": "a test reference for the genuine quantifiers",
    "amplitude_damping_kraus": "a test reference for the dilation",
    "phase_damping_kraus": "a test reference for the dilation",
    "KrausChannel": "the operator-sum oracle the two Kraus constructors return",
    "save_state": "the writer of the files that state-info reads",
    "state_to_json": "save_state's encoder",
    "genuine_quantum_Qn": "a future sweep column (ROADMAP item 1a)",
    "genuine_quantum_Qk": "a future sweep column (ROADMAP item 1a)",
}


def _name_loads() -> list[tuple[pathlib.Path, str | None, str]]:
    """(file, enclosing top-level definition or None, name) of every name or
    attribute the sources of the library, the scripts and the benchmark
    read.  Imports, __all__ strings and docstrings are no reads."""
    paths = [*(ROOT / "src" / "gencorr").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    loads = []
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    name = getattr(node, "id", None) or getattr(node, "attr", None)
                    if name:
                        loads.append((path, owner, name))
    return loads


def test_every_export_has_a_reader():
    """A name in a layer's __all__ is read outside its own definition, and
    outside the definitions of exports that nothing reads (a helper of dead
    code is dead too), or it is on UNREAD_EXPORTS with its reason."""
    home = {name: ROOT / "src" / "gencorr" / f"{layer}.py"
            for layer in LAYERS for name in _layer(layer).__all__}
    loads = _name_loads()
    unread: set[str] = set()
    while True:
        read = {name for path, owner, name in loads
                if not (home.get(owner) == path and (owner == name or owner in unread))}
        if set(home) - read == unread:
            break
        unread = set(home) - read
    assert sorted(unread) == sorted(UNREAD_EXPORTS)


def test_the_pool_the_degrees_and_classical_state_are_gone():
    """gencorr runs in one process, reads no degree off its quantifiers and
    builds a diagonal state as DensityMatrix(dims, np.diag(p))."""
    for name in ("degree_of", "TAU_DEGREE", "classical_state"):
        assert not hasattr(gencorr, name), name
        assert all(not hasattr(_layer(layer), name) for layer in LAYERS), name
    for path in (ROOT / "src" / "gencorr").glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert not {m for m in imported if m.startswith("concurrent")}, path.name


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


def _package_modules() -> list[str]:
    return sorted(p.stem for p in pathlib.Path(gencorr.__file__).parent.glob("*.py")
                  if p.stem != "__init__")


def test_the_tie_rule_is_defined_once():
    """The basis search and every quantifier witness pick the first item
    within _TIE of the optimum, by one helper."""
    assert _layer("genuine_correlations")._optimum is _layer("classical_search")._optimum
    defining = [name for name in _package_modules() if hasattr(_layer(name), "_TIE")]
    assert defining == ["classical_search"]


def _calls_by_function(tree: ast.AST, names) -> set[tuple[str | None, str]]:
    """(the innermost def around it, or None at module level; the callee) of
    each call in tree to a bare name or attribute in names."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", getattr(child.func, "attr", None))
                if callee in names:
                    found.add((owner, callee))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if defines else owner)

    visit(tree, None)
    return found


def test_the_kronecker_product_and_the_spectra_errstate_are_defined_once():
    """kron_all is the only Kronecker product, and the errstate that np.linalg
    enters around an eigenvalue call is written in entropy alone.  Every
    spectrum of a state comes from entropy._entropies: it is the only caller
    of the eigenvalue kernel _eigvalsh and the only code that enters the
    errstate."""
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in pathlib.Path(gencorr.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if re.search(r"\bnp\.kron\(", text)] == []
    settings = re.compile(r'np\.errstate\([^)]*under="ignore"')
    written = {name: len(settings.findall(text)) for name, text in sources.items()}
    assert {name: count for name, count in written.items() if count} == {"entropy": 1}
    callers = {(name, *call) for name, text in sources.items()
               for call in _calls_by_function(ast.parse(text), {"_eigvalsh", "_spectra_errstate"})}
    assert callers == {("entropy", "_entropies", "_eigvalsh"),
                       ("entropy", "_entropies", "_spectra_errstate")}


def test_the_channel_list_is_defined_once():
    """Every reader of the channel names takes them from channels.CHANNELS."""
    assert _layer("channels").CHANNELS == ("ad", "pd")
    sources = list(pathlib.Path(gencorr.__file__).parent.glob("*.py"))
    sources.append(ROOT / "scripts" / "run_figure_sweeps.py")
    spelled = [p.name for p in sources if '("ad", "pd")' in p.read_text(encoding="utf-8")]
    assert spelled == ["channels.py"]


def test_reports_are_plain_records():
    """A report is its value, witness, search cost and chi; witness labels
    belong to whichever writer prints them."""
    gc, experiments = _layer("genuine_correlations"), _layer("experiments")
    fields = [f.name for f in dataclasses.fields(gc.CorrelationReport)]
    assert fields == ["value_bits", "witness", "evals", "chi"]
    assert "name" not in inspect.signature(gc.max_over_subsets).parameters
    for cls in (gc.CorrelationReport, gc.Bipartition, experiments.SuddenChangeReport):
        left = [a for a in ("to_json", "to_json_dict", "witness_label", "label") if hasattr(cls, a)]
        assert left == [], cls.__name__


def test_readme_lists_the_measures_and_the_modules():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (line,) = [ln for ln in text.splitlines() if ln.startswith("Measures:")]
    listed = re.search(r"`([^`]*)`", line).group(1).split()
    assert listed == list(_layer("experiments").SUPPORTED_MEASURES)
    layout = text.split("```\nsrc/gencorr/\n", 1)[1].split("```", 1)[0]
    named = re.findall(r"^  (\w+)\.py\b", layout, re.M)
    assert sorted(named) == _package_modules()


def test_the_library_imports_and_sweeps_without_scipy():
    # pyproject.toml lists numpy as the one dependency; the benchmark, not
    # the library, imports scipy.  A None entry in sys.modules makes every
    # import of scipy (or a submodule) raise ImportError.
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        from gencorr import SweepSpec, run_sweep
        rows = run_sweep(SweepSpec("pd", (1.0,), p_count=3, measures=("I4", "F_GHZ")))
        assert [row["p"] for row in rows] == [0.0, 0.5, 1.0]
        assert not any("_flags" in row for row in rows)
        print(rows[-1]["I4"])
    """)
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert abs(float(run.stdout) - 2.0) <= 1e-9
