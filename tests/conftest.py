import numpy as np
import pytest

from gencorr import SearchConfig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def fast_cfg():
    """Reduced optimizer budget for tests where defaults are overkill."""
    return SearchConfig(starts=8, max_evals=800, rng_seed=7)


@pytest.fixture
def search_cells(monkeypatch):
    """The cell count of every search the quantifiers and sweeps run, one
    entry per job of each closest_classical_states call."""
    import gencorr.classical_search as cs
    import gencorr.genuine_correlations as gc

    calls = []
    search = cs.closest_classical_states

    def counting(rhos, partitions, cfg):
        partitions = list(partitions)
        calls.extend(len(cells) for cells in partitions)
        return search(rhos, partitions, cfg)

    for module in (cs, gc):
        monkeypatch.setattr(module, "closest_classical_states", counting)
    return calls
