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
    """The cell count of every closest_classical_state call the quantifiers make."""
    import gencorr.genuine_correlations as gc

    calls = []
    search = gc.closest_classical_state

    def counting(rho, cells, cfg):
        calls.append(len(cells))
        return search(rho, cells, cfg)

    monkeypatch.setattr(gc, "closest_classical_state", counting)
    return calls
