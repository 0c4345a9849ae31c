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


def _record_searches(monkeypatch, record):
    """Patch closest_classical_states where the library calls it, so that
    record(partitions) sees the partitions of each call."""
    import gencorr.classical_search as cs
    import gencorr.genuine_correlations as gc

    search = cs.closest_classical_states

    def recording(rhos, partitions, cfg):
        partitions = list(partitions)
        record(partitions)
        return search(rhos, partitions, cfg)

    for module in (cs, gc):
        monkeypatch.setattr(module, "closest_classical_states", recording)


@pytest.fixture
def search_cells(monkeypatch):
    """The cell count of every search the quantifiers and sweeps run, one
    entry per job of each closest_classical_states call."""
    calls = []
    _record_searches(monkeypatch, lambda partitions: calls.extend(map(len, partitions)))
    return calls


@pytest.fixture
def search_batches(monkeypatch):
    """The number of jobs of each closest_classical_states call."""
    calls = []
    _record_searches(monkeypatch, lambda partitions: calls.append(len(partitions)))
    return calls
