import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    CompositeDims,
    DensityMatrix,
    LocalBasisSet,
    PureState,
    dephase,
    evolve_global,
    ghz,
    kron_all,
    partial_trace,
    permute_subsystems,
    state_from_json,
    state_to_json,
    von_neumann_entropy,
    w4,
)
from gencorr.channels import psi_minus
from gencorr.linalg import random_unitary
from random_states import random_density_matrix, random_pure_state

I2 = np.eye(2, dtype=complex)


# --- Kronecker products ---

@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_all_equals_chained_np_kron_exactly(seed):
    rng = np.random.default_rng(seed)
    shapes = [tuple(rng.integers(1, 5, size=2)) for _ in range(rng.integers(1, 4))]
    mats = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    ref = np.array([[1.0 + 0j]])
    for m in mats:
        ref = np.kron(ref, m)
    assert np.array_equal(kron_all(mats), ref)


def test_kron_all_of_stacks_is_the_product_of_each_slice(rng):
    mats = [rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d)) for d in (2, 4, 2)]
    stacked = kron_all(mats)
    assert stacked.shape == (3, 16, 16)
    for i in range(3):
        assert np.array_equal(stacked[i], kron_all([m[i] for m in mats]))


# --- partial trace ---

def test_singlet_marginals_maximally_mixed():
    rho = psi_minus().to_density()
    for keep in ((0,), (1,)):
        red = partial_trace(rho, keep)
        assert np.allclose(red.mat, I2 / 2, atol=1e-12)


def test_partial_trace_factors_product(rng):
    a = random_density_matrix((2,), rng)
    b = random_density_matrix((3,), rng)
    prod = DensityMatrix((2, 3), np.kron(a.mat, b.mat))
    assert np.allclose(partial_trace(prod, (0,)).mat, a.mat, atol=1e-12)
    assert np.allclose(partial_trace(prod, (1,)).mat, b.mat, atol=1e-12)


def test_partial_trace_rejects_bad_subsets(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace_and_inverts_tensor(seed):
    rng = np.random.default_rng(seed)
    a = random_density_matrix((2, 2), rng)
    b = random_density_matrix((2,), rng)
    prod = DensityMatrix((2, 2, 2), np.kron(a.mat, b.mat))
    red = partial_trace(prod, (0, 1))
    assert np.allclose(red.mat, a.mat, atol=1e-12)
    assert abs(np.trace(red.mat) - 1) < 1e-12
    assert abs(np.trace(partial_trace(prod, (2,)).mat) - 1) < 1e-12


# --- type invariants ---

def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix((2, 2), np.eye(2) / 2)  # dims mismatch
    with pytest.raises(ValueError):
        CompositeDims((1, 2))


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState((2,), np.array([1.0, 1.0]))
    psi = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(np.linalg.norm(psi.vec) - 1) < 1e-12


def test_density_matrix_is_immutable(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.0


# --- derived states skip validation, so each must pass it when rebuilt ---

def assert_valid(state):
    DensityMatrix(state.dims, state.mat)  # raises ValueError on an invalid state


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2), (4, 2)])
@pytest.mark.parametrize("rank", [1, 2, None])
def test_partial_traces_are_valid_states(dims, rank, rng):
    rho = random_density_matrix(dims, rng, rank)
    for k in range(1, len(dims)):
        for keep in itertools.combinations(range(len(dims)), k):
            red = partial_trace(rho, keep)
            assert_valid(red)
            for inner in itertools.combinations(range(k), max(k - 1, 1)):
                assert_valid(partial_trace(red, inner))


@pytest.mark.parametrize("cells", [[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)], [(1,), (0, 2, 3)]])
@pytest.mark.parametrize("rank", [1, 3, None])
def test_dephased_states_are_valid(cells, rank, rng):
    rho = random_density_matrix((2, 2, 2, 2), rng, rank)
    units = [random_unitary(2 ** len(cell), rng) for cell in cells]
    assert_valid(dephase(rho, LocalBasisSet(cells, units)))
    assert_valid(dephase(rho, LocalBasisSet(cells, [np.eye(u.shape[0]) for u in units])))


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_evolved_states_are_valid(kind):
    for c in (0.0, 0.3, 2 / 3, 1.0):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert_valid(evolve_global(c, p, kind))


def test_pure_state_projectors_are_valid(rng):
    for psi in (psi_minus(), ghz(4), w4(), random_pure_state((2, 3, 2), rng)):
        rho = psi.to_density()
        assert_valid(rho)
        assert np.array_equal(rho.mat, np.outer(psi.vec, psi.vec.conj()))


def test_threads_sharing_a_state_get_one_reduction_and_one_entropy(rng):
    rho = random_density_matrix((2, 2, 2, 2), rng)
    keeps = [k for r in (1, 2, 3) for k in itertools.combinations(range(4), r)]
    results = []

    def work():
        reds = [partial_trace(rho, k) for k in keeps]
        results.append((reds, [von_neumann_entropy(red) for red in reds]))

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    reds, entropies = results[0]
    for other_reds, other_entropies in results[1:]:
        assert all(a is b for a, b in zip(other_reds, reds))
        assert other_entropies == entropies


# --- permutation ---

def test_permute_subsystems_swaps_kron_factors(rng):
    a = random_density_matrix((2,), rng).mat
    b = random_density_matrix((3,), rng).mat
    swapped = permute_subsystems(np.kron(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, np.kron(b, a), atol=0)


def test_permute_subsystems_roundtrip(rng):
    rho = random_density_matrix((2, 2, 2), rng).mat
    perm = (2, 0, 1)
    inverse = tuple(np.argsort(perm))
    back = permute_subsystems(permute_subsystems(rho, (2, 2, 2), perm), (2, 2, 2), inverse)
    assert np.array_equal(back, rho)


# --- serialization ---

def test_density_matrix_json_roundtrip_exact(rng):
    rho = random_density_matrix((2, 2), rng)
    back = state_from_json(state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    assert back.dims.dims == rho.dims.dims
    assert np.array_equal(back.mat, rho.mat)


def test_pure_state_json_roundtrip_exact():
    psi = psi_minus()
    back = state_from_json(state_to_json(psi))
    assert isinstance(back, PureState)
    assert back.dims.dims == psi.dims.dims
    assert np.array_equal(back.vec, psi.vec)
