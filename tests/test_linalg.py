import copy
import dataclasses
import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    CorrelationReport,
    DensityMatrix,
    LocalBasisSet,
    PureState,
    SWAP_SYMMETRY,
    SearchConfig,
    amplitude_damping_kraus,
    appendix_golden_state,
    dephase,
    evolve_global,
    genuine_classical_Cn,
    genuine_total_In,
    ghz,
    kron_all,
    partial_trace,
    permute_subsystems,
    state_from_json,
    state_to_json,
    von_neumann_entropy,
    w4,
    werner_state,
)
from gencorr import linalg
from gencorr.channels import KrausChannel, psi_minus
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
    """Byte for byte, as the basis search builds its product bases with
    kron_all from strided per-cell views a[:, j] of its run stacks;
    np.array_equal would take -0.0 for 0.0."""
    run = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
    run[0, 0, 0, 0] = complex(-0.0, -1.0)  # 1 * (-0.0 - 1j) is 0.0 - 1j
    run[1, 0, 1, 0] = complex(-0.0, 0.5)
    run[2, 1, 0, 1] = complex(0.5, -0.0)
    run[:, 1, 1, 1] = complex(-0.0, -0.0)
    mid = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    mid[:, 2] = complex(-0.0, -0.0)
    mats = [run[:, 0], mid, run[:, 1]]
    stacked = kron_all(mats)
    assert stacked.shape == (3, 16, 16)
    for i in range(3):
        ref = np.array([[1.0 + 0j]])
        for m in mats:
            ref = np.kron(ref, m[i])
        assert stacked[i].tobytes() == ref.tobytes()
        assert stacked[i].tobytes() == kron_all([m[i] for m in mats]).tobytes()
    assert np.signbit(stacked.real).any() and np.signbit(stacked.imag).any()


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


def test_hermitize_of_a_stack_is_that_of_each_matrix(rng):
    """One call on a (k, d, d) stack gives each matrix the bytes of its own
    call, and those are the bytes of (M + M†)/2."""
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    whole = linalg.hermitize(stack)
    for m, h in zip(stack, whole):
        assert h.tobytes() == linalg.hermitize(m).tobytes() == ((m + m.conj().T) / 2).tobytes()


def test_partial_trace_rejects_bad_subsets(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))


@pytest.mark.parametrize("keep", [(0, 0), (5,), (), "eig", ("H", (0,)), [1, 1]])
def test_a_warm_memo_still_rejects_bad_subsets(keep):
    """chi of a classical report holds "p" and ("H", ...) keys, and here also
    its spectrum and its entropy (from genuine_total_In, which leaves no cut
    marginal in the memo) and two reductions: no other key is a subset."""
    rho = evolve_global(0.6, 0.3, "ad")
    chi = genuine_classical_Cn(rho, SearchConfig(starts=1)).chi
    genuine_total_In(chi)
    partial_trace(chi, (0,))
    partial_trace(chi, (1, 2, 3))
    assert {"p", "eig", "S", ("H", (0,)), (0,), (1, 2, 3)} <= set(chi._memo)
    with pytest.raises(ValueError):
        partial_trace(chi, keep)


def test_an_unsorted_keep_returns_the_sorted_reduction(rng):
    rho = random_density_matrix((2, 3, 2), rng)
    red = partial_trace(rho, (2, 0))
    assert partial_trace(rho, (0, 2)) is red
    assert partial_trace(rho, [2, 0]) is red and partial_trace(rho, (np.int64(0), 2)) is red
    assert red.dims == (2, 2)
    other = random_density_matrix((2, 3, 2), rng)
    assert partial_trace(other, (0, 2)) is partial_trace(other, (2, 0))
    assert partial_trace(rho, (0, 1, 2)) is rho and partial_trace(rho, (2, 1, 0)) is rho


@pytest.mark.parametrize("keep", [(), (0, 0), (3,), (1.5,), (0, 1.5), ("0", 2), [2, 2], ([0],),
                                  (True, 2), (2, np.False_), (np.array(True), 2)],
                         ids=["empty", "duplicate", "out-of-range", "fraction", "pair-fraction",
                              "string", "list-duplicate", "unhashable", "bool", "numpy-bool",
                              "array-bool"])
def test_a_bad_keep_raises_on_every_call_and_is_never_planned(keep, rng):
    # before, (1.5,) kept subsystem 1 and ("0", 2) kept (0, 2); (True, 2)
    # and (2, np.False_) equal the planned (1, 2) and (2, 0) to the cache
    rho = random_density_matrix((2, 3, 2), rng)
    for good in [(0,), (1, 2), [2, 0]]:  # plans for the same dims are cached first
        partial_trace(rho, good)
    planned = linalg._ptrace_plan.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError):
            partial_trace(rho, keep)
    assert linalg._ptrace_plan.cache_info().currsize == planned


def test_one_plan_serves_every_spelling_of_a_keep(rng):
    linalg._ptrace_plan.cache_clear()
    rho = random_density_matrix((2, 3, 2), rng)
    red = partial_trace(rho, [np.int64(2), 0.0])  # a fresh plan, made from this spelling
    assert set(rho._memo) == {(0, 2)} and all(type(i) is int for i in next(iter(rho._memo)))
    for keep in [(0, 2), (2, 0), [0, 2], (np.int64(0), 2), (0.0, 2), (np.array(0), 2)]:
        assert partial_trace(rho, keep) is red
    other = random_density_matrix((2, 3, 2), rng)
    assert partial_trace(other, (2.0, 0)).mat.tobytes() == partial_trace(
        DensityMatrix(other.dims, other.mat), (0, 2)).mat.tobytes()


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
    for dims in ((), (1, 4), (2.7, 2), (2.0, 2)):  # no subsystem, too small, not integers
        with pytest.raises(ValueError):
            DensityMatrix(dims, np.eye(4) / 4)
        with pytest.raises(ValueError):
            PureState(dims, np.eye(4)[0])
    dims = DensityMatrix((np.int64(2), 2), np.eye(4) / 4).dims
    assert dims == (2, 2) and all(type(d) is int for d in dims)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState((2,), np.array([1.0, 1.0]))
    psi = PureState((2,), np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(np.linalg.norm(psi.vec) - 1) < 1e-12


_ONE_BAD = {
    "DensityMatrix": lambda x: DensityMatrix((2,), [[x, 0.0], [0.0, x]]),
    "PureState": lambda x: PureState((2,), [x, 1.0]),
    "LocalBasisSet": lambda x: LocalBasisSet([(0,)], [[[x, 0.0], [0.0, 1.0]]]),
    "KrausChannel": lambda x: KrausChannel([[[x, 0.0], [0.0, 1.0]]], "x", 0.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build", list(_ONE_BAD.values()), ids=list(_ONE_BAD))
def test_constructors_reject_non_finite_entries(build, bad):
    """A NaN passes a `dev > tol` check and an inf warns in the arithmetic of
    one, so each constructor rejects a non-finite entry before any."""
    with pytest.raises(ValueError, match="non-finite entry"):
        build(bad)


def test_density_matrix_is_immutable(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.0


def test_array_holders_compare_and_hash_by_identity():
    """==, `in` and hash on states, bases and channels go by identity and
    never ask an array for its truth value; a report leaves out its chi."""
    rho = evolve_global(0.5, 0.5, "ad")
    assert rho == rho and rho != evolve_global(0.5, 0.5, "ad")
    psi = ghz(2)
    assert psi in [w4(), psi] and ghz(2) not in [w4(), psi]
    basis = LocalBasisSet([(0,), (1,)], [I2, I2])
    channel = amplitude_damping_kraus(0.3)
    for obj in (rho, psi, basis, channel):
        assert {obj: 1}[obj] == 1 and hash(obj) == hash(obj)
        assert obj != copy.copy(obj)
    report = CorrelationReport(0.25, (0, 1), 3, chi=rho)
    twin = CorrelationReport(0.25, (0, 1), 3, chi=evolve_global(0.5, 0.5, "ad"))
    assert report == twin and hash(report) == hash(twin)
    assert report != CorrelationReport(0.5, (0, 1), 3, chi=rho)


# --- symmetries: only evolve_global's states carry any ---

def test_states_carry_no_symmetries_unless_evolved(rng):
    rho = evolve_global(0.7, 0.4, "pd")
    basis = LocalBasisSet([(i,) for i in range(4)], [random_unitary(2, rng) for _ in range(4)])
    states = [DensityMatrix(rho.dims, rho.mat), dephase(rho, basis), ghz(4).to_density(),
              werner_state(0.3), appendix_golden_state(0.7, 0.4, "pd")]
    states += [partial_trace(rho, keep)
               for k in range(1, 4) for keep in itertools.combinations(range(4), k)]
    assert [state.symmetries for state in states] == [()] * len(states)
    assert partial_trace(rho, range(rho.n)) is rho and rho.symmetries == SWAP_SYMMETRY


def test_a_state_cannot_be_given_symmetries():
    rho = evolve_global(0.7, 0.4, "pd")
    with pytest.raises(TypeError):
        DensityMatrix(rho.dims, rho.mat, rho.symmetries)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.symmetries = ()


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
    for bad in ((0, 0, 1), (0, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_subsystems(rho, (2, 2, 2), bad)


@pytest.mark.parametrize("perm", [[1.0, 0], (np.int64(1), 0)], ids=["float", "int64"])
def test_permute_subsystems_takes_integer_valued_indices(perm, rng):
    # before, [1.0, 0] raised a TypeError inside numpy's transpose
    rho = random_density_matrix((2, 3), rng).mat
    assert np.array_equal(permute_subsystems(rho, (2, 3), perm), permute_subsystems(rho, (2, 3), (1, 0)))


@pytest.mark.parametrize("perm", [[0.5, 1], ["1", 0], [None, 0], [True, 0], [np.int64(1), np.False_]],
                         ids=["fraction", "string", "none", "bool", "numpy-bool"])
def test_permute_subsystems_rejects_indices_that_are_not_integers(perm, rng):
    rho = random_density_matrix((2, 2), rng).mat
    with pytest.raises(ValueError, match="is not an integer"):
        permute_subsystems(rho, (2, 2), perm)


# --- serialization ---

def test_density_matrix_json_roundtrip_exact(rng):
    rho = random_density_matrix((2, 2), rng)
    back = state_from_json(state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    assert back.dims == rho.dims
    assert np.array_equal(back.mat, rho.mat)


@pytest.mark.parametrize("dims", [4, None, "22", [2.7], [2.0, 2], [True, 2], [[2], [2]]])
def test_state_json_rejects_dims_that_are_not_a_list_of_integers(dims):
    text = json.dumps({"dims": dims, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()})
    with pytest.raises(ValueError, match="dims must be a list of integers"):
        state_from_json(text)


@pytest.mark.parametrize("re,im", [
    ([0.5, 0.5, 0.5, 0.5], [0.0]),  # a vector with a length-1 im
    ((np.eye(2) / 2).tolist(), [0.0, 0.0]),  # a matrix with a length-2 im
    ([0.6, 0.8], [[0.0, 0.0], [0.0, 0.0]]),
])
def test_state_json_rejects_re_and_im_of_different_shapes(re, im):
    """numpy would broadcast them into a state nobody wrote."""
    text = json.dumps({"dims": [2, 2] if len(re) == 4 else [2], "re": re, "im": im})
    with pytest.raises(ValueError, match="re and im must have one shape"):
        state_from_json(text)


@pytest.mark.parametrize("key,re,im", [
    ("re", [["1", "0"], ["0", "0"]], [[0, 0], [0, 0]]),
    ("re", [[True, False], [False, False]], [[0, 0], [0, 0]]),
    ("im", [1.0, 0.0], [0.0, "0"]),
    ("re", [10**400, 0], [0, 0]),
], ids=["string", "bool", "vector", "beyond-float"])
def test_state_json_rejects_entries_that_are_not_numbers(key, re, im):
    """numpy would read the first three as |0><0| or |0>, and raise
    OverflowError on the last."""
    text = json.dumps({"dims": [2], "re": re, "im": im})
    with pytest.raises(ValueError, match=f"every entry of {key} must be a number"):
        state_from_json(text)


def test_pure_state_json_roundtrip_exact():
    psi = psi_minus()
    back = state_from_json(state_to_json(psi))
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    assert np.array_equal(back.vec, psi.vec)
