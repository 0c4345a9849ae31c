import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    CompositeDims,
    DensityMatrix,
    PureState,
    eig_hermitian,
    kron_all,
    matrix_log2_on_support,
    partial_trace,
    permute_subsystems,
    state_from_json,
    state_to_json,
    tensor,
)
from gencorr.channels import psi_minus, werner_state
from gencorr.states import random_density_matrix

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


# --- tensor ---

def test_tensor_identity():
    assert np.array_equal(tensor(I2, I2), np.eye(4))


def test_tensor_projector_product():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert np.array_equal(tensor(p0, p1), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_flips_two_qubit_state():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    out = tensor(SX, SX) @ ket00
    expected = np.array([0, 0, 0, 1], dtype=complex)
    assert np.array_equal(out, expected)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tensor_associative_exactly_on_dyadic_entries(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(-8, 9, size=(2, 2)).astype(complex) / 16 for _ in range(3))
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))


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
    prod = DensityMatrix((2, 3), tensor(a.mat, b.mat))
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
    prod = DensityMatrix((2, 2, 2), tensor(a.mat, b.mat))
    red = partial_trace(prod, (0, 1))
    assert np.allclose(red.mat, a.mat, atol=1e-12)
    assert abs(np.trace(red.mat) - 1) < 1e-12
    assert abs(np.trace(partial_trace(prod, (2,)).mat) - 1) < 1e-12


# --- eigendecomposition ---

def test_eig_diagonal_input():
    w, _ = eig_hermitian(np.diag([0.25, 0.75]))
    assert np.allclose(w, [0.25, 0.75])


def test_eig_pauli_spectrum():
    w, _ = eig_hermitian(SX)
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_werner_spectrum():
    w, _ = eig_hermitian(werner_state(0.6).mat)
    assert np.allclose(w, [0.1, 0.1, 0.1, 0.7], atol=1e-12)


def test_eig_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_hermitian(np.ones((2, 3)))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 16))
@settings(max_examples=40, deadline=None)
def test_eig_reconstruction(seed, d):
    m = random_hermitian(np.random.default_rng(seed), d)
    w, v = eig_hermitian(m)
    assert np.all(np.diff(w) >= -1e-12)
    assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-10
    assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10


# --- matrix log on support ---

def test_log2_maximally_mixed():
    assert np.allclose(matrix_log2_on_support(np.eye(4) / 4), -2 * np.eye(4), atol=1e-12)


def test_log2_excludes_null_space():
    out = matrix_log2_on_support(np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([0.0, 0.0]), atol=1e-12)


def test_log2_dyadic_spectrum():
    out = matrix_log2_on_support(np.diag([0.5, 0.25, 0.25]))
    assert np.allclose(out, np.diag([-1.0, -2.0, -2.0]), atol=1e-12)


def test_log2_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        matrix_log2_on_support(np.diag([1.0, -0.5]))


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


# --- permutation ---

def test_permute_subsystems_swaps_kron_factors(rng):
    a = random_density_matrix((2,), rng).mat
    b = random_density_matrix((3,), rng).mat
    swapped = permute_subsystems(tensor(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, tensor(b, a), atol=0)


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
