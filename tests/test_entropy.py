import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    DensityMatrix,
    random_unitary,
    relative_entropy,
    shannon,
    total_correlation,
    von_neumann_entropy,
)
from gencorr.channels import psi_minus, werner_state
from gencorr.classical_search import closest_classical_state
from gencorr.genuine_correlations import genuine_total_Ik, genuine_total_In
from gencorr.states import ghz
from random_states import random_density_matrix

# Werner spectrum {0.7, 0.1, 0.1, 0.1} at c = 0.6
S_WERNER_06 = 1.3567796494470394


def test_pure_state_has_zero_entropy():
    assert von_neumann_entropy(psi_minus().to_density()) == pytest.approx(0.0, abs=1e-12)


def _one_nan_ghz4() -> np.ndarray:
    """GHZ4 with a NaN at [0, 0]: LAPACK reports no error on it and returns
    finite eigenvalues, and on its one-qubit marginals too."""
    mat = np.array(ghz(4).to_density().mat)
    mat[0, 0] = np.nan
    return mat


def test_a_spectrum_lapack_cannot_compute_raises_linalgerror():
    """A failed eigensolver, or a matrix with a NaN entry, raises LinAlgError,
    with no RuntimeWarning on the way, and memoizes no spectrum or entropy of
    the state or of any reduction it took, whether the spectrum was asked for
    alone or under a quantifier's one errstate around all its spectra."""
    # LAPACK returns [nan, nan] for the 2x2 NaN matrix without an error
    qubit = DensityMatrix._derived((2,), np.full((2, 2), np.nan, dtype=complex))
    cases = [(von_neumann_entropy, qubit)]
    for quantifier in [
        von_neumann_entropy,
        genuine_total_In,
        lambda rho: genuine_total_Ik(rho, 3),
        total_correlation,
        lambda rho: closest_classical_state(rho, [(0,), (1,), (2,), (3,)]),
    ]:
        for mat in (np.full((16, 16), np.nan, dtype=complex), _one_nan_ghz4()):
            cases.append((quantifier, DensityMatrix._derived((2,) * 4, mat)))
    for quantifier, rho in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(np.linalg.LinAlgError):
                    quantifier(rho)
        states = [rho, *(v for v in rho._memo.values() if isinstance(v, DensityMatrix))]
        assert [sorted({"eig", "S"} & set(state._memo)) for state in states] == [[]] * len(states)


@pytest.mark.parametrize("probs", [
    [np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0], [0.5, 0.5, -0.3], [2.0], [0.5, 0.4], [],
])
def test_shannon_rejects_what_is_not_a_distribution(probs):
    with pytest.raises(ValueError):
        shannon(probs)


def test_shannon_takes_rounding_within_the_tolerances():
    assert shannon([0.25, 0.75]) == shannon(np.array([[0.25], [0.75]]))
    assert shannon([0.5 + 4e-10, 0.5 + 4e-10, -8e-10]) == pytest.approx(1.0, abs=1e-9)


def test_maximally_mixed_qubit():
    rho = DensityMatrix((2,), np.eye(2) / 2)
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_werner_entropy_frozen_value():
    assert von_neumann_entropy(werner_state(0.6)) == pytest.approx(S_WERNER_06, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_entropy_invariant_under_unitaries(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2), rng)
    u = random_unitary(4, rng)
    conj = DensityMatrix((2, 2), u @ rho.mat @ u.conj().T)
    assert abs(von_neumann_entropy(conj) - von_neumann_entropy(rho)) <= 1e-10


def test_relative_entropy_identical_states(rng):
    rho = random_density_matrix((2, 2), rng)
    assert abs(relative_entropy(rho, rho)) <= 1e-9


def test_relative_entropy_pure_vs_mixed():
    ket0 = DensityMatrix((2,), np.diag([1.0, 0.0]))
    mixed = DensityMatrix((2,), np.eye(2) / 2)
    assert relative_entropy(ket0, mixed) == pytest.approx(1.0, abs=1e-12)


def test_relative_entropy_disjoint_supports_is_sentinel():
    ket0 = DensityMatrix((2,), np.diag([1.0, 0.0]))
    ket1 = DensityMatrix((2,), np.diag([0.0, 1.0]))
    assert math.isinf(relative_entropy(ket0, ket1))


def test_relative_entropy_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        relative_entropy(random_density_matrix((2,), rng), random_density_matrix((3,), rng))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_relative_entropy_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2), rng)
    sigma = random_density_matrix((2, 2), rng)
    val = relative_entropy(rho, sigma)
    assert val >= -1e-9
    if np.abs(rho.mat - sigma.mat).max() > 1e-3:
        assert val > 1e-9


def test_total_correlation_product_state(rng):
    a = random_density_matrix((2,), rng)
    b = random_density_matrix((3,), rng)
    prod = DensityMatrix((2, 3), np.kron(a.mat, b.mat))
    assert abs(total_correlation(prod)) <= 1e-12


def test_total_correlation_singlet():
    assert total_correlation(psi_minus().to_density()) == pytest.approx(2.0, abs=1e-12)


def test_total_correlation_ghz4():
    assert total_correlation(ghz(4).to_density()) == pytest.approx(4.0, abs=1e-12)


def test_total_correlation_single_subsystem_rejected(rng):
    with pytest.raises(ValueError):
        total_correlation(random_density_matrix((4,), rng))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_closed_form_matches_direct_relative_entropy(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2), rng)
    marginals = np.kron(
        np.asarray(rho.mat).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3),
        np.asarray(rho.mat).reshape(2, 2, 2, 2).trace(axis1=0, axis2=2),
    )
    direct = relative_entropy(rho, DensityMatrix((2, 2), marginals))
    assert abs(total_correlation(rho) - direct) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_total_correlation_additive_over_products(seed):
    rng = np.random.default_rng(seed)
    ab = random_density_matrix((2, 2), rng)
    cd = random_density_matrix((2, 2), rng)
    joint = DensityMatrix((2, 2, 2, 2), np.kron(ab.mat, cd.mat))
    assert abs(
        total_correlation(joint) - total_correlation(ab) - total_correlation(cd)
    ) <= 1e-9
