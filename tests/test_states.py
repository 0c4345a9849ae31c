import math

import numpy as np
import pytest

from gencorr import (
    Bipartition,
    DensityMatrix,
    SearchConfig,
    multipartite_quantum_Q,
    partial_trace,
    random_unitary,
    total_correlation,
)
from gencorr.channels import evolve_global, upsilon_pd, werner_state
from gencorr.experiments import evaluate_measures
from gencorr.states import fidelity, ghz, ppt_min_eigenvalue, w4
from random_states import random_density_matrix, random_pure_state, separable_quantum_mixture


def fid_w_closed(c, p):
    return np.sqrt((1 + 3 * c) * (1 + 2 * np.sqrt(p * (1 - p))) / 8)


def fid_ghz_closed(c, p):
    return np.sqrt((1 + 3 * c) * p) / 2


# --- constructors ---

def test_ghz_two_qubits_is_bell_pair():
    v = ghz(2).vec
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_ghz_single_qubit_marginals_are_mixed():
    rho = ghz(4).to_density()
    for i in range(4):
        assert np.allclose(partial_trace(rho, (i,)).mat, np.eye(2) / 2, atol=1e-12)


def test_ghz_needs_two_qubits():
    with pytest.raises(ValueError):
        ghz(1)


def test_w4_normalization_and_marginals():
    psi = w4()
    assert abs(np.linalg.norm(psi.vec) - 1.0) <= 1e-12
    rho = psi.to_density()
    for i in range(4):
        assert np.allclose(
            partial_trace(rho, (i,)).mat, np.diag([0.75, 0.25]), atol=1e-12
        )


def test_classical_state_factorized_probs_are_uncorrelated(rng):
    pa, pb = rng.dirichlet([1, 1]), rng.dirichlet([1, 1, 1])
    rho = DensityMatrix((2, 3), np.diag(np.outer(pa, pb).reshape(-1)))
    assert abs(total_correlation(rho)) <= 1e-12


def test_classical_state_perfect_correlation_carries_one_bit():
    rho = DensityMatrix((2, 2), np.diag([0.5, 0.0, 0.0, 0.5]))
    assert total_correlation(rho) == pytest.approx(1.0, abs=1e-12)


def test_classical_state_commutes_with_projectors(rng):
    rho = DensityMatrix((2, 2), np.diag(rng.dirichlet(np.ones(4))))
    for i in range(4):
        proj = np.zeros((4, 4))
        proj[i, i] = 1.0
        assert np.array_equal(rho.mat @ proj, proj @ rho.mat)


def test_classical_state_rejects_bad_distribution():
    with pytest.raises(ValueError, match="trace must be 1"):
        DensityMatrix((2,), np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix((2,), np.diag([1.2, -0.2]))


def test_classical_state_has_no_quantumness(rng):
    rho = DensityMatrix((2, 2), np.diag(rng.dirichlet(np.ones(4))))
    rep = multipartite_quantum_Q(rho, SearchConfig(starts=2, max_evals=300))
    assert rep.value_bits <= 1e-6


# --- fidelity ---

def test_fidelity_with_own_projector(rng):
    psi = random_pure_state((2, 2), rng)
    assert fidelity(psi, psi.to_density()) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_decomposes_rank_one_states(rng):
    psi = random_pure_state((2, 2), rng)
    phi = random_pure_state((2, 2), rng)
    rho = phi.to_density()
    f2 = fidelity(psi, rho) ** 2
    # orthonormal completion of psi
    q, _ = np.linalg.qr(np.column_stack([psi.vec, np.eye(4)[:, :3]]))
    complement = sum(
        float(np.real(np.vdot(q[:, k], rho.mat @ q[:, k]))) for k in range(1, 4)
    )
    assert f2 + complement == pytest.approx(1.0, abs=1e-12)


def test_fidelity_invariant_under_joint_unitary(rng):
    psi = random_pure_state((2, 2), rng)
    rho = random_density_matrix((2, 2), rng)
    u = random_unitary(4, rng)
    rotated_psi = type(psi)((2, 2), u @ psi.vec)
    rotated_rho = DensityMatrix((2, 2), u @ rho.mat @ u.conj().T)
    assert abs(fidelity(rotated_psi, rotated_rho) - fidelity(psi, rho)) <= 1e-12


def test_fidelity_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        fidelity(random_pure_state((2,), rng), random_density_matrix((2, 2), rng))


def test_fidelity_of_a_nan_state_raises_and_flags_its_row():
    # GHZ4 with NaN coherences: the overlap is NaN, which neither a
    # `< -1e-12` test nor the clamp to [0, 1] would stop
    mat = np.array(ghz(4).to_density().mat)
    mat[0, 15] = mat[15, 0] = np.nan
    rho = DensityMatrix._derived((2,) * 4, mat)
    with pytest.raises(ValueError, match="not a number"):
        fidelity(ghz(4), rho)
    values, flags = evaluate_measures(rho, ("F_W", "F_GHZ"))
    assert math.isnan(values["F_W"]) and math.isnan(values["F_GHZ"])
    assert [flag.split(":")[0] for flag in flags] == ["F_W", "F_GHZ"]


@pytest.mark.parametrize("c,p", [(0.0, 0.3), (0.5, 0.5), (1.0, 0.9)])
def test_w_fidelity_closed_form_spot_checks(c, p):
    val = fidelity(w4(), evolve_global(c, p, "ad"))
    assert val == pytest.approx(fid_w_closed(c, p), abs=1e-12)


@pytest.mark.parametrize("c,p", [(0.0, 0.3), (0.5, 0.5), (1.0, 0.9)])
def test_ghz_fidelity_closed_form_spot_checks(c, p):
    val = fidelity(upsilon_pd(1.0), evolve_global(c, p, "pd"))
    assert val == pytest.approx(fid_ghz_closed(c, p), abs=1e-12)


# --- partial transpose ---

@pytest.mark.parametrize("c", [0.0, 1 / 3, 0.5, 1.0])
def test_werner_partial_transpose_closed_form(c):
    cut = Bipartition((0,), 2)
    val = ppt_min_eigenvalue(werner_state(c), cut)
    assert val == pytest.approx((1 - 3 * c) / 4, abs=1e-12)


def test_werner_ppt_sign_change_brackets_the_threshold():
    cut = Bipartition((0,), 2)
    assert ppt_min_eigenvalue(werner_state(1 / 3 - 1e-12), cut) > 0
    assert ppt_min_eigenvalue(werner_state(1 / 3 + 1e-12), cut) < 0


def test_product_states_stay_ppt(rng):
    a = random_density_matrix((2,), rng)
    b = random_density_matrix((2,), rng)
    rho = DensityMatrix((2, 2), np.kron(a.mat, b.mat))
    assert ppt_min_eigenvalue(rho, Bipartition((0,), 2)) >= -1e-12


def test_ppt_cut_size_must_match(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        ppt_min_eigenvalue(rho, Bipartition((0,), 3))


# --- random fixtures ---

def test_random_unitary_is_unitary(rng):
    u = random_unitary(4, rng)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12


def test_separable_mixture_is_valid_and_quantum(rng):
    rho = separable_quantum_mixture((2, 2), np.random.default_rng(5), terms=3)
    assert isinstance(rho, DensityMatrix)
    rep = multipartite_quantum_Q(rho, SearchConfig(starts=8, max_evals=800, rng_seed=0))
    assert rep.value_bits > 0.005  # separable yet not classical in any basis
