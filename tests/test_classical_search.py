import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    DensityMatrix,
    LocalBasisSet,
    SearchConfig,
    all_bipartitions,
    closest_classical_state,
    dephase,
    quantumness_in_basis,
    random_unitary,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)
from gencorr.channels import evolve_global, psi_minus, werner_state
import gencorr.classical_search as cs
from gencorr.classical_search import GRAD_TOL, _gradient
from gencorr.entropy import shannon
from gencorr.states import random_classical_state, random_density_matrix

I2 = np.eye(2, dtype=complex)
PLUS = DensityMatrix((2,), np.full((2, 2), 0.5, dtype=complex))


def computational_basis(dims):
    return LocalBasisSet([(i,) for i in range(len(dims))], [np.eye(d) for d in dims])


def werner_q_closed_form(c: float) -> float:
    """Pinching a Werner state in any aligned product basis is optimal."""
    diag = np.array([(1 - c) / 4, (1 + c) / 4, (1 + c) / 4, (1 - c) / 4])
    spectrum = np.array([(1 + 3 * c) / 4, (1 - c) / 4, (1 - c) / 4, (1 - c) / 4])
    return shannon(diag) - shannon(spectrum)


# --- dephase ---

def test_dephase_fixed_point_for_diagonal_states(rng):
    rho = random_classical_state((2, 2), rng)
    chi = dephase(rho, computational_basis((2, 2)))
    assert np.allclose(chi.mat, rho.mat, atol=1e-14)


def test_dephase_kills_plus_state_coherence():
    chi = dephase(PLUS, computational_basis((2,)))
    assert np.allclose(chi.mat, I2 / 2, atol=1e-14)


def test_dephase_singlet_in_computational_basis():
    chi = dephase(psi_minus().to_density(), computational_basis((2, 2)))
    assert np.allclose(chi.mat, np.diag([0, 0.5, 0.5, 0]), atol=1e-14)


def test_dephase_rejects_bad_partition(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        dephase(rho, LocalBasisSet([(0,)], [np.eye(2)]))
    with pytest.raises(ValueError):
        dephase(rho, LocalBasisSet([(0,), (1,)], [np.eye(2), np.eye(4)]))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_dephase_idempotent(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2), rng)
    basis = LocalBasisSet([(0,), (1,)], [random_unitary(2, rng), random_unitary(2, rng)])
    once = dephase(rho, basis)
    twice = dephase(once, basis)
    assert np.abs(twice.mat - once.mat).max() <= 1e-13


def test_dephase_ignores_basis_column_phases(rng):
    rho = random_density_matrix((2, 2), rng)
    u = random_unitary(2, rng)
    v = random_unitary(2, rng)
    phased_u = u * np.exp(1j * np.array([0.3, -1.2]))
    phased_v = v * np.exp(1j * np.array([2.5, 0.9]))
    a = dephase(rho, LocalBasisSet([(0,), (1,)], [u, v]))
    b = dephase(rho, LocalBasisSet([(0,), (1,)], [phased_u, phased_v]))
    assert np.abs(a.mat - b.mat).max() <= 1e-13


def test_local_basis_set_rejects_non_unitary():
    with pytest.raises(ValueError):
        LocalBasisSet([(0,)], [np.array([[1.0, 0.0], [1.0, 1.0]])])


# --- quantumness in a fixed basis ---

def test_quantumness_zero_for_classical_state_in_own_basis(rng):
    rho = random_classical_state((2, 2), rng)
    assert abs(quantumness_in_basis(rho, computational_basis((2, 2)))) <= 1e-12


def test_quantumness_of_plus_state():
    val = quantumness_in_basis(PLUS, computational_basis((2,)))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_quantumness_of_singlet():
    val = quantumness_in_basis(psi_minus().to_density(), computational_basis((2, 2)))
    assert val == pytest.approx(1.0, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_quantumness_matches_relative_entropy_and_is_nonnegative(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2), rng)
    basis = LocalBasisSet([(0,), (1,)], [random_unitary(2, rng), random_unitary(2, rng)])
    val = quantumness_in_basis(rho, basis)
    assert val >= -1e-12
    assert abs(val - relative_entropy(rho, dephase(rho, basis))) <= 1e-9


# --- the search ---

def test_closest_classical_of_commuting_product_is_exact(rng):
    a = random_classical_state((2,), rng)
    b = random_classical_state((2,), rng)
    rho = DensityMatrix((2, 2), tensor(a.mat, b.mat))
    res = closest_classical_state(rho, [(0,), (1,)], SearchConfig(starts=2))
    assert res.q <= 1e-9
    assert np.allclose(res.chi.mat, rho.mat, atol=1e-9)


def test_closest_classical_of_singlet(fast_cfg):
    res = closest_classical_state(psi_minus().to_density(), [(0,), (1,)], fast_cfg)
    assert res.q == pytest.approx(1.0, abs=1e-6)
    assert von_neumann_entropy(res.chi) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
def test_closest_classical_matches_werner_closed_form(c, fast_cfg):
    res = closest_classical_state(werner_state(c), [(0,), (1,)], fast_cfg)
    assert res.q == pytest.approx(werner_q_closed_form(c), abs=1e-6)


def test_search_is_deterministic_for_fixed_seed():
    cfg = SearchConfig(starts=6, max_evals=500, rng_seed=42)
    rho = werner_state(0.7)
    first = closest_classical_state(rho, [(0,), (1,)], cfg)
    second = closest_classical_state(rho, [(0,), (1,)], cfg)
    assert first.q == second.q
    assert all(
        np.array_equal(u, v)
        for u, v in zip(first.basis.unitaries, second.basis.unitaries)
    )


def test_search_value_invariant_under_local_unitaries(rng, fast_cfg):
    rho = werner_state(0.5)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated = DensityMatrix((2, 2), u @ rho.mat @ u.conj().T)
    q0 = closest_classical_state(rho, [(0,), (1,)], fast_cfg).q
    q1 = closest_classical_state(rotated, [(0,), (1,)], fast_cfg).q
    assert abs(q0 - q1) <= 1e-4


def test_grouped_cell_search_diagonalizes_in_one_cell(fast_cfg):
    # grouping both qubits into one dimension-4 cell diagonalizes any state
    rho = werner_state(0.8)
    cfg = SearchConfig(starts=4, max_evals=1500, rng_seed=3)
    res = closest_classical_state(rho, [(0, 1)], cfg)
    assert res.basis.unitaries[0].shape == (4, 4)
    assert res.q <= 1e-5


def test_search_reaches_cells_of_dimension_eight(rng):
    # one dimension-8 cell: q vanishes; a 2|8 cut of a random pure state: q is
    # the entanglement entropy, attained in the Schmidt basis
    rho = random_density_matrix((2, 2, 2), rng)
    res = closest_classical_state(rho, [(0, 1, 2)], SearchConfig(starts=1))
    assert res.basis.unitaries[0].shape == (8, 8)
    assert res.q <= 1e-9
    psi = random_density_matrix((2, 2, 2, 2), rng, rank=1)
    res = closest_classical_state(psi, [(0,), (1, 2, 3)], SearchConfig(starts=2))
    marginal = np.linalg.eigvalsh(np.einsum("abcb->ac", psi.mat.reshape(2, 8, 2, 8)))
    assert res.q == pytest.approx(shannon(marginal), abs=1e-6)


# --- the Riemannian gradient and the stationarity certificate ---

def _expm_hermitian(x: np.ndarray, t: complex) -> np.ndarray:
    w, v = np.linalg.eigh(x)
    return (v * np.exp(t * w)) @ v.conj().T


@pytest.mark.parametrize("cell", [0, 1])
def test_gradient_matches_central_difference(cell, rng):
    # cells (0,) and (1, 2): a qubit cell and a dimension-4 cell
    rho = random_density_matrix((2, 2, 2), rng)
    cells, cdims = [(0,), (1, 2)], [2, 4]
    us = [random_unitary(d, rng) for d in cdims]
    b = np.kron(us[0], us[1])
    sigma = b.conj().T @ rho.mat @ b
    grad, _ = _gradient(sigma, np.diagonal(sigma).real, cdims)
    d = cdims[cell]
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = (x + x.conj().T) / 2

    def f(eta):
        moved = list(us)
        moved[cell] = us[cell] @ _expm_hermitian(x, -1j * eta)
        return quantumness_in_basis(rho, LocalBasisSet(cells, moved))

    h = 1e-5
    slope = (f(h) - f(-h)) / (2 * h)
    assert slope == pytest.approx(np.trace(x @ grad[cell]).real, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize(
    "c,p,kind",
    [
        (0.6546013133245124, 0.38662538804729474, "ad"),
        # here an unguarded descent leaves outcomes at ~1e-12, where
        # relative_entropy's support test returns inf
        (0.989293854107047, 0.11882572844807984, "pd"),
        (0.8453986866754876, 0.8811742715519202, "ad"),
    ],
)
def test_search_value_is_the_relative_entropy_to_chi_on_balanced_cuts(c, p, kind):
    rho = evolve_global(c, p, kind)
    cfg = SearchConfig(starts=2, rng_seed=0)
    for cut in all_bipartitions(4):
        if len(cut.mask) == 2:
            res = closest_classical_state(rho, cut.cells(), cfg)
            assert abs(relative_entropy(rho, res.chi) - res.q) <= 1e-9


@pytest.mark.parametrize("dims,cells", [((2, 2), [(0,), (1,)]), ((2, 2, 2), [(0,), (1, 2)])])
def test_grad_norm_certifies_stationarity_on_full_rank_inputs(dims, cells):
    # full-rank inputs have no vanishing outcomes, so the best start ends
    # below GRAD_TOL within the budget, and grad_norm belongs to the returned basis
    cfg = SearchConfig(starts=1)
    for seed in range(8):
        rho = random_density_matrix(dims, np.random.default_rng(seed))
        res = closest_classical_state(rho, cells, cfg)
        assert res.grad_norm < GRAD_TOL
        b = np.kron(*res.basis.unitaries)
        sigma = b.conj().T @ rho.mat @ b
        cdims = [u.shape[0] for u in res.basis.unitaries]
        _, norm = _gradient(sigma, np.diagonal(sigma).real, cdims)
        assert norm == pytest.approx(res.grad_norm, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("cells,cdims", [([(0,), (1,), (2,), (3,)], [2, 2, 2, 2]),
                                         ([(0, 1), (2, 3)], [4, 4])])
def test_search_spends_the_same_iterations_on_every_input(cells, cdims, monkeypatch):
    # the budget is starts * min(n**2, max_evals) gradient evaluations, n the
    # real parameter count, whatever the state.  One lane spends exactly the
    # budget; more lanes also spend the discarded iterations of starts run
    # ahead, for the same result
    calls = []
    monkeypatch.setattr(cs, "_gradient", lambda *a: calls.append(len(a[0])) or _gradient(*a))
    cfg = SearchConfig(starts=2, max_evals=300)
    n = sum(d * d for d in cdims)
    lanes = cs._LANES
    for rho in (evolve_global(0.9, 0.3, "ad"), evolve_global(0.6, 0.7, "pd"),
                random_density_matrix((2, 2, 2, 2), np.random.default_rng(5))):
        monkeypatch.setattr(cs, "_LANES", 1)
        calls.clear()
        one = closest_classical_state(rho, cells, cfg)
        assert len(calls) == 2 * min(n * n, cfg.max_evals)
        monkeypatch.setattr(cs, "_LANES", lanes)
        calls.clear()
        many = closest_classical_state(rho, cells, cfg)
        assert sum(calls) >= 2 * min(n * n, cfg.max_evals)
        assert _fields(many) == _fields(one)


def _fields(res):
    """Every field of a SearchResult, exactly (arrays as bytes)."""
    arrays = [u.tobytes() for u in res.basis.unitaries] + [res.chi.mat.tobytes()]
    return (res.q, res.evals, res.grad_norm, res.starts, res.basis.cells, arrays)


@pytest.mark.parametrize("cells", [[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)], [(0,), (1, 2, 3)]])
@pytest.mark.parametrize("cfg", [SearchConfig(starts=1), SearchConfig(starts=2),
                                 SearchConfig(starts=2, max_evals=30)])
def test_search_result_does_not_depend_on_the_lane_count(cells, cfg, monkeypatch):
    # starts run ahead in lanes settle in start order; with max_evals=30 the
    # budget cuts starts short, at limits known only once earlier starts end
    rho = evolve_global(0.8, 0.4, "ad")
    default = closest_classical_state(rho, cells, cfg)
    monkeypatch.setattr(cs, "_LANES", 1)
    assert _fields(closest_classical_state(rho, cells, cfg)) == _fields(default)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_evals=0)
    assert SearchConfig().resolved_starts([2, 2]) == 32
    assert SearchConfig().resolved_starts([2, 4]) == 64
    assert SearchConfig(starts=5).resolved_starts([2, 4]) == 5
