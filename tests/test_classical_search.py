import math

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
    partial_trace,
    quantumness_in_basis,
    random_unitary,
    relative_entropy,
    von_neumann_entropy,
)
from gencorr.channels import evolve_global, psi_minus, werner_state
import gencorr
import gencorr.classical_search as cs
import gencorr.entropy as entropy
import gencorr.experiments as experiments
import gencorr.genuine_correlations as gc
from gencorr.classical_search import GRAD_TOL, _gradient
from gencorr.entropy import shannon
from gencorr.experiments import evaluate_measures
from random_states import random_classical_state, random_density_matrix

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


@pytest.mark.parametrize("cells,dims", [([(0,), (0,)], (2, 2)), ([(1,), (2,)], (2, 2)),
                                        ([(0,), (-1,)], (2, 2)), ([(), (0, 1)], (1, 4))],
                         ids=["repeated", "shifted", "negative", "empty"])
def test_local_basis_set_rejects_cells_that_do_not_partition(cells, dims):
    # before, these were accepted and failed only later, inside dephase; an
    # empty cell was accepted everywhere, as a cell of dimension 1
    with pytest.raises(ValueError, match="do not partition 0..1$"):
        LocalBasisSet(cells, [np.eye(d) for d in dims])
    assert LocalBasisSet([(1,), (0,)], [np.eye(2), np.eye(2)]).cells == ((1,), (0,))


def test_a_search_refuses_an_empty_cell_by_name():
    # before, the empty cell had dimension 1 and a (1, 1) unitary, and it
    # made a four-qubit search no longer "all qubit cells": its start 1 was
    # a Haar draw, not the Z/X product, and it took 43 evaluations, not 18
    with pytest.raises(ValueError, match=r"cell 4 of .* is empty"):
        closest_classical_state(evolve_global(0.6, 0.3, "pd"), [(0,), (1,), (2,), (3,), ()],
                                SearchConfig(starts=2))


@pytest.mark.parametrize("cell", [(0.5,), ("0",), (None,), (False,), (np.False_,)],
                         ids=["fraction", "string", "none", "bool", "numpy-bool"])
def test_local_basis_set_and_the_search_reject_indices_that_are_not_integers(cell):
    # before, LocalBasisSet([(0.5,), (1,)], ...) became ((0,), (1,))
    with pytest.raises(ValueError, match="is not an integer"):
        LocalBasisSet([cell, (1,)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="is not an integer"):
        cs.closest_classical_states([werner_state(0.5)], [[cell, (1,)]], SearchConfig(starts=1))
    assert LocalBasisSet([(1.0,), (np.int64(0),)], [np.eye(2), np.eye(2)]).cells == ((1,), (0,))


def test_local_basis_set_copies_its_unitaries():
    u = np.eye(2, dtype=complex)
    basis = LocalBasisSet([(0,)], [u])
    assert u.flags.writeable and not basis.unitaries[0].flags.writeable
    u[0, 0] = 5.0
    assert basis.unitaries[0][0, 0] == 1.0


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
    rho = DensityMatrix((2, 2), np.kron(a.mat, b.mat))
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
    vec, _ = _gradient(sigma, np.log2(np.diagonal(sigma).real), cdims)
    grad = np.split(vec.view(complex), np.cumsum([d * d for d in cdims])[:-1])
    grad = [g.reshape(d, d) for g, d in zip(grad, cdims)]
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
        # nearly pure; it passes without the mass-cap guard too
        (0.989293854107047, 0.11882572844807984, "pd"),
        (0.8453986866754876, 0.8811742715519202, "ad"),
        # without the mass-cap guard, the [(0, 2), (1, 3)] search ends where
        # relative_entropy's support test returns inf, at 1, 2 and 4 starts
        (0.8, 0.25, "pd"),
    ],
)
def test_search_value_is_the_relative_entropy_to_chi_on_balanced_cuts(c, p, kind):
    rho = evolve_global(c, p, kind)
    cfg = SearchConfig(starts=2, rng_seed=0)
    for cut in all_bipartitions(4):
        if len(cut.mask) == 2:
            res = closest_classical_state(rho, cut.cells(), cfg)
            assert abs(relative_entropy(rho, res.chi) - res.q) <= 1e-9


def test_each_batched_search_keeps_its_own_mass_cap():
    # the first job's mass_cap (2e-13) is four times the second's (5e-14);
    # under the first's cap the second search ends where S(rho||chi) is inf
    first, second = evolve_global(0.2, 0.5, "ad"), evolve_global(0.8, 0.25, "pd")
    cut = [(0, 2), (1, 3)]
    res = cs.closest_classical_states([first, second], [cut, cut], SearchConfig(starts=2))
    assert abs(relative_entropy(second, res[1].chi) - res[1].q) <= 1e-9


@pytest.mark.parametrize("kind", ["ad", "pd"])
@pytest.mark.parametrize("c", [0.2, 0.6, 1.0])
def test_side_cut_q_is_the_werner_closed_form_at_every_p(c, kind):
    # a local unitary on (a, E_a) and one on (b, E_b) map the evolved state to
    # Werner(c) x vacuum, so the {a,E_a}|{b,E_b} cut Q is constant in p:
    # 1 + H2((1-c)/2) - S(W_c), the Werner value in the aligned basis
    h2 = shannon(np.array([(1 - c) / 2, (1 + c) / 2]))
    expected = 1 + h2 - von_neumann_entropy(werner_state(c))
    for p in (0.0, 0.3, 0.7, 1.0):
        res = closest_classical_state(evolve_global(c, p, kind), [(0, 1), (2, 3)], SearchConfig())
        assert abs(res.q - expected) <= 1e-9


QUBIT_CELLS, TWO_TWO, ONE_THREE = [(0,), (1,), (2,), (3,)], [(0, 2), (1, 3)], [(0,), (1, 2, 3)]


@pytest.mark.parametrize(
    "rho,shapes",
    [
        (evolve_global(0.6, 0.3, "pd"), [QUBIT_CELLS, TWO_TWO, ONE_THREE]),
        (evolve_global(0.8, 0.5, "ad"), [QUBIT_CELLS, TWO_TWO, ONE_THREE]),
        (evolve_global(1.0, 0.9, "ad"), [QUBIT_CELLS, TWO_TWO, ONE_THREE]),
        # on these two, 1 and 4 starts miss the 16-start minimum by 6.25e-3
        # and 3.9e-3
        (random_density_matrix((2, 2, 2, 2), np.random.default_rng(11), rank=4), [QUBIT_CELLS]),
        (random_density_matrix((2, 2, 2, 2), np.random.default_rng(37), rank=4), [TWO_TWO]),
    ],
    ids=["pd-0.6-0.3", "ad-0.8-0.5", "ad-1.0-0.9", "random-11", "random-37"],
)
def test_default_budget_reaches_the_sixteen_start_value(rho, shapes):
    # the default starts are the first of the 16, so q can only be higher;
    # random-11 reaches the 16-start minimum at start 1, the Hadamard on qubit 0
    for cells in shapes:
        q = closest_classical_state(rho, cells, SearchConfig()).q
        assert q <= closest_classical_state(rho, cells, SearchConfig(starts=16)).q + 1e-9


@pytest.mark.parametrize("dims,cells", [((2, 2), [(0,), (1,)]), ((2, 2, 2), [(0,), (1, 2)])])
def test_grad_norm_certifies_stationarity_on_full_rank_inputs(dims, cells):
    # full-rank inputs have no vanishing outcomes, so the best start ends
    # below GRAD_TOL within max_evals, and grad_norm belongs to the returned basis
    cfg = SearchConfig(starts=1)
    for seed in range(8):
        rho = random_density_matrix(dims, np.random.default_rng(seed))
        res = closest_classical_state(rho, cells, cfg)
        assert res.grad_norm < GRAD_TOL
        b = np.kron(*res.basis.unitaries)
        sigma = b.conj().T @ rho.mat @ b
        cdims = [u.shape[0] for u in res.basis.unitaries]
        _, norm = _gradient(sigma, np.log2(np.diagonal(sigma).real), cdims)
        assert norm == pytest.approx(res.grad_norm, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("cells", [[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)]])
def test_search_runs_exactly_starts_starts_on_every_input(cells, monkeypatch):
    # starts 0..starts-1 of every job open once each, in (job, start) order,
    # whatever the input, the lane width and the jobs beside it
    opened = []
    open_lanes = cs._LaneSearch._open
    monkeypatch.setattr(cs._LaneSearch, "_open",
                        lambda self, new: opened.extend(new) or open_lanes(self, new))
    cfg = SearchConfig(starts=3, max_evals=300)
    rhos = [evolve_global(0.9, 0.3, "ad"), evolve_global(0.6, 0.7, "pd"),
            random_density_matrix((2, 2, 2, 2), np.random.default_rng(5))]
    for width in (1, cs._WIDTH):
        monkeypatch.setattr(cs, "_WIDTH", width)
        for rho in rhos:
            opened.clear()
            closest_classical_state(rho, cells, cfg)
            assert opened == [(0, k) for k in range(cfg.starts)]
        opened.clear()
        cs.closest_classical_states(rhos, [cells] * len(rhos), cfg)
        assert opened == [(j, k) for j in range(len(rhos)) for k in range(cfg.starts)]


def _fields(res):
    """Every field of a SearchResult, exactly (arrays as bytes)."""
    arrays = [u.tobytes() for u in res.basis.unitaries] + [res.chi.mat.tobytes()]
    return (res.q, res.evals, res.grad_norm, res.basis.cells, arrays)


@pytest.mark.parametrize("cells", [[(0,), (1,), (2,), (3,)], [(0, 1), (2, 3)], [(0,), (1, 2, 3)]])
@pytest.mark.parametrize("cfg", [SearchConfig(starts=1), SearchConfig(starts=2),
                                 SearchConfig(starts=2, max_evals=30)])
def test_search_result_does_not_depend_on_the_lane_count(cells, cfg, monkeypatch):
    # one lane runs the starts one after another; with max_evals=30 every
    # start stops at the evaluation cap
    rho = evolve_global(0.8, 0.4, "ad")
    default = closest_classical_state(rho, cells, cfg)
    monkeypatch.setattr(cs, "_WIDTH", 1)
    assert _fields(closest_classical_state(rho, cells, cfg)) == _fields(default)


@pytest.mark.parametrize("starts,width", [(1, cs._WIDTH), (8, cs._WIDTH), (8, 3)])
def test_batched_searches_equal_lone_searches(starts, width, monkeypatch):
    # the lanes of several searches advance together, and every field equals
    # a lone call's.  With width 3 the later starts wait for lanes that the
    # earlier ones free, of their own job and of the jobs before it
    monkeypatch.setattr(cs, "_WIDTH", width)
    cfg = SearchConfig(starts=starts, max_evals=300)
    states = [evolve_global(0.8, 0.4, "ad"), evolve_global(0.6, 0.3, "pd"),
              evolve_global(1.0, 0.9, "ad")]
    qubits = [[(0,), (1,), (2,), (3,)]] * len(states)
    cuts = [cut.cells() for cut in all_bipartitions(4) if len(cut.mask) == 2]
    # cell dimensions (2, 2, 2, 2), (4, 4), (2, 8), (8, 2), then qubits again
    mixed = [[(0,), (1,), (2,), (3,)], [(0, 2), (1, 3)], [(1,), (0, 2, 3)],
             [(0, 1, 3), (2,)], [(3,), (2,), (1,), (0,)]]
    mixed_states = [states[j % len(states)] for j in range(len(mixed))]
    for rhos, partitions in ((states, qubits), ([states[1]] * len(cuts), cuts),
                             (mixed_states, mixed)):
        batch = cs.closest_classical_states(rhos, partitions, cfg)
        lone = [closest_classical_state(rho, cells, cfg) for rho, cells in zip(rhos, partitions)]
        assert [_fields(res) for res in batch] == [_fields(res) for res in lone]


def test_the_public_searches_memoize_nothing(search_cells):
    """Only the quantifiers memoize searches on a state.  The benchmark's
    cut_search workload runs the same state objects in every block, so a
    memo here would turn every block after the first into lookups."""
    rho = evolve_global(0.7, 0.4, "pd")
    cfg = SearchConfig(starts=1, max_evals=40)
    cells = [(0, 1), (2, 3)]
    first = closest_classical_state(rho, cells, cfg)
    cs.closest_classical_states([rho], [cells], cfg)
    assert search_cells == [2, 2]
    assert not [key for key in rho._memo if isinstance(key, tuple) and key[0] == "search"]
    assert closest_classical_state(rho, cells, cfg) is not first


def test_the_first_start_within_the_tie_of_the_best_wins(monkeypatch):
    """The search's rule is the witnesses' rule: the first start within
    1e-12 of the best wins, with its own q.  Under the earlier rule, a
    later start had to beat the running best by 1e-12, which picked start 2."""
    rho = werner_state(0.5)
    x = 0.75
    values = [x, x - 0.9e-12, x - 1.8e-12]
    monkeypatch.setattr(cs, "_entropy_bits", lambda p: values[int(p[0])])
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    unitaries = [[I2, I2], [hadamard, I2], [I2, hadamard]]
    # fresh complex unitaries per start, as the search's own outcomes hold
    outcomes = [(np.array([k]), [np.array(u, dtype=complex) for u in us], 0.5 + k, 10 + k)
                for k, us in enumerate(unitaries)]
    res = cs._result(rho, [(0,), (1,)], outcomes)
    assert res.q == values[1] - von_neumann_entropy(rho)
    assert [u.tobytes() for u in res.basis.unitaries] == [
        np.asarray(u, dtype=complex).tobytes() for u in unitaries[1]]
    assert res.grad_norm == 1.5 and res.evals == 33
    # the winner's value lies within the tie of the optimum, so a NaN never
    # wins unless it is the optimum, which goes to the first item
    nan = float("nan")
    assert cs._optimum(min, [0.5, nan, 0.3], "abc") == (0.3, "c")
    assert cs._optimum(max, [0.5, nan, 0.7], "abc") == (0.7, "c")
    best, item = cs._optimum(min, [nan, 0.5, 0.3], "abc")
    assert math.isnan(best) and item == "a"
    assert cs._optimum(max, [0.5, math.inf, math.inf], "abc") == (math.inf, "b")


def _unitarity_deviation(basis) -> float:
    """max |U†U - I| over the cell unitaries of a basis."""
    return max(np.abs(u.conj().T @ u - np.eye(len(u))).max() for u in basis.unitaries)


def test_a_search_that_ends_at_max_evals_returns_a_unitary_basis():
    # the result basis skips LocalBasisSet's unitarity check, so this holds
    # by construction: each step multiplies a cell unitary by unitary factors
    res = closest_classical_state(evolve_global(0.8, 0.25, "pd"), [(0, 2), (1, 3)],
                                  SearchConfig(starts=1, max_evals=30))
    assert res.evals == 30 and res.grad_norm > GRAD_TOL
    assert _unitarity_deviation(res.basis) <= 1e-12
    assert res.basis.cells == ((0, 2), (1, 3))
    assert not any(u.flags.writeable for u in res.basis.unitaries)


def test_a_q_c_row_does_not_recheck_its_searches_output(monkeypatch):
    """A Q/C row's searches build their result bases unchecked, and the
    search and the C columns take the Shannon entropies of the searches'
    own outcome distributions without shannon's checks: the row makes no
    LocalBasisSet.__init__ call and no shannon call.  The public
    LocalBasisSet(...), shannon and quantumness_in_basis keep their checks
    (see the rejection tests above)."""
    calls = []
    init = cs.LocalBasisSet.__init__

    def counting_init(self, *args):
        calls.append("LocalBasisSet")
        init(self, *args)

    def counting(f):
        return lambda *args: calls.append("shannon") or f(*args)

    monkeypatch.setattr(cs.LocalBasisSet, "__init__", counting_init)
    for module in (gencorr, entropy, cs, gc, experiments):
        if hasattr(module, "shannon"):
            monkeypatch.setattr(module, "shannon", counting(module.shannon))
    values, flags = evaluate_measures(evolve_global(0.6, 0.3, "pd"), ("Q4", "Q3", "C4", "C3"),
                                      SearchConfig(starts=2))
    assert not flags and all(math.isfinite(v) for v in values.values())
    assert calls == []
    cs.quantumness_in_basis(PLUS, computational_basis((2,)))  # the counters count
    assert calls == ["LocalBasisSet", "shannon"]


def test_batched_searches_need_one_partition_per_state():
    rho = evolve_global(0.8, 0.4, "ad")
    with pytest.raises(ValueError):
        cs.closest_classical_states([rho, rho], [[(0, 1), (2, 3)]])
    assert cs.closest_classical_states([], []) == []


def test_a_lane_search_draws_each_starts_unitaries_once(monkeypatch):
    # start k's unitaries depend only on rng_seed + k and the cell
    # dimensions, so every job of a lane search shares them; starts below
    # 2**m of m qubit cells are Z/X products and draw nothing
    drawn = []
    draw = cs.random_unitary
    monkeypatch.setattr(cs, "random_unitary", lambda d, rng: drawn.append(d) or draw(d, rng))
    rhos = [evolve_global(0.8, 0.4, "ad"), evolve_global(0.6, 0.3, "pd"),
            evolve_global(1.0, 0.9, "ad")]
    cs.closest_classical_states(rhos, [[(0,), (1,), (2,), (3,)]] * len(rhos),
                                SearchConfig(starts=3, max_evals=100))
    assert drawn == []
    triples = [partial_trace(rho, (0, 1, 2)) for rho in rhos]
    cs.closest_classical_states(triples, [[(0,), (1,), (2,)]] * len(triples),
                                SearchConfig(starts=10, max_evals=100))
    assert drawn == [2] * 6  # starts 8 and 9, one draw per qubit cell
    drawn.clear()
    cs.closest_classical_states(rhos, [[(0, 2), (1, 3)]] * len(rhos),
                                SearchConfig(starts=3, max_evals=100))
    assert drawn == [4, 4] * 2  # starts 1 and 2, one draw per cell


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize("c", [0.2, 0.6, 1.0])
@pytest.mark.parametrize("p", [0.1, 0.37, 0.8])
def test_every_z_x_start_is_stationary_under_amplitude_damping(c, p):
    # on amplitude-damped states every Z/X product basis is already
    # stationary, so each of the 16 starts stops after one evaluation
    res = closest_classical_state(evolve_global(c, p, "ad"), QUBIT_CELLS, SearchConfig(starts=16))
    assert res.evals == 16


def test_a_z_x_start_reaches_the_q3_optimum_start_0_misses():
    # on triple (0, 1, 2) of the ad c = 1, p = 0.025 state, start 5 (Hadamard
    # on cells 0 and 2, qubits a and b) wins, 4.58e-3 below start 0
    triple = partial_trace(evolve_global(1.0, 0.025, "ad"), (0, 1, 2))
    cells = [(0,), (1,), (2,)]
    res = closest_classical_state(triple, cells, SearchConfig(starts=8))
    assert res.q == pytest.approx(1.0671368789749802, rel=0, abs=1e-12)
    first = closest_classical_state(triple, cells, SearchConfig(starts=1))
    assert first.q - res.q == pytest.approx(4.58e-3, abs=5e-6)
    assert [u.tobytes() for u in res.basis.unitaries] == [
        u.tobytes() for u in (HADAMARD, I2, HADAMARD)]
    # its mirror under the amplitude-damping duality p <-> 1 - p
    mirror = partial_trace(evolve_global(1.0, 0.975, "ad"), (0, 1, 3))
    assert closest_classical_state(mirror, cells, SearchConfig(starts=8)).q == pytest.approx(
        res.q, rel=0, abs=1e-12)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=0)
    with pytest.raises(ValueError):
        SearchConfig(max_evals=0)
    with pytest.raises(ValueError, match="rng_seed"):
        SearchConfig(rng_seed=-2)
    # before, starts=True was accepted and its manifest read "starts": true
    for bad in (dict(starts=1.5), dict(max_evals=2.5), dict(rng_seed=0.5),
                dict(starts=True), dict(max_evals=True), dict(rng_seed=False)):
        with pytest.raises(ValueError):
            SearchConfig(**bad)
    assert SearchConfig().starts == 14
    assert SearchConfig(starts=5).starts == 5


# --- the LAPACK kernels the search calls directly ---

@pytest.mark.parametrize("lanes", [1, 128])
def test_search_lapack_kernels_equal_np_linalg_bit_for_bit(lanes):
    # the search calls the gufuncs behind np.linalg.eigh and np.linalg.inv
    rng = np.random.default_rng(lanes)
    x = rng.normal(size=(lanes, 2, 4, 4)) + 1j * rng.normal(size=(lanes, 2, 4, 4))
    w, v = cs._eigh(x)
    ref_w, ref_v = np.linalg.eigh(x)
    assert w.tobytes() == ref_w.tobytes() and v.tobytes() == ref_v.tobytes()
    r = np.triu(rng.normal(size=(lanes, 8, 8))) + 4 * np.eye(8)
    assert cs._inv(r).tobytes() == np.linalg.inv(r).tobytes()


@pytest.mark.parametrize("kernel", ["_eigh", "_inv"])
def test_a_lapack_failure_in_a_step_raises_linalg_error(kernel, monkeypatch):
    # a NaN matrix fails zheevd and a zero matrix is singular; without the
    # search's errstate the raw gufuncs would only warn
    raw = getattr(cs, kernel)
    fail = np.full_like if kernel == "_eigh" else np.zeros_like
    args = (np.nan,) if kernel == "_eigh" else ()
    monkeypatch.setattr(cs, kernel, lambda a: raw(fail(a, *args)))
    rho = evolve_global(0.85, 0.88, "ad")
    with pytest.raises(np.linalg.LinAlgError):
        closest_classical_state(rho, [(0, 2), (1, 3)], SearchConfig(starts=2))
