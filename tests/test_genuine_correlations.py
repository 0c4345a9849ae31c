import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    Bipartition,
    DensityMatrix,
    SearchConfig,
    all_bipartitions,
    genuine_classical_Ck,
    genuine_classical_Cn,
    genuine_quantum_Qk,
    genuine_quantum_Qn,
    genuine_total_Ik,
    genuine_total_In,
    multipartite_quantum_Q,
    partial_trace,
    permute_subsystems,
    random_unitary,
    relative_entropy,
    total_correlation,
    von_neumann_entropy,
)
from gencorr.channels import evolve_global, psi_minus
from gencorr.classical_search import _optimum
from gencorr.genuine_correlations import (CorrelationReport, _cuts, _one_cell_each, _searches,
                                          _subsets, _total_Ins)
from gencorr.states import ghz, w4
from random_states import random_classical_state, random_density_matrix, random_pure_state

# honest reference values for the W-class state (|0001>+|0010>-|0100>-|1000>)/2:
# the minimizing cut isolates a single qubit, whose marginal has spectrum
# (3/4, 1/4), so I4 = 2*H(1/4); every 3-party reduction has all three cut
# mutual informations equal to 1.
I4_W4 = 1.6225562489182657
I3_W4 = 1.0


def brute_force_In(rho: DensityMatrix) -> float:
    """Independent oracle: direct relative entropy to each cut's marginal product."""
    n = rho.n
    best = np.inf
    for r in range(1, n):
        for c1 in itertools.combinations(range(n), r):
            if 0 not in c1:
                continue
            c2 = tuple(i for i in range(n) if i not in c1)
            left = partial_trace(rho, c1)
            right = partial_trace(rho, c2)
            prod = np.kron(left.mat, right.mat)
            dims = left.dims + right.dims  # ordering (c1..., c2...)
            perm = list(c1) + list(c2)
            prod = permute_subsystems(prod, dims, list(np.argsort(perm)))
            target = DensityMatrix(rho.dims, prod)
            best = min(best, relative_entropy(rho, target))
    return best


# --- bipartition bookkeeping ---

@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 7), (5, 15)])
def test_bipartition_count(n, count):
    cuts = all_bipartitions(n)
    assert len(cuts) == count
    assert all(0 in cut.mask for cut in cuts)
    assert len({cut.mask for cut in cuts}) == count


def test_bipartition_canonicalizes_to_contain_first_subsystem():
    cut = Bipartition((2, 3), 4)
    assert cut.mask == (0, 1)
    with pytest.raises(ValueError):
        Bipartition((), 3)
    with pytest.raises(ValueError):
        Bipartition((0, 1, 2), 3)


@pytest.mark.parametrize("mask", [("1",), (1.5,), (0, None), (True,), (np.True_, 2)],
                         ids=["string", "fraction", "none", "bool", "numpy-bool"])
def test_bipartition_rejects_indices_that_are_not_integers(mask):
    # before, ("1",) was the cut [0, 2]|[1] and (1.5,) the cut [0]|[1, 2]
    with pytest.raises(ValueError, match="is not an integer"):
        Bipartition(mask, 3)
    assert Bipartition((1.0, np.int64(2)), 3).mask == (0,)


@pytest.mark.parametrize("n", [2.7, True, "3", None, np.True_],
                         ids=["fraction", "bool", "string", "none", "numpy-bool"])
def test_bipartition_rejects_an_n_that_is_not_an_integer(n):
    # before, Bipartition((0,), 2.7) was Bipartition(mask=(0,), n=2), and
    # np.True_ read as n = 1
    with pytest.raises(ValueError, match="is not an integer"):
        Bipartition((0,), n)


@pytest.mark.parametrize("n", [3.0, np.int64(3)], ids=["float", "numpy"])
def test_bipartition_takes_an_integral_n(n):
    cut = Bipartition((1,), n)
    assert cut == Bipartition((1,), 3) and type(cut.n) is int
    assert repr(cut) == "Bipartition(mask=(0, 2), n=3)"


@pytest.mark.parametrize("mask", [(1, 1), (0, 0, 1), (2, 2.0)], ids=["pair", "with-zero", "spelled-twice"])
def test_bipartition_rejects_a_repeated_mask_index(mask):
    # before, (1, 1) over 3 subsystems was the cut [0, 2]|[1]
    with pytest.raises(ValueError, match="duplicate subsystem indices"):
        Bipartition(mask, 3)


def test_bipartition_equality_hash_and_repr_go_by_mask_and_n():
    cut = Bipartition((2, 3), 4)
    assert cut.complement == (2, 3) and cut.cells() == ((0, 1), (2, 3))
    twin = Bipartition((0, 1), 4)
    assert cut == twin and hash(cut) == hash(twin) == hash(((0, 1), 4))
    assert repr(cut) == repr(twin) == "Bipartition(mask=(0, 1), n=4)"
    assert cut != Bipartition((0, 1), 5) and cut != Bipartition((0,), 4)
    assert [f.name for f in dataclasses.fields(cut)] == ["mask", "n"]
    assert {cut: 1}[twin] == 1


# --- genuine total correlations ---

def test_I4_of_ghz_is_two():
    rep = genuine_total_In(ghz(4).to_density())
    assert rep.value_bits == pytest.approx(2.0, abs=1e-9)


def test_I4_of_w_state_frozen_value_and_oracle():
    rho = w4().to_density()
    rep = genuine_total_In(rho)
    assert rep.value_bits == pytest.approx(I4_W4, abs=1e-9)
    assert rep.value_bits == pytest.approx(brute_force_In(rho), abs=1e-9)
    assert rep.witness.mask in ((0,), (1,), (2,), (3,))


def test_In_zero_across_product_cut(rng):
    sing = psi_minus().to_density()
    rho = DensityMatrix((2, 2, 2), np.kron(sing.mat, np.eye(2) / 2))
    rep = genuine_total_In(rho)
    assert abs(rep.value_bits) <= 1e-12
    assert rep.witness.mask == (0, 1)


def test_In_matches_brute_force_on_random_states(rng):
    for _ in range(5):
        rho = random_density_matrix((2, 2, 2), rng)
        assert genuine_total_In(rho).value_bits == pytest.approx(
            brute_force_In(rho), abs=1e-9
        )


@pytest.mark.parametrize("batched", [False, True], ids=["one-by-one", "row-batch"])
@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_In_is_the_lone_path_by_repr_on_evolved_states_and_triples(kind, batched):
    """genuine_total_In, one state at a time or in one row batch (where the
    triple (0, 1, 2) is a cell of the state), gives every evolved state and
    triple the minimum and witness that the cuts' S(rho_A) + S(rho_B) - S(rho),
    taken through partial_trace and von_neumann_entropy, give, by repr."""
    for c, p in itertools.product((0.3, 1.0), (0.0, 0.37, 1.0)):
        rho = evolve_global(c, p, kind)
        triples = [partial_trace(rho, t) for t in itertools.combinations(range(4), 3)]
        if batched:
            reports = _total_Ins([rho, *triples])
        else:
            reports = [genuine_total_In(state) for state in (rho, *triples)]
        for state, rep in zip((rho, *triples), reports):
            cuts = _cuts(state.n, state.symmetries)
            values = [von_neumann_entropy(partial_trace(state, cut.mask))
                      + von_neumann_entropy(partial_trace(state, cut.complement))
                      - von_neumann_entropy(state) for cut in cuts]
            assert repr(rep) == repr(CorrelationReport(*_optimum(min, values, cuts)))


def test_In_requires_two_subsystems(rng):
    with pytest.raises(ValueError):
        genuine_total_In(random_density_matrix((4,), rng))


def test_Ik_of_ghz_triples():
    rep = genuine_total_Ik(ghz(4).to_density(), 3)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-9)
    assert rep.witness == (0, 1, 2)  # first of the tied subsets


def test_Ik_of_w_state_triples():
    rep = genuine_total_Ik(w4().to_density(), 3)
    assert rep.value_bits == pytest.approx(I3_W4, abs=1e-9)


def test_Ik_of_product_state_vanishes(rng):
    mats = [random_pure_state((2,), rng) for _ in range(4)]
    vec = mats[0].vec
    for m in mats[1:]:
        vec = np.kron(vec, m.vec)
    rho = DensityMatrix((2, 2, 2, 2), np.outer(vec, vec.conj()))
    for k in (2, 3, 4):
        assert abs(genuine_total_Ik(rho, k).value_bits) <= 1e-9


def test_Ik_range_validation(rng):
    rho = random_density_matrix((2, 2), rng)
    with pytest.raises(ValueError):
        genuine_total_Ik(rho, 1)
    with pytest.raises(ValueError):
        genuine_total_Ik(rho, 3)


def test_an_integral_float_k_is_that_integer_on_a_cold_cache():
    """k follows the index rule of partial_trace, whatever _subsets has cached."""
    _subsets.cache_clear()
    got = genuine_total_Ik(evolve_global(0.6, 0.3, "ad"), 3.0)
    assert got == genuine_total_Ik(evolve_global(0.6, 0.3, "ad"), 3)


@pytest.mark.parametrize("k", [2.5, "3", True], ids=["fraction", "text", "bool"])
def test_a_k_that_is_not_an_integer_raises_before_any_search(k, search_cells):
    rho = evolve_global(0.6, 0.3, "ad")
    for quantifier in (genuine_total_Ik, genuine_quantum_Qk, genuine_classical_Ck):
        with pytest.raises(ValueError, match="is not an integer"):
            quantifier(rho, k)
    assert search_cells == []


def test_In_with_symmetry_pruning_matches_full_enumeration():
    rho = evolve_global(0.7, 0.35, "ad")
    full = genuine_total_In(DensityMatrix(rho.dims, rho.mat))
    pruned = genuine_total_In(rho)
    assert pruned.value_bits == pytest.approx(full.value_bits, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_In_bounded_by_total_correlation(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2, 2), rng)
    assert genuine_total_In(rho).value_bits <= total_correlation(rho) + 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_appending_a_product_subsystem_creates_nothing(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2), rng)
    sigma = random_density_matrix((2,), rng)
    joint = DensityMatrix((2, 2, 2), np.kron(rho.mat, sigma.mat))
    rep = genuine_total_In(joint)
    assert abs(rep.value_bits) <= 1e-12
    assert rep.witness.mask == (0, 1)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_In_invariant_under_relabeling_and_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix((2, 2, 2), rng)
    base = genuine_total_In(rho).value_bits

    perm = tuple(rng.permutation(3))
    relabeled = DensityMatrix((2, 2, 2), permute_subsystems(rho.mat, (2, 2, 2), perm))
    assert abs(genuine_total_In(relabeled).value_bits - base) <= 1e-12

    u = np.eye(1, dtype=complex)
    for _ in range(3):
        u = np.kron(u, random_unitary(2, rng))
    rotated = DensityMatrix((2, 2, 2), u @ rho.mat @ u.conj().T)
    assert abs(genuine_total_In(rotated).value_bits - base) <= 1e-10


# --- genuine quantum correlations ---

def test_Qn_of_two_qubit_classical_state(rng):
    rho = random_classical_state((2, 2), rng)
    rep = genuine_quantum_Qn(rho, SearchConfig(starts=2, max_evals=400))
    assert rep.value_bits <= 1e-7


def test_Qn_of_singlet(fast_cfg):
    rep = genuine_quantum_Qn(psi_minus().to_density(), fast_cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-6)


def test_Qn_of_ghz4_over_grouped_cuts():
    # every cut of the pure GHZ4 has entanglement entropy 1, which bounds the
    # pinching entropy from below with equality in a Schmidt basis; the
    # computational start hits that basis exactly
    cfg = SearchConfig(starts=2, max_evals=600, rng_seed=1)
    rep = genuine_quantum_Qn(ghz(4).to_density(), cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-6)
    assert rep.witness in all_bipartitions(4)


def test_Qn_of_w4_is_attained_on_a_single_qubit_cut():
    # pure state: each cut gives its entanglement entropy, H2(1/4) across the
    # four 1|3 cuts and 1 across the three 2|2 cuts
    rep = genuine_quantum_Qn(w4().to_density(), SearchConfig(starts=2, rng_seed=0))
    h2 = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
    assert rep.value_bits == pytest.approx(h2, abs=1e-6)
    assert 1 in (len(rep.witness.mask), len(rep.witness.complement))


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_Qn_is_half_of_In_on_the_pure_c_one_states(kind):
    """At c = 1 the evolved state is pure, where each cut's Q is the
    entanglement entropy of its cells and Q_n = I_n / 2 (Modi et al.,
    PRL 104, 080501 (2010)): an independent check of the search and of I_n."""
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = evolve_global(1.0, p, kind)
        assert abs(genuine_quantum_Qn(rho).value_bits
                   - genuine_total_In(rho).value_bits / 2) <= 1e-9, p


def test_Qn_evals_is_the_sum_over_its_cut_searches(monkeypatch):
    import gencorr.genuine_correlations as gc

    results, batches = [], []
    search = gc.closest_classical_states

    def recording(rhos, partitions, cfg):
        out = search(rhos, partitions, cfg)
        results.extend(out)
        batches.append(len(out))
        return out

    monkeypatch.setattr(gc, "closest_classical_states", recording)
    rep = genuine_quantum_Qn(evolve_global(0.8, 0.4, "pd"))
    assert batches == [5]  # one call with a cut per swap class: 2|8, 4|4 and 8|2 alike
    assert rep.evals == sum(r.evals for r in results)
    assert rep.value_bits == min(r.q for r in results)


def test_Qk_ghz_triples_are_classical():
    cfg = SearchConfig(starts=4, max_evals=600, rng_seed=5)
    rep = genuine_quantum_Qk(ghz(4).to_density(), 3, cfg)
    assert rep.value_bits <= 1e-6


def test_Qk_w_triples_stay_quantum():
    cfg = SearchConfig(starts=4, max_evals=600, rng_seed=5)
    rep = genuine_quantum_Qk(w4().to_density(), 3, cfg)
    assert rep.value_bits > 0.01


def test_Qk_product_state_vanishes(rng):
    probs = np.outer(rng.dirichlet([1, 1]), rng.dirichlet([1, 1])).reshape(-1)
    rho = DensityMatrix((2, 2), np.diag(probs.astype(complex)))
    rep = genuine_quantum_Qk(rho, 2, SearchConfig(starts=2, max_evals=300))
    assert rep.value_bits <= 1e-7


# --- multipartite quantumness and classical correlations ---

def test_multipartite_Q_of_classical_state(rng):
    rho = random_classical_state((2, 2, 2), rng)
    rep = multipartite_quantum_Q(rho, SearchConfig(starts=2, max_evals=400))
    assert rep.value_bits <= 1e-7
    assert np.allclose(rep.chi.mat, rho.mat, atol=1e-9)


def test_multipartite_Q_of_singlet(fast_cfg):
    rep = multipartite_quantum_Q(psi_minus().to_density(), fast_cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-6)


def test_multipartite_Q_of_dephased_ghz_limit():
    # pd endpoint at c=1 is a GHZ-class pure state, so Q = 1 as for GHZ itself
    cfg = SearchConfig(starts=6, max_evals=1000, rng_seed=11)
    rep = multipartite_quantum_Q(evolve_global(1.0, 1.0, "pd"), cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-5)


def test_Qn_never_exceeds_per_subsystem_Q(rng):
    cfg = SearchConfig(starts=6, max_evals=800, rng_seed=3)
    rho = random_density_matrix((2, 2), rng, rank=2)
    qn = genuine_quantum_Qn(rho, cfg).value_bits
    q = multipartite_quantum_Q(rho, cfg).value_bits
    assert qn <= q + 1e-4


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_Qn_is_bounded_by_In_and_by_Q4_on_a_mixed_evolved_state(kind):
    """Dephasing each cell of a cut in the eigenbasis of its own marginal
    keeps both marginals, so that cut-classical state lies T - C <= T =
    I_cut away, and a product of qubit bases is a basis of every cut: so
    Q_n <= I_n and Q_n <= Q4, within the 1e-12 tie, at the default search
    (ad: 0.365148 < 0.643220 and 1.246439; pd: 0.365148 < 0.528037 and 1.181221)."""
    rho = evolve_global(0.6, 0.3, kind)
    qn = genuine_quantum_Qn(rho).value_bits
    assert qn <= genuine_total_In(rho).value_bits + 1e-12
    assert qn <= multipartite_quantum_Q(rho).value_bits + 1e-12


def test_Cn_of_product_state(rng):
    a = random_classical_state((2,), rng)
    b = random_classical_state((2,), rng)
    rho = DensityMatrix((2, 2), np.kron(a.mat, b.mat))
    rep = genuine_classical_Cn(rho, SearchConfig(starts=2, max_evals=300))
    assert abs(rep.value_bits) <= 1e-9


def test_Cn_of_singlet(fast_cfg):
    rep = genuine_classical_Cn(psi_minus().to_density(), fast_cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-6)


def test_Cn_of_ghz4():
    cfg = SearchConfig(starts=4, max_evals=800, rng_seed=2)
    rep = genuine_classical_Cn(ghz(4).to_density(), cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-6)


def test_Cn_equals_In_for_classical_states(rng):
    rho = random_classical_state((2, 2, 2), rng)
    rep = genuine_classical_Cn(rho, SearchConfig(starts=2, max_evals=300))
    assert rep.value_bits == pytest.approx(genuine_total_In(rho).value_bits, abs=1e-12)
    assert rep.value_bits >= -1e-9


def test_Ck_of_ghz4_triples():
    cfg = SearchConfig(starts=4, max_evals=800, rng_seed=2)
    rep = genuine_classical_Ck(ghz(4).to_density(), 3, cfg)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-6)


def test_Ck_of_product_state(rng):
    probs = np.ones(8) / 8
    rho = DensityMatrix((2, 2, 2), np.diag(probs.astype(complex)))
    rep = genuine_classical_Ck(rho, 2, SearchConfig(starts=2, max_evals=300))
    assert abs(rep.value_bits) <= 1e-9


def test_Ck_of_w_state_is_seed_stable():
    a = genuine_classical_Ck(w4().to_density(), 3, SearchConfig(starts=6, rng_seed=1))
    b = genuine_classical_Ck(w4().to_density(), 3, SearchConfig(starts=6, rng_seed=99))
    assert abs(a.value_bits - b.value_bits) <= 1e-3


def _assert_the_dense_oracle_agrees(rho, cfg):
    """C_n and C_k (k = 2, 3) against I_n and I_k of the dense chi, to 1e-12.

    Both paths name the same witness, since values within 1e-12 of the
    optimum tie and the first wins, and each witness attains the oracle's
    optimum.  The C path prunes chi's cuts by rho's symmetries, so the
    oracle runs on a copy of chi that carries them.
    """
    chi = multipartite_quantum_Q(rho, cfg).chi
    tagged = DensityMatrix._derived(chi.dims, chi.mat.copy(), rho.symmetries)
    s_chi = von_neumann_entropy(chi)
    rep, oracle = genuine_classical_Cn(rho, cfg), genuine_total_In(tagged)
    assert rep.chi is chi
    assert abs(rep.value_bits - oracle.value_bits) <= 1e-12
    assert rep.witness == oracle.witness
    at_witness = sum(von_neumann_entropy(partial_trace(chi, cell))
                     for cell in rep.witness.cells()) - s_chi
    assert abs(at_witness - oracle.value_bits) <= 1e-12
    for k in (2, 3):
        rep, oracle = genuine_classical_Ck(rho, k, cfg), genuine_total_Ik(tagged, k)
        assert abs(rep.value_bits - oracle.value_bits) <= 1e-12
        assert rep.witness == oracle.witness
        at_witness = genuine_total_In(partial_trace(tagged, rep.witness)).value_bits
        assert abs(at_witness - oracle.value_bits) <= 1e-12


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_C_from_outcomes_matches_the_dense_oracle_on_the_golden_grid(kind):
    cfg = SearchConfig()
    rhos = [evolve_global(c, p, kind) for c in (0.4, 1.0) for p in np.linspace(0, 1, 5)]
    rhos += [DensityMatrix(rho.dims, rho.mat) for rho in rhos]  # untagged: every cut
    _searches([(rho, _one_cell_each(rho.n)) for rho in rhos], cfg)  # one batched search
    for rho in rhos:
        _assert_the_dense_oracle_agrees(rho, cfg)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_C_from_outcomes_matches_the_dense_oracle_in_random_product_bases(dims, seed):
    rng = np.random.default_rng(seed)
    base = random_classical_state(dims, rng)
    u = np.array([[1.0 + 0j]])
    for d in dims:
        u = np.kron(u, random_unitary(d, rng))
    rho = DensityMatrix(dims, u @ base.mat @ u.conj().T)
    _assert_the_dense_oracle_agrees(rho, SearchConfig(starts=2, max_evals=300, rng_seed=seed))


# --- how many parties share the correlation ---

def test_ghz_total_correlation_is_genuinely_four_partite():
    assert genuine_total_Ik(ghz(4).to_density(), 4).value_bits > 1e-6


def test_ghz_quantum_correlation_is_genuinely_four_partite():
    cfg = SearchConfig(starts=2, max_evals=500, rng_seed=4)
    assert genuine_quantum_Qk(ghz(4).to_density(), 4, cfg).value_bits > 1e-6


def test_a_product_state_has_no_genuine_bipartite_correlation(rng):
    probs = np.outer(rng.dirichlet([2, 2]), rng.dirichlet([2, 2])).reshape(-1)
    rho = DensityMatrix((2, 2), np.diag(probs.astype(complex)))
    cfg = SearchConfig(starts=2, max_evals=300, rng_seed=4)
    assert genuine_total_Ik(rho, 2).value_bits <= 1e-6
    assert genuine_quantum_Qk(rho, 2, cfg).value_bits <= 1e-6
    assert genuine_classical_Ck(rho, 2, cfg).value_bits <= 1e-6


def test_classical_correlation_of_the_ad_endpoint_is_only_bipartite(search_cells):
    """C_k for every k reads one n-party search, and C_k of rho is I_k of
    its closest classical state chi."""
    rho = evolve_global(0.7, 1.0, "ad")
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    classical = [genuine_classical_Ck(rho, k, cfg).value_bits for k in (4, 3, 2)]
    assert search_cells == [4]
    chi = multipartite_quantum_Q(rho, cfg).chi
    total = [genuine_total_Ik(chi, k).value_bits for k in (4, 3, 2)]
    for values in (classical, total):
        assert [v > 1e-6 for v in values] == [False, False, True]


def test_the_qubit_cell_search_is_memoized_per_config(search_cells):
    rho = evolve_global(0.7, 0.4, "pd")
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    chi = multipartite_quantum_Q(rho, cfg).chi
    assert search_cells == [4]
    assert multipartite_quantum_Q(rho, cfg).chi is chi
    assert multipartite_quantum_Q(rho, SearchConfig(starts=1, max_evals=40, rng_seed=0)).chi is chi
    assert genuine_classical_Cn(rho, cfg).chi is chi
    assert genuine_classical_Ck(rho, 3, cfg).chi is chi
    assert genuine_classical_Ck(rho, 2, cfg).chi is chi
    assert search_cells == [4]
    other = SearchConfig(starts=1, max_evals=40, rng_seed=1)
    assert multipartite_quantum_Q(rho, other).chi is not chi
    assert search_cells == [4, 4]


def test_batched_searches_run_only_the_jobs_without_a_result(search_batches):
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    first, second = evolve_global(0.7, 0.4, "pd"), evolve_global(0.7, 0.6, "pd")
    cells = _one_cell_each(4)
    lone = multipartite_quantum_Q(first, cfg)
    found = _searches([(first, cells), (second, cells), (second, cells)], cfg)
    assert search_batches == [1, 1]  # the lone search, then second's alone
    assert found[0].chi is lone.chi and found[1] is found[2]
    fresh = DensityMatrix(second.dims, second.mat)
    assert multipartite_quantum_Q(fresh, cfg).value_bits == found[1].q


def test_a_repeated_job_is_searched_once(search_cells):
    rho = evolve_global(0.7, 0.4, "pd")
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    cut = ((0, 1), (2, 3))
    found = _searches([(rho, cut), (rho, _one_cell_each(4)), (rho, cut)], cfg)
    assert search_cells == [2, 4]
    assert found[0] is found[2]


def test_reordered_cells_are_another_search(search_cells):
    """The order of the cells picks the search's parametrization, so the
    result can differ in the last digits."""
    rho = evolve_global(0.85, 0.88, "ad")
    cfg = SearchConfig(starts=3)
    one, other = _searches([(rho, ((0,), (1, 2, 3))), (rho, ((1, 2, 3), (0,)))], cfg)
    assert search_cells == [2, 2]
    assert (one.q, other.q) == (0.3129525468620693, 0.3129525468620633)


@pytest.mark.parametrize("first", [
    lambda rho, cfg: genuine_quantum_Qn(rho, cfg),
    lambda rho, cfg: genuine_quantum_Qk(rho, rho.n, cfg),
])
def test_Qn_reads_the_memoized_cut_searches(first, search_batches):
    """A second Q_n, or Q_n after Q_k with k = n (whose one reduction is rho
    itself), runs no search."""
    rho = evolve_global(0.7, 0.4, "pd")
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    rep = first(rho, cfg)
    again = genuine_quantum_Qn(rho, cfg)
    assert search_batches == [5]  # one cut per swap class
    assert (again.value_bits, again.evals) == (rep.value_bits, rep.evals)


# --- report plumbing ---

def test_report_value_and_witness():
    rep = genuine_total_In(ghz(4).to_density())
    assert rep.value_bits == pytest.approx(2.0)
    assert rep.witness == Bipartition((0,), 4)


def test_reports_are_frozen():
    rep = genuine_total_In(ghz(4).to_density())
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.value_bits = 0.0
