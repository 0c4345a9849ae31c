import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gencorr import (
    Bipartition,
    DensityMatrix,
    SearchConfig,
    SubsetSelection,
    all_bipartitions,
    closest_classical_state,
    degree_of,
    genuine_classical_Ck,
    genuine_classical_Cn,
    genuine_quantum_Qk,
    genuine_quantum_Qn,
    genuine_total_Ik,
    genuine_total_In,
    multipartite_quantum_Q,
    partial_trace,
    permute_subsystems,
    relative_entropy,
    tensor,
    total_correlation,
)
from gencorr.channels import evolve_global, psi_minus
from gencorr.states import (
    ghz,
    random_classical_state,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    w4,
)

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
            prod = tensor(left.mat, right.mat)
            dims = left.dims.dims + right.dims.dims  # ordering (c1..., c2...)
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


def test_subset_selection_validation():
    assert SubsetSelection((1, 3)).k == 2
    with pytest.raises(ValueError):
        SubsetSelection((3, 1))
    with pytest.raises(ValueError):
        SubsetSelection((2,))


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
    rho = DensityMatrix((2, 2, 2), tensor(sing.mat, np.eye(2) / 2))
    rep = genuine_total_In(rho)
    assert abs(rep.value_bits) <= 1e-12
    assert rep.witness.mask == (0, 1)


def test_In_matches_brute_force_on_random_states(rng):
    for _ in range(5):
        rho = random_density_matrix((2, 2, 2), rng)
        assert genuine_total_In(rho).value_bits == pytest.approx(
            brute_force_In(rho), abs=1e-9
        )


def test_In_requires_two_subsystems(rng):
    with pytest.raises(ValueError):
        genuine_total_In(random_density_matrix((4,), rng))


def test_Ik_of_ghz_triples():
    rep = genuine_total_Ik(ghz(4).to_density(), 3)
    assert rep.value_bits == pytest.approx(1.0, abs=1e-9)
    assert rep.witness.indices == (0, 1, 2)  # first of the tied subsets


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


def test_In_with_symmetry_pruning_matches_full_enumeration():
    rho = evolve_global(0.7, 0.35, "ad")
    swap = ((2, 3, 0, 1),)
    full = genuine_total_In(rho)
    pruned = genuine_total_In(rho, swap)
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
    joint = DensityMatrix((2, 2, 2), tensor(rho.mat, sigma.mat))
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


def test_reports_count_the_starts_the_searches_ran(rng):
    # the budget passes what converged starts leave to further starts, so a
    # report counts more starts than cfg.starts per search
    rho = random_density_matrix((2, 2, 2), rng)
    cfg = SearchConfig(starts=2, max_evals=300)
    per_cut = [closest_classical_state(rho, cut.cells(), cfg).starts for cut in all_bipartitions(3)]
    assert genuine_quantum_Qn(rho, cfg).starts == sum(per_cut) > 2 * len(per_cut)
    assert genuine_quantum_Qk(rho, 3, cfg).starts == sum(per_cut)
    full = closest_classical_state(rho, [(0,), (1,), (2,)], cfg).starts
    assert multipartite_quantum_Q(rho, cfg).starts == full > 2


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


def test_Cn_of_product_state(rng):
    a = random_classical_state((2,), rng)
    b = random_classical_state((2,), rng)
    rho = DensityMatrix((2, 2), tensor(a.mat, b.mat))
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


# --- degrees ---

def test_degree_of_ghz_total():
    assert degree_of(ghz(4).to_density(), "total") == 4


def test_degree_of_ghz_quantum():
    cfg = SearchConfig(starts=2, max_evals=500, rng_seed=4)
    assert degree_of(ghz(4).to_density(), "quantum", cfg) == 4


def test_degree_of_product_state_is_one(rng):
    probs = np.outer(rng.dirichlet([2, 2]), rng.dirichlet([2, 2])).reshape(-1)
    rho = DensityMatrix((2, 2), np.diag(probs.astype(complex)))
    cfg = SearchConfig(starts=2, max_evals=300, rng_seed=4)
    assert degree_of(rho, "total") == 1
    assert degree_of(rho, "quantum", cfg) == 1
    assert degree_of(rho, "classical", cfg) == 1


def test_degree_of_rejects_unknown_kind(rng):
    with pytest.raises(ValueError):
        degree_of(random_density_matrix((2, 2), rng), "other")


# --- report plumbing ---

def test_report_json_schema():
    rep = genuine_total_In(ghz(4).to_density())
    doc = json.loads(rep.to_json())
    assert set(doc) == {"name", "value_bits", "witness", "evals"}
    assert doc["value_bits"] == pytest.approx(2.0)
    assert doc["witness"] == "[0]|[1, 2, 3]"
