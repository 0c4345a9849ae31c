import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import gencorr.entropy as entropy
from gencorr import (
    DensityMatrix,
    partial_trace,
    random_unitary,
    relative_entropy,
    shannon,
    total_correlation,
    von_neumann_entropy,
)
from gencorr.channels import evolve_global, psi_minus, werner_state
from gencorr.classical_search import closest_classical_state
from gencorr.entropy import (_eigvalsh, _entropies, _entropy_bits, _entropy_rows,
                             _spectra_errstate)
from gencorr.genuine_correlations import _total_Ins, genuine_total_Ik, genuine_total_In
from gencorr.linalg import DEFAULT_TOL
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


def _coherence_nan_ghz4() -> np.ndarray:
    """GHZ4 with NaN coherences at [0, 15] and [15, 0]: every proper
    reduction traces them out, so only a check of the state itself sees them."""
    mat = np.array(ghz(4).to_density().mat)
    mat[0, 15] = mat[15, 0] = np.nan
    return mat


def test_a_spectrum_lapack_cannot_compute_raises_linalgerror():
    """A failed eigensolver, or a matrix with a NaN entry, raises LinAlgError,
    with no RuntimeWarning on the way, and memoizes no spectrum or entropy of
    the state or of any reduction it took, whether the quantifier asks
    _entropies for one spectrum or for a batch of them.  A quantifier that
    reads only reductions (genuine_total_Ik) raises too: the state is
    checked before its first reduction."""
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
        for mat in (np.full((16, 16), np.nan, dtype=complex), _one_nan_ghz4(),
                    _coherence_nan_ghz4()):
            cases.append((quantifier, DensityMatrix._derived((2,) * 4, mat)))
    for quantifier, rho in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(np.linalg.LinAlgError):
                    quantifier(rho)
        states = [rho, *(v for v in rho._memo.values() if isinstance(v, DensityMatrix))]
        assert [sorted({"eig", "S"} & set(state._memo)) for state in states] == [[]] * len(states)


@pytest.mark.parametrize("bad_first", [False, True], ids=["good-bad", "bad-good"])
@pytest.mark.parametrize("bad_mat", [_one_nan_ghz4, _coherence_nan_ghz4])
def test_a_mixed_batch_memoizes_nothing_when_it_raises(bad_mat, bad_first):
    """A batch of I_n with one state that has a non-finite entry raises
    LinAlgError and leaves no spectrum, entropy or report on either state;
    the good state alone then gets its lone value."""
    good = evolve_global(0.6, 0.3, "ad")
    bad = DensityMatrix._derived((2,) * 4, bad_mat())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _total_Ins([bad, good] if bad_first else [good, bad])
    assert [{"eig", "S", "I_n"} & set(state._memo) for state in (good, bad)] == [set(), set()]
    assert repr(_total_Ins([good])) == repr([genuine_total_In(evolve_global(0.6, 0.3, "ad"))])


def test_a_batch_whose_last_side_fails_memoizes_nothing(monkeypatch):
    """An eigensolver failure on the qubit cells, the last matrix side of a
    row's batch, raises and leaves no spectrum on the states whose sides
    (16 and 8) had already succeeded."""
    def failing(stack, **kwargs):
        if stack.shape[-1] == 2:
            raise np.linalg.LinAlgError("failed on the qubit side")
        return _eigvalsh(stack, **kwargs)

    rho = evolve_global(0.6, 0.3, "ad")
    states = [rho, partial_trace(rho, (0, 1, 2)), partial_trace(rho, (0, 1, 3))]
    monkeypatch.setattr(entropy, "_eigvalsh", failing)
    with pytest.raises(np.linalg.LinAlgError):
        _total_Ins(states)
    assert [{"eig", "S", "I_n"} & set(state._memo) for state in states] == [set()] * 3


# spectrum entries: exact 0 and 1, entries at, below and just above clip
# (negative ones too), a few values that make ties, and any in [0, 1]
_EIGENVALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, DEFAULT_TOL.clip, DEFAULT_TOL.clip / 2,
                     2 * DEFAULT_TOL.clip, -DEFAULT_TOL.clip, 0.5, 0.25, 0.125]),
    st.floats(0.0, 1.0),
)


@given(w=arrays(np.float64, st.tuples(st.integers(1, 6), st.sampled_from([2, 4])),
                elements=_EIGENVALUES))
@settings(max_examples=300, deadline=None)
def test_the_entropies_of_a_stack_are_those_of_its_rows(w):
    """_entropy_rows gives each row's _entropy_bits bit for bit, the sign of
    a zero included."""
    with _spectra_errstate():
        rows = _entropy_rows(w)
        assert [repr(float(s)) for s in rows] == [repr(_entropy_bits(row)) for row in w]


@pytest.mark.parametrize("kind,c,p", [("ad", 0.6, 0.3), ("pd", 1.0, 1.0), ("ad", 0.2, 0.0)])
def test_batched_spectra_are_the_bytes_of_one_by_one_calls(kind, c, p):
    """_entropies memoizes on each state the spectrum bytes of its own
    eigvalsh call and the entropy _entropy_bits takes of them, on an evolved
    state and every proper reduction of it (matrix sides 2 to 16)."""
    rho = evolve_global(c, p, kind)
    subsets = [s for k in range(1, 4) for s in itertools.combinations(range(4), k)]
    states = [rho, *(partial_trace(rho, s) for s in subsets)]
    with _spectra_errstate():
        alone = [_eigvalsh(state.mat, signature="D->d") for state in states]
    entropies = _entropies(states)
    for state, w, s in zip(states, alone, entropies):
        assert state._memo["eig"].tobytes() == w.tobytes()
        assert not state._memo["eig"].flags.writeable
        assert repr(state._memo["S"]) == repr(s) == repr(_entropy_bits(w))


@pytest.mark.parametrize("quantifier", [von_neumann_entropy, total_correlation])
def test_a_quantifier_memoizes_each_spectrum_with_its_entropy(quantifier):
    """Every state that von_neumann_entropy or total_correlation touches (the
    state, and the one-qubit marginals of total_correlation) keeps its
    spectrum ("eig") with the entropy ("S") of it, and the value is read off
    those spectra."""
    rho = evolve_global(0.6, 0.3, "ad")
    value = quantifier(rho)
    marginals = [v for v in rho._memo.values() if isinstance(v, DensityMatrix)]
    assert len(marginals) == (4 if quantifier is total_correlation else 0)
    s = [_entropy_bits(state._memo["eig"]) for state in (rho, *marginals)]
    assert [repr(state._memo["S"]) for state in (rho, *marginals)] == list(map(repr, s))
    assert repr(value) == repr(sum(s[1:]) - s[0] if marginals else s[0])


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
