import math

import numpy as np
import pytest

import gencorr.channels as channels
from gencorr import (
    DensityMatrix,
    kron_all,
    partial_trace,
    permute_subsystems,
    von_neumann_entropy,
)
from gencorr.channels import (
    GLOBAL_DIMS,
    SWAP_SYMMETRY,
    KrausChannel,
    amplitude_damping_kraus,
    appendix_golden_state,
    dilation,
    evolve_global,
    iota_ad,
    iota_pd,
    phase_damping_kraus,
    psi_minus,
    upsilon_ad,
    upsilon_pd,
    werner_state,
)
from gencorr.states import w4
from random_states import random_density_matrix

KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


# --- Kraus forms ---

def test_amplitude_damping_limits():
    ch = amplitude_damping_kraus(0.0)
    assert np.allclose(ch.operators[0], np.eye(2))
    assert np.allclose(ch.operators[1], 0.0)
    assert np.allclose(amplitude_damping_kraus(1.0).apply(KET1), np.diag([1.0, 0.0]))


def test_amplitude_damping_half_decay():
    out = amplitude_damping_kraus(0.5).apply(KET1)
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-15)


def test_phase_damping_full_dephasing():
    assert np.allclose(phase_damping_kraus(1.0).apply(PLUS), np.eye(2) / 2, atol=1e-15)


def test_phase_damping_preserves_populations(rng):
    for p in (0.2, 0.6, 0.9):
        rho = random_density_matrix((2,), rng).mat
        out = phase_damping_kraus(p).apply(rho)
        assert np.allclose(np.diag(out), np.diag(rho), atol=1e-14)


def test_phase_damping_off_diagonal_decay():
    out = phase_damping_kraus(0.75).apply(PLUS)
    assert out[0, 1] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("maker", [amplitude_damping_kraus, phase_damping_kraus])
def test_kraus_completeness_on_dense_grid(maker):
    for p in np.linspace(0.0, 1.0, 101):
        ch = maker(p)
        acc = sum(k.conj().T @ k for k in ch.operators)
        assert np.abs(acc - np.eye(2)).max() <= 1e-12


def test_kraus_channel_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2) * 0.5,), "ad", 0.1)


@pytest.mark.parametrize("ops, shapes", [
    ([], "[]"),
    ([np.eye(2), np.eye(3)], "[(2, 2), (3, 3)]"),
    ([np.ones((2, 3))], "[(2, 3)]"),
    ([np.ones(2)], "[(2,)]"),
], ids=["empty", "mixed-shapes", "not-square", "vector"])
def test_kraus_channel_rejects_a_malformed_operator_list(ops, shapes):
    # before, [] raised IndexError and mixed shapes numpy's broadcast error
    with pytest.raises(ValueError) as err:
        KrausChannel(ops, "x", 0.0)
    assert str(err.value) == f"Kraus operators must share one square shape, got shapes {shapes}"


def test_kraus_channel_copies_its_operators():
    k0 = np.eye(2, dtype=complex)
    channel = KrausChannel([k0], "id", 0.0)
    assert k0.flags.writeable and not channel.operators[0].flags.writeable
    k0[0, 0] = 5.0
    assert channel.operators[0][0, 0] == 1.0


def test_damping_parameter_range():
    with pytest.raises(ValueError):
        amplitude_damping_kraus(1.5)
    with pytest.raises(ValueError):
        phase_damping_kraus(-0.1)


# --- dilation ---

@pytest.mark.parametrize("maker", [amplitude_damping_kraus, phase_damping_kraus])
def test_dilation_reproduces_operator_sum(maker, rng):
    for p in (0.0, 0.3, 0.7, 1.0):
        ch = maker(p)
        u = dilation(ch.label, ch.p)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12
        for _ in range(5):
            rho = random_density_matrix((2,), rng).mat
            env = np.zeros((2, 2), dtype=complex)
            env[0, 0] = 1.0
            big = u @ np.kron(rho, env) @ u.conj().T
            red = np.einsum("abcb->ac", big.reshape(2, 2, 2, 2))
            assert np.abs(red - ch.apply(rho)).max() <= 1e-12


def test_phase_dilation_full_excitation():
    u = dilation("pd", 1.0)
    ket10 = np.array([0, 0, 1, 0], dtype=complex)
    out = u @ ket10
    expected = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(out, expected, atol=1e-15)


def test_dilation_rejects_unsupported_channel():
    with pytest.raises(ValueError):
        dilation("xx", 0.5)
    with pytest.raises(ValueError):
        dilation("ad", 1.5)


# --- Werner state ---

def test_werner_limits():
    assert np.allclose(werner_state(0.0).mat, np.eye(4) / 4)
    sing = psi_minus().vec
    assert np.allclose(werner_state(1.0).mat, np.outer(sing, sing.conj()))


@pytest.mark.parametrize("c", [0.1, 1 / 3, 0.6, 1.0])
def test_werner_spectrum(c):
    w = np.linalg.eigvalsh(np.asarray(werner_state(c).mat))
    expected = sorted([(1 + 3 * c) / 4] + [(1 - c) / 4] * 3)
    assert np.allclose(w, expected, atol=1e-12)


def test_werner_parameter_range():
    with pytest.raises(ValueError):
        werner_state(1.2)


# --- global evolution ---

def test_evolution_is_identity_at_p_zero():
    for kind in ("ad", "pd"):
        rho = evolve_global(0.37, 0.0, kind)
        env = np.zeros((2, 2), dtype=complex)
        env[0, 0] = 1.0
        expected = np.kron(np.kron(np.asarray(werner_state(0.37).mat), env), env)
        expected = permute_subsystems(expected, (2, 2, 2, 2), (0, 2, 1, 3))
        assert np.abs(np.asarray(rho.mat) - expected).max() <= 1e-15


def _evolve_uncached(c, p, kind):
    """evolve_global's arithmetic with every step rebuilt: the reference
    for the initial states that evolve_global builds once per c."""
    vac = np.zeros((2, 2), dtype=complex)
    vac[0, 0] = 1.0
    rho0 = kron_all([werner_state(c).mat, vac, vac])
    rho0 = permute_subsystems(rho0, (2, 2, 2, 2), (0, 2, 1, 3))
    u = np.kron(dilation(kind, p), dilation(kind, p))
    return u @ rho0 @ u.conj().T


def _assert_evolved_bytes_match_uncached():
    for kind in ("ad", "pd"):
        for c in (0, 0.3, 1.0, 1):
            for p in (0.0, 0.37, 1.0):
                mat, ref = evolve_global(c, p, kind).mat, _evolve_uncached(c, p, kind)
                assert mat.dtype == ref.dtype and mat.shape == ref.shape
                assert mat.tobytes() == ref.tobytes()


def test_evolved_states_match_an_uncached_construction_byte_for_byte():
    channels._initial_state.cache_clear()
    _assert_evolved_bytes_match_uncached()
    assert channels._initial_state.cache_info().currsize == 3  # 1 and 1.0 share a state
    for c in np.linspace(0.0, 1.0, 37):  # other c values fill the cache
        evolve_global(c, 0.5, "ad")
    _assert_evolved_bytes_match_uncached()


def test_the_cached_initial_state_is_read_only():
    rho0 = channels._initial_state(0.3)
    assert not rho0.flags.writeable
    with pytest.raises(ValueError):
        rho0[0, 0] = 1.0
    assert channels._initial_state(0.3) is rho0
    assert channels._initial_state.cache_info().maxsize is not None  # bounded


@pytest.mark.parametrize("c", [1.5, -0.1, math.nan])
def test_a_bad_werner_parameter_raises_on_every_call_and_is_never_cached(c):
    evolve_global(0.5, 0.5, "ad")
    size = channels._initial_state.cache_info().currsize
    for _ in range(3):
        for kind in ("ad", "pd"):
            with pytest.raises(ValueError, match="Werner parameter"):
                evolve_global(c, 0.2, kind)
    assert channels._initial_state.cache_info().currsize == size


def test_amplitude_endpoint_is_w_state():
    rho = evolve_global(1.0, 0.5, "ad")
    target = w4().to_density()
    assert np.abs(np.asarray(rho.mat) - np.asarray(target.mat)).max() <= 1e-12


def test_phase_endpoint_is_ghz_class_state():
    rho = evolve_global(1.0, 1.0, "pd")
    ups = upsilon_pd(1.0).vec
    assert np.abs(np.asarray(rho.mat) - np.outer(ups, ups.conj())).max() <= 1e-12


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_evolution_matches_golden_construction(kind):
    for c in np.linspace(0.0, 1.0, 5):
        for p in np.linspace(0.0, 1.0, 5):
            dev = np.linalg.norm(
                np.asarray(evolve_global(c, p, kind).mat)
                - np.asarray(appendix_golden_state(c, p, kind).mat)
            )
            assert dev <= 1e-10


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_environment_trace_gives_local_operator_sum(kind):
    maker = amplitude_damping_kraus if kind == "ad" else phase_damping_kraus
    for c, p in ((0.3, 0.4), (0.8, 0.9), (1.0, 0.2)):
        ch = maker(p)
        rho_w = np.asarray(werner_state(c).mat)
        expected = sum(
            np.kron(ki, kj) @ rho_w @ np.kron(ki, kj).conj().T
            for ki in ch.operators
            for kj in ch.operators
        )
        reduced = partial_trace(evolve_global(c, p, kind), (0, 2))
        assert np.abs(np.asarray(reduced.mat) - expected).max() <= 1e-12


def test_systems_fully_decay_under_amplitude_noise():
    vac = np.zeros((4, 4))
    vac[0, 0] = 1.0
    for c in (0.2, 1.0):
        systems = partial_trace(evolve_global(c, 1.0, "ad"), (0, 2))
        assert np.abs(np.asarray(systems.mat) - vac).max() <= 1e-12


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_pure_input_stays_pure(kind):
    for p in np.linspace(0.0, 1.0, 7):
        assert von_neumann_entropy(evolve_global(1.0, p, kind)) <= 1e-9


def test_phase_noise_preserves_system_populations():
    for p in (0.15, 0.65):
        rho_ab = partial_trace(evolve_global(0.8, p, "pd"), (0, 2))
        assert np.allclose(
            np.diag(np.asarray(rho_ab.mat)),
            np.diag(np.asarray(werner_state(0.8).mat)),
            atol=1e-12,
        )


# --- golden builders ---

def test_iota_ad_at_p_zero():
    expected = np.zeros((16, 16), dtype=complex)
    for i in (0, 2, 8, 10):
        expected[i, i] = 0.25
    assert np.abs(iota_ad(0.0) - expected).max() <= 1e-15


def test_iota_pd_at_p_one():
    expected = np.zeros((16, 16), dtype=complex)
    for i in (0, 3, 12, 15):
        expected[i, i] = 0.25
    assert np.abs(iota_pd(1.0) - expected).max() <= 1e-15


@pytest.mark.parametrize("builder", [iota_ad, iota_pd])
def test_iota_is_hermitian_unit_trace(builder):
    for p in np.linspace(0.0, 1.0, 11):
        m = builder(p)
        assert np.abs(m - m.conj().T).max() <= 1e-15
        assert abs(np.trace(m).real - 1.0) <= 1e-12


@pytest.mark.parametrize("builder", [upsilon_ad, upsilon_pd])
def test_upsilon_is_normalized(builder):
    for p in np.linspace(0.0, 1.0, 11):
        assert abs(np.linalg.norm(builder(p).vec) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_every_symmetry_of_an_evolved_state_leaves_it_unchanged(kind):
    """The swap the state carries is exact, bit for bit, on an 11 x 11 grid."""
    grid = np.linspace(0.0, 1.0, 11)
    for c in grid:
        for p in grid:
            rho = evolve_global(c, p, kind)
            assert rho.symmetries == SWAP_SYMMETRY
            for perm in rho.symmetries:
                assert np.array_equal(permute_subsystems(rho.mat, rho.dims, perm), rho.mat)


def test_golden_state_validates_as_density_matrix():
    rho = appendix_golden_state(0.42, 0.77, "ad")
    assert isinstance(rho, DensityMatrix)
    assert rho.dims == GLOBAL_DIMS
