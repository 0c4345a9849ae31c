"""Local decoherence channels and the evolved four-party system-environment states.

Two qubits a, b start in a Werner state and couple to independent vacuum
environments E_a, E_b through amplitude- or phase-damping.  Each channel is
carried both as a Kraus pair on the system qubit and as its unitary dilation
on (system, environment); evolving the global state with the two local
dilations reproduces, exactly, an explicit golden construction
(1-c) * iota(p) + c |Upsilon(p)><Upsilon(p)| whose matrix elements are
transcribed term by term below.

Subsystem ordering of the global state is (a, E_a, b, E_b); composite basis
indices are the big-endian binary numbers over that ordering, so e.g. index 2
is |0010> = |a=0, E_a=0, b=1, E_b=0>.  The environments are truncated to
single qubits: the dilations never populate more than one excitation, so the
truncation is exact.  Both subsystems share the same time parameter p
(identical environments), with p=0 the initial time and p=1 the asymptotic
limit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, PureState, _check_finite, kron_all, permute_subsystems

__all__ = [
    "KrausChannel",
    "amplitude_damping_kraus",
    "phase_damping_kraus",
    "dilation",
    "psi_minus",
    "werner_state",
    "evolve_global",
    "appendix_golden_state",
    "iota_ad",
    "iota_pd",
    "upsilon_ad",
    "upsilon_pd",
    "CHANNELS",
    "GLOBAL_DIMS",
    "SWAP_SYMMETRY",
]

CHANNELS = ("ad", "pd")  # amplitude and phase damping
GLOBAL_DIMS = (2, 2, 2, 2)  # (a, E_a, b, E_b)
# exact relabeling symmetry of the evolved states: (a,E_a) <-> (b,E_b)
SWAP_SYMMETRY = ((2, 3, 0, 1),)


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping parameter must lie in [0, 1], got {p}")
    return p


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving qubit channel as an operator list; equal by identity only.

    The operators are read-only copies, so the caller's arrays stay writable.
    """

    operators: tuple[np.ndarray, ...]
    label: str
    p: float

    def __init__(self, operators, label: str, p: float) -> None:
        ops = tuple(np.array(k, dtype=complex) for k in operators)
        shapes = sorted({k.shape for k in ops})
        if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
            raise ValueError(f"Kraus operators must share one square shape, got shapes {shapes}")
        for k in ops:
            _check_finite(k, "Kraus operator")
            k.setflags(write=False)
        d = ops[0].shape[0]
        comp = sum(k.conj().T @ k for k in ops)
        if not np.abs(comp - np.eye(d)).max() <= 1e-12:
            raise ValueError("Kraus operators do not satisfy sum K†K = I")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "p", float(p))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Operator-sum action sum_i K_i rho K_i† on a raw matrix."""
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.operators)


def amplitude_damping_kraus(p: float) -> KrausChannel:
    """Dissipative zero-temperature reservoir: |1> decays to |0> with weight p."""
    p = _check_p(p)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1), "ad", p)


def phase_damping_kraus(p: float) -> KrausChannel:
    """Pure dephasing: phase relations decay, populations are untouched."""
    p = _check_p(p)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, np.sqrt(p)]], dtype=complex)
    return KrausChannel((k0, k1), "pd", p)


def dilation(kind: str, p: float) -> np.ndarray:
    """4x4 unitary on (system, environment) that dilates the kind's channel.

    Basis order |00>, |01>, |10>, |11> over (s, E).  From |0_E>, amplitude
    damping ("ad") sends |1_s> to sqrt(1-p)|1_s 0_E> + sqrt(p)|0_s 1_E> and
    phase damping ("pd") sends it to |1_s>(sqrt(1-p)|0_E> + sqrt(p)|1_E>);
    |0_s 0_E> is fixed, and the |1_E> columns complete the unitary.
    """
    if kind not in CHANNELS:
        raise ValueError(f"channel kind must be 'ad' or 'pd', got {kind!r}")
    p = _check_p(p)
    a, b = np.sqrt(1.0 - p), np.sqrt(p)
    if kind == "ad":
        cols = [(1, 0, 0, 0), (0, a, -b, 0), (0, b, a, 0), (0, 0, 0, 1)]
    else:
        cols = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, a, b), (0, 0, -b, a)]
    return np.array(cols, dtype=complex).T


def psi_minus() -> PureState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return PureState((2, 2), v)


def werner_state(c: float) -> DensityMatrix:
    """(1-c) I/4 + c |psi-><psi-| with spectrum {(1+3c)/4, (1-c)/4 x3}."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {c}")
    sing = psi_minus().vec
    mat = (1.0 - c) * np.eye(4) / 4.0 + c * np.outer(sing, sing.conj())
    return DensityMatrix((2, 2), mat)


@functools.lru_cache(maxsize=256)
def _initial_state(c: float) -> np.ndarray:
    """Read-only werner(c) x |0_Ea><0_Ea| x |0_Eb><0_Eb| in the order
    (a, E_a, b, E_b), built once per distinct c; a c that raises is not cached."""
    vac = np.zeros((2, 2), dtype=complex)
    vac[0, 0] = 1.0
    rho0 = kron_all([werner_state(c).mat, vac, vac])  # ordering (a, b, E_a, E_b)
    rho0 = permute_subsystems(rho0, (2, 2, 2, 2), (0, 2, 1, 3))
    rho0.setflags(write=False)
    return rho0


def evolve_global(c: float, p: float, kind: str) -> DensityMatrix:
    """Four-party state after both qubits interact with their environments.

    Starts from werner(c) x |0_Ea><0_Ea| x |0_Eb><0_Eb|, reorders to
    (a, E_a, b, E_b) with permute_subsystems, and conjugates with the product
    of the two local dilation unitaries.  It carries SWAP_SYMMETRY.  The
    initial state is validated and built once per distinct float(c) and
    kept in a bounded cache, so a (channel, c) series pays for it once; a c
    outside [0, 1], or NaN, is never cached, so it raises on every call.
    """
    rho0 = _initial_state(float(c))
    u_local = dilation(kind, p)
    u = kron_all([u_local, u_local])
    return DensityMatrix._derived(GLOBAL_DIMS, u @ rho0 @ u.conj().T, SWAP_SYMMETRY)


def _close_hermitian(m: np.ndarray) -> np.ndarray:
    """Add the h.c. of the strictly off-diagonal part set above the diagonal."""
    return m + m.conj().T - np.diag(np.diag(m))


def iota_ad(p: float) -> np.ndarray:
    """Evolved white-noise part for amplitude damping, as a 16x16 matrix."""
    p = _check_p(p)
    q = 1.0 - p
    s = np.sqrt
    m = np.zeros((16, 16), dtype=complex)
    m[0, 0] = 1.0
    m[2, 2] = m[8, 8] = q
    m[5, 5] = p * p
    m[10, 10] = q * q
    m[6, 6] = m[9, 9] = p * q
    m[4, 4] = m[1, 1] = p
    m[4, 8] = m[1, 2] = s(p * q)
    m[6, 10] = m[9, 10] = s(p * q**3)
    m[5, 10] = m[6, 9] = p * q
    m[5, 6] = m[5, 9] = s(p**3 * q)
    return _close_hermitian(m) / 4.0


def iota_pd(p: float) -> np.ndarray:
    """Evolved white-noise part for phase damping, as a 16x16 matrix."""
    p = _check_p(p)
    q = 1.0 - p
    s = np.sqrt
    m = np.zeros((16, 16), dtype=complex)
    m[0, 0] = 1.0
    m[2, 2] = m[8, 8] = q
    m[3, 3] = m[12, 12] = p
    m[10, 10] = q * q
    m[11, 11] = m[14, 14] = p * q
    m[15, 15] = p * p
    m[2, 3] = m[8, 12] = s(p * q)
    m[14, 10] = m[11, 10] = s(p * q**3)
    m[11, 14] = m[10, 15] = p * q
    m[15, 11] = m[15, 14] = s(p**3 * q)
    return _close_hermitian(m) / 4.0


def upsilon_ad(p: float) -> PureState:
    """Evolved singlet branch for amplitude damping."""
    p = _check_p(p)
    v = np.zeros(16, dtype=complex)
    v[2] = np.sqrt((1.0 - p) / 2.0)
    v[8] = -np.sqrt((1.0 - p) / 2.0)
    v[1] = np.sqrt(p / 2.0)
    v[4] = -np.sqrt(p / 2.0)
    return PureState(GLOBAL_DIMS, v)


def upsilon_pd(p: float) -> PureState:
    """Evolved singlet branch for phase damping."""
    p = _check_p(p)
    v = np.zeros(16, dtype=complex)
    v[2] = np.sqrt((1.0 - p) / 2.0)
    v[8] = -np.sqrt((1.0 - p) / 2.0)
    v[3] = np.sqrt(p / 2.0)
    v[12] = -np.sqrt(p / 2.0)
    return PureState(GLOBAL_DIMS, v)


def appendix_golden_state(c: float, p: float, kind: str) -> DensityMatrix:
    """Literal golden construction (1-c) iota(p) + c |Upsilon(p)><Upsilon(p)|."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"Werner parameter must lie in [0, 1], got {c}")
    if kind not in CHANNELS:
        raise ValueError(f"channel kind must be 'ad' or 'pd', got {kind!r}")
    if kind == "ad":
        io, ups = iota_ad(p), upsilon_ad(p)
    else:
        io, ups = iota_pd(p), upsilon_pd(p)
    mat = (1.0 - c) * io + c * np.outer(ups.vec, ups.vec.conj())
    return DensityMatrix(GLOBAL_DIMS, mat)
