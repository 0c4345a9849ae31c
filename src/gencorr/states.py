"""Canonical state constructors, fidelity, and the partial-transpose test."""

from __future__ import annotations

import numpy as np

from .genuine_correlations import Bipartition
from .linalg import DensityMatrix, PureState, hermitize

__all__ = [
    "ghz",
    "w4",
    "fidelity",
    "ppt_min_eigenvalue",
]


def ghz(n: int) -> PureState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError(f"GHZ needs at least 2 qubits, got {n}")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return PureState((2,) * n, v)


def w4() -> PureState:
    """Four-qubit W-class state (|0001> + |0010> - |0100> - |1000>)/2."""
    v = np.zeros(16, dtype=complex)
    v[1] = v[2] = 0.5
    v[4] = v[8] = -0.5
    return PureState((2, 2, 2, 2), v)


def fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """sqrt(<psi|rho|psi>), clamped to [0, 1].

    ValueError if the overlap is below -1e-12 or NaN (a derived state with a
    NaN entry), which the clamp would otherwise pass on.
    """
    if psi.dims != rho.dims:
        raise ValueError(f"dimension mismatch: {psi.dims} vs {rho.dims}")
    overlap = float(np.real(np.vdot(psi.vec, rho.mat @ psi.vec)))
    if not overlap >= -1e-12:
        raise ValueError(f"overlap {overlap:.3e} is negative or not a number")
    return float(np.sqrt(min(max(overlap, 0.0), 1.0)))


def ppt_min_eigenvalue(rho: DensityMatrix, cut: Bipartition) -> float:
    """Minimum eigenvalue of the partial transpose over the cut's second cell.

    Negative values witness entanglement across the cut.
    """
    n = rho.n
    if cut.n != n:
        raise ValueError(f"cut is over {cut.n} subsystems, state has {n}")
    dims = list(rho.dims)
    t = np.asarray(rho.mat).reshape(dims + dims)
    axes = list(range(2 * n))
    for i in cut.complement:
        axes[i], axes[i + n] = axes[i + n], axes[i]
    t = np.transpose(t, axes)
    side = rho.dim
    return float(np.linalg.eigvalsh(hermitize(t.reshape(side, side))).min())
