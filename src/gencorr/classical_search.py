"""Dephasing in local product bases and the closest-classical-state search.

A classically-correlated state is diagonal in some product of local
orthonormal bases.  Dephasing (pinching) a state in such a basis yields the
nearest classical state *for that basis*; minimizing the resulting relative
entropy over all local bases yields the quantum part Q of the correlations
and the closest classical state chi.

The search is a multi-start L-BFGS descent on the unitary group of each cell
(Abrudan, Eriksson & Koivunen, IEEE TSP 56, 1134 (2008)), so one code path
serves every cell dimension without a parametrization.  Its starts, its
result and its cost are deterministic (see closest_classical_state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import shannon, von_neumann_entropy
from .linalg import (
    DEFAULT_TOL,
    CompositeDims,
    DensityMatrix,
    hermitize,
    kron_all,
    permutation_indices,
    permute_subsystems,
    random_unitary,
)

__all__ = [
    "GRAD_TOL",
    "SearchConfig",
    "SearchResult",
    "LocalBasisSet",
    "dephase",
    "quantumness_in_basis",
    "closest_classical_state",
]

GRAD_TOL = 1e-7  # a start stops once the gradient norm falls below this
_ARMIJO = 1e-4  # sufficient-decrease fraction of the first-order prediction
_ETA0 = 1.0  # first trial step of each line search
_MEMORY = 8  # curvature pairs kept for the L-BFGS direction
# A start also stops when the line search has shrunk the step until its
# predicted decrease eta*<G, D> is below the rounding error of the objective.
_STALL = 1e-15


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the closest-classical-state search.

    starts=None resolves to 32 for qubit-only cells and 64 when any cell has
    dimension >= 3 (larger cells have more local minima).  max_evals caps the
    objective evaluations of each start, line-search trials included.  Both
    set the search's iteration budget (see closest_classical_state).
    """

    starts: int | None = None
    max_evals: int = 2000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.starts is not None and self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")

    def resolved_starts(self, cell_dims) -> int:
        if self.starts is not None:
            return self.starts
        return 64 if any(d >= 3 for d in cell_dims) else 32


@dataclass(frozen=True)
class LocalBasisSet:
    """One unitary per cell of a partition of the subsystems.

    Column j of each unitary is the j-th basis vector of that cell.
    """

    cells: tuple[tuple[int, ...], ...]
    unitaries: tuple[np.ndarray, ...]

    def __init__(self, cells, unitaries) -> None:
        cells = tuple(tuple(int(i) for i in cell) for cell in cells)
        unitaries = tuple(np.asarray(u, dtype=complex) for u in unitaries)
        if len(cells) != len(unitaries):
            raise ValueError("one unitary per cell required")
        for u in unitaries:
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError(f"basis unitary must be square, got {u.shape}")
            dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            if dev > 1e-9:
                raise ValueError(f"matrix is not unitary: max|U†U - I| = {dev:.3e}")
        for u in unitaries:
            u.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "unitaries", unitaries)

    def validate_partition(self, dims: CompositeDims) -> None:
        flat = [i for cell in self.cells for i in cell]
        if sorted(flat) != list(range(dims.n)):
            raise ValueError(f"cells {self.cells} do not partition 0..{dims.n - 1}")
        for cell, u in zip(self.cells, self.unitaries):
            d = int(np.prod([dims[i] for i in cell]))
            if u.shape[0] != d:
                raise ValueError(
                    f"cell {cell} has dimension {d} but unitary is {u.shape[0]}x{u.shape[0]}"
                )


def _pinch(rho: DensityMatrix, basis: LocalBasisSet) -> tuple[np.ndarray, np.ndarray]:
    """Product-basis matrix B in the original subsystem order, and diag(B† rho B)."""
    basis.validate_partition(rho.dims)
    b = kron_all(basis.unitaries)
    perm = [i for cell in basis.cells for i in cell]
    if perm != list(range(rho.dims.n)):
        idx = permutation_indices(rho.dims.dims, perm)
        inv = np.empty_like(idx)
        inv[idx] = np.arange(idx.size)
        b = b[inv]
    p = np.real(np.einsum("ij,ij->j", b.conj(), np.asarray(rho.mat) @ b))
    return b, np.clip(p, 0.0, None)


def dephase(rho: DensityMatrix, basis: LocalBasisSet) -> DensityMatrix:
    """Pinch rho in the given product basis: chi = sum_k |b_k><b_k| rho |b_k><b_k|."""
    b, p = _pinch(rho, basis)
    return DensityMatrix(rho.dims, hermitize((b * p) @ b.conj().T))


def quantumness_in_basis(rho: DensityMatrix, basis: LocalBasisSet) -> float:
    """S(rho || dephase(rho, basis)), evaluated as S(chi) - S(rho).

    The two forms agree because the pinched state chi is diagonal in the
    product basis and carries exactly the pinched outcome distribution.
    """
    return shannon(_pinch(rho, basis)[1]) - von_neumann_entropy(rho)


class SearchResult(NamedTuple):
    """Outcome of closest_classical_state.

    q = S(rho||chi) at the best start; evals counts objective evaluations over
    all starts.  grad_norm, the gradient norm at the returned basis, certifies
    stationarity: it is below GRAD_TOL unless that start stopped otherwise (see
    _descend), as is typical where outcomes of a rank-deficient rho vanish.
    """

    chi: DensityMatrix
    basis: LocalBasisSet
    q: float
    evals: int
    grad_norm: float


def _gradient(sigma: np.ndarray, p: np.ndarray, cdims) -> tuple[list[np.ndarray], float]:
    """Per-cell G_i = Tr_(other cells) -i[sigma, diag(log2 p)], and |(G_1, ..., G_m)|.

    Moving U_i to U_i exp(-i eta X) changes the objective at rate Tr(X G_i),
    so U_i exp(i eta G_i) is the steepest-descent direction.  Entries of sigma
    next to a vanishing p_k vanish with it, so the floor on p only guards log2.
    """
    logp = np.log2(np.maximum(p, 1e-300))
    t = (-1j * sigma * (logp[None, :] - logp[:, None])).reshape(tuple(cdims) * 2)
    n = len(cdims)
    rows = list(range(n))
    grad = [
        np.einsum(t, rows + [n + j if j == i else j for j in rows], [i, n + i])
        for i in range(n)
    ]
    return grad, float(np.sqrt(sum(np.vdot(g, g).real for g in grad)))


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """Two-loop L-BFGS product H g over the stored (s, y, 1/<s, y>) pairs.

    Vectors are the cell generators raveled into one array, with the real
    Frobenius inner product; in the body frame U_i exp(i X_i) they carry over
    to the next iterate unchanged.
    """
    alphas = []
    for s, y, r in reversed(pairs):
        alphas.append(r * np.vdot(s, g).real)
        g = g - alphas[-1] * y
    if pairs:
        s, y, _ = pairs[-1]
        g = g * (np.vdot(s, y).real / np.vdot(y, y).real)
    for (s, y, r), a in zip(pairs, reversed(alphas)):
        g = g + (a - r * np.vdot(y, g).real) * s
    return g


def _descend(mat, us, cdims, iterations, max_evals, mass_cap, clip):
    """Armijo-backtracked L-BFGS descent on the cell unitaries us.

    The step is U_i exp(i eta D_i), D the L-BFGS image of the gradient (Huang,
    Absil & Gallivan, SIAM J. Optim. 28, 470 (2018)); steepest descent crawls
    where outcomes of a rank-deficient rho vanish.  With D_i = V_i diag(w_i) V_i†,
    sigma(eta) = X R X† for R = A† rho A, A = ⊗ U_i V_i and
    X = (⊗ V_i) diag(exp(-i eta (w_1 ⊕ ... ⊕ w_m))), so a line-search trial
    costs one phase product and one matrix product.

    Stops at |G| < GRAD_TOL, at max_evals evaluations, when the line search
    stalls, or after `iterations` gradients.  Returns (p, us, |G|) at the last
    iterate with at most mass_cap of probability at or below 2*clip, the
    evaluation count and the gradient count.  Past that point `shannon` drops
    outcomes that the support test of `relative_entropy` still sees, so
    S(rho||chi) would be inf; rejecting such steps would stall the descent.
    """
    b = kron_all(us)
    sigma = b.conj().T @ mat @ b
    p = np.clip(np.diagonal(sigma).real, 0.0, None)
    f = shannon(p, 0.0)  # every positive outcome, as the gradient sees them
    grad, gnorm = _gradient(sigma, p, cdims)
    evals, iters, pairs, best = 1, 1, [], None
    splits = np.cumsum([d * d for d in cdims])[:-1]
    while True:
        if best is None or p[p <= 2 * clip].sum() <= mass_cap:
            best = (p, us, gnorm)
        if gnorm < GRAD_TOL or evals >= max_evals or iters >= iterations:
            return best, evals, iters
        g = np.concatenate([m.ravel() for m in grad])
        d = _lbfgs_direction(g, pairs)
        slope = np.vdot(g, d).real  # decrease rate of f along d
        if slope <= 0:  # not a descent direction: restart from the gradient
            pairs.clear()
            d, slope = g, gnorm**2
        parts = zip(np.split(d, splits), cdims)
        eigs = [np.linalg.eigh(hermitize(m.reshape(n, n))) for m, n in parts]
        uv = [u @ v for u, (_, v) in zip(us, eigs)]
        a = kron_all(uv)
        k = kron_all([v for _, v in eigs])
        r = a.conj().T @ mat @ a
        wsum = np.zeros(1)
        for w, _ in eigs:
            wsum = (wsum[:, None] + w[None, :]).ravel()
        eta = _ETA0
        while evals < max_evals:
            if eta * slope < _STALL:
                return best, evals, iters
            x = k * np.exp(-1j * eta * wsum)
            xr = x @ r
            p_t = np.clip(np.einsum("ij,ij->i", xr, x.conj()).real, 0.0, None)
            f_t = shannon(p_t, 0.0)
            evals += 1
            if f_t <= f - _ARMIJO * eta * slope:
                us = [(y * np.exp(1j * eta * w)) @ v.conj().T for y, (w, v) in zip(uv, eigs)]
                sigma, p, f = xr @ x.conj().T, p_t, f_t
                grad, gnorm = _gradient(sigma, p, cdims)
                iters += 1
                s_k, y_k = eta * d, g - np.concatenate([m.ravel() for m in grad])
                sy = np.vdot(s_k, y_k).real
                if sy > 1e-12 * np.vdot(s_k, s_k).real:
                    pairs = (pairs + [(s_k, y_k, 1.0 / sy)])[-_MEMORY:]
                break
            eta /= 2
        else:
            return best, evals, iters


def closest_classical_state(
    rho: DensityMatrix, partition, cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Find the closest classical state for the given partition into cells.

    q = S(rho||chi) is minimized over one unitary per cell, of any dimension.
    The search spends starts * min(n**2, max_evals) gradient evaluations,
    n = sum of d_i^2 over the cells: starts run in turn, and one that stops
    early leaves the rest to the next, so the cost depends on the cells and
    cfg but never on rho.  Start 0 is the computational basis; start k draws
    its unitaries from a generator seeded with rng_seed + k.  On the paper's
    evolved states the most iterations any start needed grew about as n**2
    (54 at n = 16, 249 at n = 32).
    """
    dims = rho.dims
    cells = tuple(tuple(int(i) for i in cell) for cell in partition)
    if sorted(i for cell in cells for i in cell) != list(range(dims.n)):
        raise ValueError(f"cells {cells} do not partition 0..{dims.n - 1}")
    cdims = [int(np.prod([dims[i] for i in cell])) for cell in cells]
    mat = permute_subsystems(rho.mat, dims.dims, [i for cell in cells for i in cell])
    s_rho = von_neumann_entropy(rho)
    clip = DEFAULT_TOL.clip
    w = np.linalg.eigvalsh(np.asarray(rho.mat))
    mass_cap = clip * w[w > clip].min()  # see _descend

    budget = cfg.resolved_starts(cdims) * min(sum(d * d for d in cdims) ** 2, cfg.max_evals)
    best, total_evals, k = None, 0, 0
    while budget > 0:
        if k == 0:
            us = [np.eye(d, dtype=complex) for d in cdims]  # exact for classical inputs
        else:
            rng = np.random.default_rng(cfg.rng_seed + k)
            us = [random_unitary(d, rng) for d in cdims]
        (p, us, gnorm), evals, used = _descend(
            mat, us, cdims, budget, cfg.max_evals, mass_cap, clip
        )
        budget, total_evals, k = budget - used, total_evals + evals, k + 1
        q = shannon(p, clip) - s_rho
        # a later start must win by more than rounding, so that start 0 keeps
        # an exactly classical input exact
        if best is None or q < best[0] - 1e-12:
            best = (q, us, gnorm)
    q, us, gnorm = best
    basis = LocalBasisSet(cells, us)
    return SearchResult(dephase(rho, basis), basis, q, total_evals, gnorm)
