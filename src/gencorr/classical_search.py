"""Dephasing in local product bases and the closest-classical-state search.

A classically-correlated state is diagonal in some product of local
orthonormal bases.  Dephasing (pinching) a state in such a basis yields the
nearest classical state *for that basis*; minimizing the resulting relative
entropy over all local bases yields the quantum part Q of the correlations
and the closest classical state chi.

The search is a multi-start L-BFGS descent on the unitary group of each cell
(Abrudan, Eriksson & Koivunen, IEEE TSP 56, 1134 (2008)), so one code path
serves every cell dimension without a parametrization.  Its starts and its
result are deterministic, however many starts run side by side (see
closest_classical_state).
"""

from __future__ import annotations

import itertools
import numbers
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
_MEMORY = 8  # curvature pairs kept for the L-BFGS direction
_SHARE = 8  # iterations per start per real parameter (see closest_classical_state)
# A start also stops when the line search has shrunk the step until its
# predicted decrease eta*<G, D> is below the rounding error of the objective.
_STALL = 1e-15
_FLOOR = 1e-300  # outcomes are floored here, so that log2 stays finite
# Starts advanced together as stacked lanes.  The result never depends on it.
_LANES = 8


@dataclass(frozen=True)
class SearchConfig:
    """Budget and seeding for the closest-classical-state search.

    max_evals caps the objective evaluations of each start, line-search
    trials included.  starts and max_evals set the search's iteration budget
    (see closest_classical_state).
    """

    starts: int = 4
    max_evals: int = 2000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("starts", "max_evals", "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")


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
    return DensityMatrix._derived(rho.dims, hermitize((b * p) @ b.conj().T))


def quantumness_in_basis(rho: DensityMatrix, basis: LocalBasisSet) -> float:
    """S(rho || dephase(rho, basis)), evaluated as S(chi) - S(rho).

    The two forms agree because the pinched state chi is diagonal in the
    product basis and carries exactly the pinched outcome distribution.
    """
    return shannon(_pinch(rho, basis)[1]) - von_neumann_entropy(rho)


class SearchResult(NamedTuple):
    """Outcome of closest_classical_state.

    q = S(rho||chi) at the best start; evals counts objective evaluations and
    starts the starts that count toward the iteration budget.  grad_norm, the
    gradient norm at the returned basis, certifies stationarity: it is below
    GRAD_TOL unless that start stopped otherwise (see closest_classical_state),
    as is typical where outcomes of a rank-deficient rho vanish.  No field
    depends on how many starts ran side by side as lanes.
    """

    chi: DensityMatrix
    basis: LocalBasisSet
    q: float
    evals: int
    grad_norm: float
    starts: int


def _gradient(sigma: np.ndarray, p: np.ndarray, cdims) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-cell G_i = Tr_(other cells) -i[sigma, diag(log2 p)], and |(G_1, ..., G_m)|.

    Moving U_i to U_i exp(-i eta X) changes the objective at rate Tr(X G_i),
    so U_i exp(i eta G_i) is the steepest-descent direction.  Entries of sigma
    next to a vanishing p_k vanish with it, so the floor on p only guards log2.
    sigma (..., N, N) and p (..., N) may carry leading lane axes, which the
    G_i (..., d_i, d_i) and the norm keep.
    """
    logp = np.log2(np.maximum(p, _FLOOR))
    t = sigma * (logp[..., :, None] - logp[..., None, :])  # i t is -i[sigma, diag(log2 p)]
    lead, before, parts = t.shape[:-2], 1, []
    for d in cdims:
        after = t.shape[-1] // (before * d)
        g = t.reshape(lead + (before, d, after) * 2)
        if after > 1:  # trace out the cells after this one, then those before
            g = g.trace(axis1=-4, axis2=-1)
        g = g.reshape(lead + (before, d) * 2)
        if before > 1:
            g = g.trace(axis1=-4, axis2=-2)
        parts.append(g.reshape(lead + (d * d,)))
        before *= d
    vec = 1j * np.concatenate(parts, axis=-1)
    at, grad = 0, []
    for d in cdims:
        grad.append(vec[..., at:at + d * d].reshape(lead + (d, d)))
        at += d * d
    v = vec.view(float)
    return grad, np.sqrt((v * v).sum(-1))


_UPPER = np.triu(np.ones((_MEMORY, _MEMORY)))
_EYE = np.eye(_MEMORY)


def _lbfgs_direction(g: np.ndarray, pairs: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """L-BFGS product H g for each lane, in compact form.

    g (m, n); pairs (m, 2M, n) holds a lane's steps s_1..s_M and gradient
    changes y_1..y_M, newest last, unused rows zero; gamma = <s, y>/<y, y> of
    the newest pair (1 without pairs).  With R = triu(S^T Y) and D its
    diagonal, H g = gamma g + S w - gamma Y u, u = R^-1 S^T g,
    w = R^-T ((D + gamma Y^T Y) u - gamma Y^T g): the two-loop recursion's
    product in closed form (Byrd, Nocedal & Schnabel, Math. Prog. 63, 129
    (1994)).  Vectors are the cell generators raveled into one real array; in
    the body frame U_i exp(i X_i) they carry over to the next iterate unchanged.
    """
    mem = _MEMORY
    pairs_t = pairs.swapaxes(1, 2)
    gram = pairs @ pairs_t
    sy, yy = gram[:, :mem, mem:], gram[:, mem:, mem:]
    dsy = sy.diagonal(0, 1, 2)  # s_i . y_i > 0 on used rows, 0 on unused
    rinv = np.linalg.inv(sy * _UPPER + _EYE * (dsy == 0)[:, None, :])
    pg = pairs @ g[:, :, None]
    u = rinv @ pg[:, :mem]
    gam = gamma[:, None, None]
    w = rinv.swapaxes(1, 2) @ (dsy[:, :, None] * u + gam * (yy @ u - pg[:, mem:]))
    return gamma[:, None] * g + (pairs_t @ np.concatenate([w, -gam * u], axis=1))[:, :, 0]


def _neg_entropy_rows(p: np.ndarray) -> np.ndarray:
    """sum p log2 p over each row of p >= _FLOOR: minus the descent objective."""
    return (p * np.log2(p)).sum(-1)


def _diag_rows(x: np.ndarray, xr: np.ndarray) -> np.ndarray:
    """Real diagonal of x r x† for each lane, from x and xr = x r, floored at _FLOOR."""
    return np.maximum((xr.view(float) * x.view(float)).sum(-1), _FLOOR)


def _take(lanes: dict, rows) -> dict:
    """The given rows of every lane array."""
    return {k: [a[rows] for a in v] if isinstance(v, list) else v[rows] for k, v in lanes.items()}


def _concat(a: dict, b: dict) -> dict:
    """Lanes a followed by lanes b."""
    return {
        k: [np.concatenate(x) for x in zip(v, b[k])] if isinstance(v, list)
        else np.concatenate([v, b[k]])
        for k, v in a.items()
    }


@dataclass
class _Start:
    """Progress of one start: iterations (gradients) so far and what it returns.

    best = (snapshot, row) locates the start's best iterate so far, snapshot
    the stacked (p, unitaries, |G|) of the lanes of one step.  An outcome is
    (best, evals): check if the budget cuts the start at iteration its, end
    if the start stopped by itself there.
    """

    its: int = 0
    evals: int = 0
    stopped: bool = False
    best: tuple | None = None
    check: tuple | None = None
    end: tuple | None = None


class _LaneSearch:
    """Starts 0, 1, ... of one search, advanced in lockstep as stacked lanes.

    A dict of lane arrays has one row per start in flight: its start ("ids"),
    unitaries, objective, evaluations, gradient, direction and curvature
    pairs, and the line-search data of the direction.  The unitaries are
    stacked per run of equal consecutive cell dimensions, (m, count, d, d), so
    one eigh serves every cell of a run.  Each lane's arithmetic reads its own
    row only, so a start follows the same iterates in any lane, beside any
    others.

    Start k may use B - sum_{j<k} used_j iterations, B the budget.  Lanes run
    later starts before that limit is known, and a start pauses once the
    iterations that earlier starts have taken leave it none.  Starts settle in
    order, so the outcomes are those of running them one after another.  The
    one start the budget cuts short of where it paused runs again by itself,
    up to its limit, instead of every start keeping its past iterates.
    """

    def __init__(self, mat, cdims, max_evals, mass_cap, rng_seed):
        self.mat, self.cdims, self.max_evals = mat, cdims, max_evals
        self.mass_cap, self.rng_seed = mass_cap, rng_seed
        # (d, count) per run of equal consecutive cell dimensions
        self.runs = [(d, len(list(run))) for d, run in itertools.groupby(cdims)]
        self.nvec = 2 * sum(d * d for d in cdims)  # real length of the generator vector
        self.longest = 0  # most iterations of a random start that stopped by itself

    def _cells(self, stacks) -> list[np.ndarray]:
        return [a[:, j] for a, (_, c) in zip(stacks, self.runs) for j in range(c)]

    def _end(self, k: int, st: _Start, evals: int) -> None:
        st.stopped, st.end = True, (st.best, evals)
        if k:  # start 0, the computational basis, often begins at a stationary point
            self.longest = max(self.longest, st.its)

    def run(self, budget: int, share: int, first: int = 0, alone: bool = False) -> list[tuple]:
        """(p, unitaries, |G|, evals) of each start from `first` on that gets
        any of the budget, in start order; alone runs start `first` only.

        A start is expected to take share iterations until a random start has
        stopped by itself, and then as many as the longest such start.
        """
        starts: dict[int, _Start] = {}  # the unsettled starts, in order
        lanes, left, out, nxt, last = None, budget, [], first, first if alone else None
        while left > 0 and (last is None or first <= last):
            # open a lane for the next start while the earlier unsettled ones
            # are expected to leave it iterations
            guess = self.longest or share
            claim = sum(st.its if st.stopped else max(st.its, guess) for st in starts.values())
            new = []
            busy = 0 if lanes is None else len(lanes["ids"])
            while busy + len(new) < _LANES and claim < left and (last is None or nxt <= last):
                new.append(nxt)
                starts[nxt] = _Start()
                nxt, claim = nxt + 1, claim + guess
            lanes = self._step(lanes, new, starts, left)
            while left > 0 and first in starts and starts[first].stopped:
                st = starts.pop(first)
                if st.end is not None and left > st.its:
                    (snap, row), evals = st.end
                elif left == st.its:
                    (snap, row), evals = st.check
                else:  # cut before where it paused
                    out.append(self.run(left, share, first, alone=True)[0])
                    left = 0
                    break
                p, us, gnorm = snap  # rows copied, so that the snapshot can go
                out.append((p[row].copy(), [a[row].copy() for a in self._cells(us)], gnorm[row], evals))
                left -= min(st.its, left)
                first += 1
        return out

    def _step(self, lanes, new, starts, left):
        """One iteration of every lane in flight and the first of each new start."""
        if lanes is not None:
            lanes = self._line_search(lanes, starts)
        if new:
            fresh = self._open(new)
            lanes = fresh if lanes is None else _concat(lanes, fresh)
        if lanes is None:
            return None
        lanes = self._iterate(lanes)
        ids, evals = lanes["ids"].tolist(), lanes["evals"].tolist()
        # stops by itself: converged, out of evaluations, or stalled already
        # at the first trial step eta = 1
        natural = [
            gn < GRAD_TOL or e >= self.max_evals or slope < _STALL
            for gn, e, slope in zip(lanes["gn"].tolist(), evals, lanes["slope"].tolist())
        ]
        for k, e in zip(ids, evals):
            starts[k].its += 1
            starts[k].evals = e
        # earlier starts take at least the iterations they took so far, which
        # bounds what they leave each start
        limit, taken = {}, 0
        for k, st in starts.items():
            limit[k], taken = left - taken, taken + st.its
        # the best iterate is the last whose probability mass at or below
        # 2*DEFAULT_TOL.clip is at most mass_cap (see closest_classical_state)
        p = lanes.pop("p")
        ok = ((p * (p <= 2 * DEFAULT_TOL.clip)).sum(-1) <= self.mass_cap).tolist()
        snap = (p, lanes["u"], lanes.pop("gn"))
        keep = []
        for i, (k, stop) in enumerate(zip(ids, natural)):
            st = starts[k]
            if ok[i] or st.best is None:
                st.best = (snap, i)
            st.check = (st.best, st.evals)
            if stop:
                self._end(k, st, st.evals)
            elif st.its >= limit[k]:
                st.stopped = True
            else:
                keep.append(i)
        if not keep:
            return None
        if len(keep) < len(ids):
            lanes = _take(lanes, np.array(keep))
        return self._prepare(lanes)

    def _open(self, new) -> dict:
        """Lane rows for the new starts, at their first iterate.

        Start 0 is the computational basis (exact for classical inputs);
        start k draws Haar unitaries from a generator seeded rng_seed + k.
        """
        per_start = []
        for k in new:
            if k == 0:
                per_start.append([np.eye(d, dtype=complex) for d in self.cdims])
            else:
                rng = np.random.default_rng(self.rng_seed + k)
                per_start.append([random_unitary(d, rng) for d in self.cdims])
        u, at = [], 0
        for _, c in self.runs:
            u.append(np.array([us[at:at + c] for us in per_start]))
            at += c
        b = kron_all(self._cells(u))
        sigma = b.conj().swapaxes(1, 2) @ self.mat @ b
        p = np.maximum(sigma.diagonal(0, 1, 2).real, _FLOOR)
        n = len(new)
        return {
            "ids": np.array(new), "u": u, "sigma": sigma, "p": p, "h": _neg_entropy_rows(p),
            "evals": np.ones(n, dtype=int), "g": np.zeros((n, self.nvec)),
            "step": np.zeros((n, self.nvec)), "pairs": np.zeros((n, 2 * _MEMORY, self.nvec)),
            "gamma": np.ones(n),
        }

    def _line_search(self, lanes, starts) -> dict | None:
        """Armijo backtracking from eta = 1 on every lane, then the accepted step.

        A lane whose evaluations run out, or whose step shrinks below the
        stall floor, stops where it is; the others move to their accepted trial.
        """
        k, r, ws, slope = lanes.pop("k"), lanes.pop("r"), lanes.pop("ws"), lanes.pop("slope")
        h = lanes["h"]
        m = len(h)
        evals = lanes["evals"] + 1
        x = k * np.exp(-1j * ws)[:, None, :]
        xr = x @ r
        pt = _diag_rows(x, xr)
        ht = _neg_entropy_rows(pt)
        pend = (~(ht >= h + _ARMIJO * slope)).nonzero()[0]  # Armijo fails (or NaN)
        eta = None  # every lane took the full step eta = 1
        if pend.size:
            eta, stopped = np.ones(m), np.zeros(m, dtype=bool)
            while pend.size:
                eta[pend] /= 2
                halt = (evals[pend] >= self.max_evals) | (eta[pend] * slope[pend] < _STALL)
                stopped[pend[halt]] = True
                pend = pend[~halt]
                if not pend.size:
                    break
                xt = k[pend] * np.exp(-1j * eta[pend, None] * ws[pend])[:, None, :]
                xrt = xt @ r[pend]
                ptt = _diag_rows(xt, xrt)
                htt = _neg_entropy_rows(ptt)
                evals[pend] += 1
                ok = htt >= h[pend] + _ARMIJO * eta[pend] * slope[pend]
                acc = pend[ok]
                x[acc], xr[acc], pt[acc], ht[acc] = xt[ok], xrt[ok], ptt[ok], htt[ok]
                pend = pend[~ok]
            if np.count_nonzero(stopped):
                for i in stopped.nonzero()[0].tolist():
                    j = int(lanes["ids"][i])
                    starts[j].evals = int(evals[i])
                    self._end(j, starts[j], starts[j].evals)
                keep = (~stopped).nonzero()[0]
                if not keep.size:
                    return None
                lanes = _take(lanes, keep)
                eta, evals, x, xr, pt, ht = eta[keep], evals[keep], x[keep], xr[keep], pt[keep], ht[keep]
        d = lanes.pop("d")
        lanes["u"] = [
            (uv * np.exp(1j * w if eta is None else 1j * eta[:, None, None] * w)[:, :, None, :])
            @ v.conj().swapaxes(2, 3)
            for uv, v, w in zip(lanes.pop("uv"), lanes.pop("v"), lanes.pop("w"))
        ]
        lanes.update(
            sigma=xr @ x.conj().swapaxes(1, 2), p=pt, h=ht, evals=evals,
            step=d if eta is None else eta[:, None] * d,
        )
        return lanes

    def _iterate(self, lanes) -> dict:
        """Gradient, curvature pair and next direction."""
        grad, gn = _gradient(lanes.pop("sigma"), lanes["p"], self.cdims)
        m = len(gn)
        g = np.concatenate([x.reshape(m, -1) for x in grad], axis=1).view(float)
        pairs, gamma, step = lanes["pairs"], lanes["gamma"], lanes.pop("step")
        dy = lanes["g"] - g
        sy = (step * dy).sum(-1)
        add = sy > 1e-12 * (step * step).sum(-1)
        n_add = np.count_nonzero(add)
        if n_add:
            mem = _MEMORY
            shifted = np.concatenate(
                [pairs[:, 1:mem], step[:, None], pairs[:, mem + 1:], dy[:, None]], axis=1
            )
            if n_add == m:
                pairs, gamma = shifted, sy / (dy * dy).sum(-1)
            else:
                pairs = np.where(add[:, None, None], shifted, pairs)
                gamma = np.where(add, sy / np.where(add, (dy * dy).sum(-1), 1.0), gamma)
        d = _lbfgs_direction(g, pairs, gamma)
        slope = (g * d).sum(-1)  # decrease rate of the objective along d
        restart = slope <= 0  # not a descent direction: restart from the gradient
        if np.count_nonzero(restart):
            d = np.where(restart[:, None], g, d)
            slope = np.where(restart, gn**2, slope)
            pairs = np.where(restart[:, None, None], 0.0, pairs)
            gamma = np.where(restart, 1.0, gamma)
        lanes.update(g=g, gn=gn, d=d, slope=slope, pairs=pairs, gamma=gamma)
        return lanes

    def _prepare(self, lanes) -> dict:
        """Line-search data for each lane's direction D.

        With D_i = V_i diag(w_i) V_i†, sigma(eta) = X R X† for R = A† rho A,
        A = ⊗ U_i V_i and X = (⊗ V_i) diag(exp(-i eta (w_1 ⊕ ... ⊕ w_m))), so a
        trial costs one phase product and one matrix product.  eigh reads the
        lower triangle of each D_i, which is Hermitian up to rounding.
        """
        m = len(lanes["h"])
        dc = lanes["d"].view(complex)
        uv, v, w, at = [], [], [], 0
        for (d, c), u in zip(self.runs, lanes.pop("u")):
            wi, vi = np.linalg.eigh(dc[:, at:at + c * d * d].reshape(m, c, d, d))
            at += c * d * d
            uv.append(u @ vi)
            v.append(vi)
            w.append(wi)
        a = kron_all(self._cells(uv))
        cw = self._cells(w)
        ws = cw[0]
        for wc in cw[1:]:
            ws = (ws[:, :, None] + wc[:, None, :]).reshape(m, -1)
        lanes.update(
            uv=uv, v=v, w=w, ws=ws, k=kron_all(self._cells(v)),
            r=a.conj().swapaxes(1, 2) @ self.mat @ a,
        )
        return lanes


def closest_classical_state(
    rho: DensityMatrix, partition, cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Find the closest classical state for the given partition into cells.

    q = S(rho||chi) is minimized over one unitary per cell, of any dimension,
    by Armijo-backtracked L-BFGS descents on the cell unitaries (Huang, Absil
    & Gallivan, SIAM J. Optim. 28, 470 (2018)); steepest descent crawls where
    outcomes of a rank-deficient rho vanish.  Start 0 is the computational
    basis; start k draws its unitaries from a generator seeded with
    rng_seed + k.  A start stops at |G| < GRAD_TOL, at max_evals evaluations,
    or when the line search stalls.

    The search has a budget of B = starts * min(8 * n, max_evals) iterations
    (gradients), n = sum of d_i^2 over the cells: start k may use what starts
    0..k-1 left of it, and the starts that count are those that get any.  The
    result is that of running these starts one after another, bit for bit,
    however many of them ran together in lanes.  The work is the budget plus
    the iterations of starts run ahead and then discarded or cut short, so it
    depends on the cells and cfg and a little on how long rho's starts run.
    On 24 of the paper's evolved states (both channels, c in {0.2, 0.6, 1},
    p in {0, 0.3, 0.7, 1}) the longest start that stopped by itself took 244
    iterations on qubit cells (n = 16), 244 on 1|2 cuts of the three-qubit
    reductions (n = 20), 247 on 2|2 cuts (n = 32) and 268 on 1|3 cuts
    (n = 68); 99% of the starts stopped within 67, 91, 91 and 183.  A long
    start draws on what the others leave.  With the default 4 starts, the
    values of the default figure pass equal, bit for bit, those of 16 starts
    of min(n**2, max_evals) iterations each.

    A start returns its last iterate with at most mass_cap = clip * (rho's
    least eigenvalue above clip) of probability at or below 2*clip, clip =
    DEFAULT_TOL.clip.  Past that point `shannon` drops outcomes that the
    support test of `relative_entropy` still sees, so S(rho||chi) would be
    inf; rejecting such steps would stall the descent.
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
    mass_cap = clip * w[w > clip].min()

    share = min(_SHARE * sum(d * d for d in cdims), cfg.max_evals)
    search = _LaneSearch(mat, cdims, cfg.max_evals, mass_cap, cfg.rng_seed)
    outcomes = search.run(cfg.starts * share, share)
    best = None
    for p, us, gnorm, _ in outcomes:
        q = shannon(p) - s_rho
        # a later start must win by more than rounding, so that start 0 keeps
        # an exactly classical input exact
        if best is None or q < best[0] - 1e-12:
            best = (q, us, float(gnorm))
    q, us, gnorm = best
    basis = LocalBasisSet(cells, us)
    evals = sum(o[3] for o in outcomes)
    return SearchResult(dephase(rho, basis), basis, q, evals, gnorm, len(outcomes))
