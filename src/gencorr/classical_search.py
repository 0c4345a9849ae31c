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
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .entropy import _entropies, _entropy_bits, _linalg_error, _sum, shannon, von_neumann_entropy
from .linalg import (
    _check_finite,
    _indices,
    _subsystem_axes,
    DEFAULT_TOL,
    DensityMatrix,
    hermitize,
    kron_all,
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
    "closest_classical_states",
]

GRAD_TOL = 1e-7  # a start stops once the gradient norm falls below this
_ARMIJO = 1e-4  # sufficient-decrease fraction of the first-order prediction
_MEMORY = 8  # curvature pairs kept for the L-BFGS direction
# A start also stops when the line search has shrunk the step until its
# predicted decrease eta*<G, D> is below the rounding error of the objective.
_STALL = 1e-15
_FLOOR = 1e-300  # outcomes are floored here, so that log2 stays finite
# Starts in flight as stacked lanes, over all the searches of one lane
# search; this bounds the memory of a wide batch, and 1 runs the starts one
# after another.  The results never depend on it.
_WIDTH = 128
_MASS = 2 * DEFAULT_TOL.clip  # outcomes at or below this count toward mass_cap
_TIE = 1e-12  # values this close to the optimum tie, and the first item wins
# The LAPACK kernels of np.linalg.eigh (lower triangle) and np.linalg.inv,
# called directly: np.linalg enters an errstate on every call, and a search
# enters one per run (see _LaneSearch.run).
_eigh, _inv = _umath_linalg.eigh_lo, _umath_linalg.inv
# The qubit Hadamard basis: bit j of start k < 2**m puts cell j of a search
# whose m cells are all qubits in it (see _start_bases).
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_HADAMARD.setflags(write=False)


@dataclass(frozen=True)
class SearchConfig:
    """Starts, evaluation cap and seeding for the closest-classical-state search.

    starts is the number of descent starts of each search, each run to its
    own stop from the bases that _start_bases gives start k.  max_evals
    caps the objective evaluations of each start, line-search trials
    included.  The default starts is measured (see closest_classical_state).
    """

    starts: int = 14
    max_evals: int = 2000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("starts", "max_evals", "rng_seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.rng_seed < 0:  # start k seeds default_rng(rng_seed + k)
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True, eq=False)
class LocalBasisSet:
    """One unitary per cell of a partition of the subsystems.

    Column j of each unitary is the j-th basis vector of that cell; equal by identity only.
    The unitaries are read-only copies, so the caller's arrays stay writable.
    LocalBasisSet(cells, unitaries) checks its outside input: integer
    indices, nonempty cells that partition the subsystems, and finite,
    square, unitary matrices.  The basis a search returns is derived and
    skips the checks (see _derived).
    """

    cells: tuple[tuple[int, ...], ...]
    unitaries: tuple[np.ndarray, ...]

    def __init__(self, cells, unitaries) -> None:
        cells = tuple(_indices(cell) for cell in cells)
        _check_partition(cells, sum(map(len, cells)))
        unitaries = tuple(np.array(u, dtype=complex) for u in unitaries)
        if len(cells) != len(unitaries):
            raise ValueError("one unitary per cell required")
        for u in unitaries:
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise ValueError(f"basis unitary must be square, got {u.shape}")
            _check_finite(u, "basis unitary")
            dev = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
            if not dev <= 1e-9:
                raise ValueError(f"matrix is not unitary: max|U†U - I| = {dev:.3e}")
        for u in unitaries:
            u.setflags(write=False)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "unitaries", unitaries)

    @classmethod
    def _derived(cls, cells, unitaries) -> "LocalBasisSet":
        """Unchecked basis for cells, tuples of ints that partition the
        subsystems, and fresh complex unitaries that nothing else holds, one
        per cell: a search's result.  The unitaries become read-only."""
        basis = object.__new__(cls)
        for u in unitaries:
            u.setflags(write=False)
        object.__setattr__(basis, "cells", tuple(cells))
        object.__setattr__(basis, "unitaries", tuple(unitaries))
        return basis


def _check_partition(cells, m: int) -> None:
    """ValueError unless the cells are nonempty and partition the subsystems 0..m-1."""
    if () in cells:
        raise ValueError(f"cell {cells.index(())} of {cells} is empty, "
                         f"so the cells do not partition 0..{m - 1}")
    if sorted(i for cell in cells for i in cell) != list(range(m)):
        raise ValueError(f"cells {cells} do not partition 0..{m - 1}")


def _cell_dims(dims: tuple[int, ...], cells) -> tuple[int, ...]:
    """The dimension of each cell; ValueError unless the cells partition the subsystems."""
    _check_partition(cells, len(dims))
    return tuple(math.prod(dims[i] for i in cell) for cell in cells)


def _pinch(rho: DensityMatrix, basis: LocalBasisSet) -> tuple[np.ndarray, np.ndarray]:
    """Product-basis matrix B in the original subsystem order, and diag(B† rho B)."""
    cdims = _cell_dims(rho.dims, basis.cells)
    if cdims != tuple(u.shape[0] for u in basis.unitaries):
        raise ValueError(f"cells {basis.cells} have dimensions {cdims}, unlike their unitaries")
    # the rows of the product run over the subsystems in cell order
    perm = [i for cell in basis.cells for i in cell]
    b = _subsystem_axes(kron_all(basis.unitaries), [rho.dims[i] for i in perm],
                        np.argsort(perm), cols=False).reshape(rho.dim, rho.dim)
    p = np.real(np.einsum("ij,ij->j", b.conj(), np.asarray(rho.mat) @ b))
    return b, np.clip(p, 0.0, None)


def dephase(rho: DensityMatrix, basis: LocalBasisSet) -> DensityMatrix:
    """Pinch rho in the given product basis: chi = sum_k |b_k><b_k| rho |b_k><b_k|.

    chi's memo keeps the pinched outcome distribution p = diag(B† rho B),
    one axis per cell of the basis, for the classical quantifiers to read.
    """
    b, p = _pinch(rho, basis)
    chi = DensityMatrix._derived(rho.dims, hermitize((b * p) @ b.conj().T))
    p = p.reshape(tuple(u.shape[0] for u in basis.unitaries))
    p.setflags(write=False)
    chi._memo["p"] = p
    return chi


def quantumness_in_basis(rho: DensityMatrix, basis: LocalBasisSet) -> float:
    """S(rho || dephase(rho, basis)), evaluated as S(chi) - S(rho).

    The two forms agree because the pinched state chi is diagonal in the
    product basis and carries exactly the pinched outcome distribution.
    """
    return shannon(_pinch(rho, basis)[1]) - von_neumann_entropy(rho)


class SearchResult(NamedTuple):
    """Outcome of closest_classical_state.

    q = S(rho||chi) at the winning start, the first within 1e-12 of the
    best; evals counts the objective evaluations of all the starts.
    grad_norm, the gradient norm at the returned basis, certifies
    stationarity: it is below GRAD_TOL unless that start stopped
    otherwise (see closest_classical_state), as is typical where outcomes of
    a rank-deficient rho vanish.  No field depends on how many starts ran
    side by side as lanes.

    chi, basis and q are derived data and skip the checks of outside input:
    the basis is built by LocalBasisSet._derived, and q takes the Shannon
    entropy of the search's own outcome distribution without shannon's
    checks.  Each cell unitary moves by unitary factors only, so the basis
    is unitary to rounding.
    """

    chi: DensityMatrix
    basis: LocalBasisSet
    q: float
    evals: int
    grad_norm: float


def _gradient(sigma: np.ndarray, logp: np.ndarray, cdims) -> tuple[np.ndarray, np.ndarray]:
    """The per-cell G_i = Tr_(other cells) -i[sigma, diag(log2 p)], raveled
    one after another into one complex vector and returned as its real view,
    and |(G_1, ..., G_m)|.

    Moving U_i to U_i exp(-i eta X) changes the objective at rate Tr(X G_i),
    so U_i exp(i eta G_i) is the steepest-descent direction.  Entries of sigma
    next to a vanishing p_k vanish with it, so the floor on p only guards log2.
    sigma (..., N, N) and logp = log2 p (..., N) may carry leading lane axes,
    which the vector (..., 2 sum d_i^2) and the norm keep.
    """
    t = sigma * (logp[..., :, None] - logp[..., None, :])  # i t is -i[sigma, diag(log2 p)]
    lead, before, parts = t.shape[:-2], 1, []
    for d in cdims:
        after = t.shape[-1] // (before * d)
        g = t.reshape(lead + (before, d, after) * 2)
        if after > 1:  # trace out the cells after this one, then those before
            g = g.trace(axis1=-4, axis2=-1)
            if before > 1:
                g = g.trace(axis1=-4, axis2=-2)
        elif before > 1:
            g = g.trace(axis1=-6, axis2=-3)
        parts.append(g.reshape(lead + (d * d,)))
        before *= d
    v = (1j * np.concatenate(parts, axis=-1)).view(float)
    return v, np.sqrt(_sum(v * v, -1))


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
    rinv = _inv(sy * _UPPER + _EYE * (dsy == 0)[:, None, :])
    pg = pairs @ g[:, :, None]
    u = rinv @ pg[:, :mem]
    gam = gamma[:, None, None]
    w = rinv.swapaxes(1, 2) @ (dsy[:, :, None] * u + gam * (yy @ u - pg[:, mem:]))
    return gamma[:, None] * g + (pairs_t @ np.concatenate([w, -gam * u], axis=1))[:, :, 0]


def _entropy_terms(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum p log2 p over each row of p >= _FLOOR, minus the descent objective,
    and log2 p, which the gradient reads."""
    logp = np.log2(p)
    return _sum(p * logp, -1), logp


def _diag_rows(x: np.ndarray, xr: np.ndarray) -> np.ndarray:
    """Real diagonal of x r x† for each lane, from x and xr = x r, floored at _FLOOR."""
    return np.maximum(_sum(xr.view(float) * x.view(float), -1), _FLOOR)


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


def _start_bases(cdims, k: int, rng_seed: int) -> list[np.ndarray]:
    """The cell unitaries of start k of a search with cell dimensions cdims.

    Start 0 is the computational basis (exact for classical inputs).  When
    all m cells are qubits, starts 1..2**m-1 are the Z/X product bases: bit
    j of k puts cell j in the Hadamard basis, else in the computational one.
    Every later start, and every start but 0 of a partition with a larger
    cell, draws Haar unitaries from a generator seeded rng_seed + k.
    """
    if k == 0 or (set(cdims) == {2} and k < 2 ** len(cdims)):
        return [_HADAMARD if k >> j & 1 else np.eye(d, dtype=complex) for j, d in enumerate(cdims)]
    rng = np.random.default_rng(rng_seed + k)
    return [random_unitary(d, rng) for d in cdims]


class _LaneSearch:
    """Starts 0..starts-1 of several searches, advanced in lockstep as stacked lanes.

    The searches ("jobs") share their cell dimensions; each has its own
    permuted matrix and mass_cap.  A dict of lane arrays has one row per start
    in flight: its job ("job"), start ("ids"), job's matrix and mass_cap,
    unitaries, objective, evaluations, gradient, direction and curvature
    pairs, the line-search data of the direction, and the (p, unitaries, |G|)
    of the start's best iterate so far ("bp", "bu", "bg").  The unitaries
    are stacked per run of equal consecutive cell dimensions, (m, count, d,
    d), so one eigh serves every cell of a run.  Each lane's arithmetic reads
    its own row only, so a start follows the same iterates in any lane,
    beside any others of any job.

    The (job, start) pairs open lanes in that order, up to _WIDTH in flight;
    a lane goes when its start stops (see _finish), and the next pair takes
    its place.  bases holds the cell unitaries of each start, which every
    job shares (see _start_bases); they are stacked per run once, here.
    """

    def __init__(self, mats, cdims, max_evals, mass_caps, bases):
        self.mats, self.cdims, self.max_evals, self.mass_caps = mats, cdims, max_evals, mass_caps
        # (d, count) per run of equal consecutive cell dimensions
        self.runs = [(d, len(list(run))) for d, run in itertools.groupby(cdims)]
        ends = itertools.accumulate(c for _, c in self.runs)
        self.bases = [np.array([us[e - c:e] for us in bases]) for (_, c), e in zip(self.runs, ends)]
        self.nvec = 2 * sum(d * d for d in cdims)  # real length of the generator vector

    def _cells(self, stacks) -> list[np.ndarray]:
        """Each cell's view (m, ...) of per-run stacks (m, count, ...), in cell order."""
        return [a[:, j] for a, (_, c) in zip(stacks, self.runs) for j in range(c)]

    def _finish(self, lanes, stopped, out) -> dict | None:
        """Record the (p, unitaries, |G|, evals) of each stopped lane's best
        iterate in out[job][start], as copies; the lanes that go on, or None."""
        if not np.count_nonzero(stopped):
            return lanes
        cells = self._cells(lanes["bu"])
        for i in stopped.nonzero()[0].tolist():
            us = [u[i].copy() for u in cells]
            out[lanes["job"][i]][lanes["ids"][i]] = (
                lanes["bp"][i].copy(), us, lanes["bg"][i], int(lanes["evals"][i])
            )
        keep = (~stopped).nonzero()[0]
        return _take(lanes, keep) if keep.size else None

    def run(self) -> list[list[tuple]]:
        """Per job, (p, unitaries, |G|, evals) of each start, in start order.

        One errstate serves every step: a LAPACK failure in eigh or inv, or
        any other invalid value, raises LinAlgError, as np.linalg does.
        """
        starts = len(self.bases[0])
        queue = itertools.product(range(len(self.mats)), range(starts))
        out = [[None] * starts for _ in self.mats]
        lanes = None
        with np.errstate(call=_linalg_error, invalid="call"):
            while True:
                free = _WIDTH - (0 if lanes is None else len(lanes["h"]))
                new = list(itertools.islice(queue, free))
                if lanes is None and not new:
                    return out
                lanes = self._step(lanes, new, out)

    def _step(self, lanes, new, out):
        """One iteration of every lane in flight and the first of each new start."""
        if lanes is not None:
            lanes = self._line_search(lanes, out)
        if new:
            fresh = self._open(new)
            lanes = fresh if lanes is None else _concat(lanes, fresh)
        if lanes is None:
            return None
        lanes = self._iterate(lanes)
        # stops by itself: converged, out of evaluations, or stalled already
        # at the first trial step eta = 1
        evals = lanes["evals"]
        stopped = (lanes["gn"] < GRAD_TOL) | (evals >= self.max_evals)
        stopped |= lanes["slope"] < _STALL
        # the best iterate is the last whose probability mass at or below
        # _MASS is at most its job's mass_cap (see closest_classical_state);
        # until one is, the start's first iterate, the only one at a single
        # evaluation: the lanes opened in this step
        p, gn = lanes.pop("p"), lanes.pop("gn")
        take = _sum(p * (p <= _MASS), -1) <= lanes["cap"]
        if new:
            take |= evals == 1
        if np.count_nonzero(take) == len(take):
            lanes.update(bp=p, bu=lanes["u"], bg=gn)
        else:
            lanes.update(
                bp=np.where(take[:, None], p, lanes["bp"]),
                bu=[np.where(take[:, None, None, None], u, b) for u, b in zip(lanes["u"], lanes["bu"])],
                bg=np.where(take, gn, lanes["bg"]),
            )
        lanes = self._finish(lanes, stopped, out)
        return None if lanes is None else self._prepare(lanes)

    def _open(self, new) -> dict:
        """Lane rows for the new (job, start) pairs, at their first iterate,
        from the stacked bases of their starts."""
        job, ids = np.array([j for j, _ in new]), np.array([k for _, k in new])
        u = [stack[ids] for stack in self.bases]
        mat = self.mats[job]
        b = kron_all(self._cells(u))
        sigma = b.conj().swapaxes(1, 2) @ mat @ b
        p = np.maximum(sigma.diagonal(0, 1, 2).real, _FLOOR)
        h, logp = _entropy_terms(p)
        n = len(new)
        return {
            "job": job, "ids": ids, "mat": mat, "cap": self.mass_caps[job],
            "u": u, "sigma": sigma, "p": p, "logp": logp,
            "h": h, "evals": np.ones(n, dtype=int), "g": np.zeros((n, self.nvec)),
            "step": np.zeros((n, self.nvec)), "pairs": np.zeros((n, 2 * _MEMORY, self.nvec)),
            "gamma": np.ones(n), "bp": p, "bu": u, "bg": np.zeros(n),
        }

    def _line_search(self, lanes, out) -> dict | None:
        """Armijo backtracking from eta = 1 on every lane, then the accepted step.

        A lane whose evaluations run out, or whose step shrinks below the
        stall floor, stops where it is; the others move to their accepted trial.
        """
        k, r, ws, slope = lanes.pop("k"), lanes.pop("r"), lanes.pop("ws"), lanes.pop("slope")
        h = lanes["h"]
        evals = lanes["evals"] = lanes["evals"] + 1
        x = k * np.exp(-1j * ws)[:, None, :]
        xr = x @ r
        pt = _diag_rows(x, xr)
        ht, logp = _entropy_terms(pt)
        ok = ht >= h + _ARMIJO * slope  # False where Armijo fails (or NaN)
        # the accepted trials, in place; eta None: every lane took the full step eta = 1
        lanes.update(x=x, xr=xr, p=pt, ht=ht, logp=logp, eta=None)
        if np.count_nonzero(ok) < len(ok):
            m, pend = len(h), (~ok).nonzero()[0]
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
                htt, logpt = _entropy_terms(ptt)
                evals[pend] += 1
                ok = htt >= h[pend] + _ARMIJO * eta[pend] * slope[pend]
                acc = pend[ok]
                x[acc], xr[acc], pt[acc] = xt[ok], xrt[ok], ptt[ok]
                ht[acc], logp[acc] = htt[ok], logpt[ok]
                pend = pend[~ok]
            lanes["eta"] = eta
            lanes = self._finish(lanes, stopped, out)
            if lanes is None:
                return None
        d, eta, x = lanes.pop("d"), lanes.pop("eta"), lanes.pop("x")
        lanes["u"] = [
            (uv * np.exp(1j * w if eta is None else 1j * eta[:, None, None] * w)[:, :, None, :])
            @ v.conj().swapaxes(2, 3)
            for uv, v, w in zip(lanes.pop("uv"), lanes.pop("v"), lanes.pop("w"))
        ]
        lanes.update(
            sigma=lanes.pop("xr") @ x.conj().swapaxes(1, 2), h=lanes.pop("ht"),
            step=d if eta is None else eta[:, None] * d,
        )
        return lanes

    def _iterate(self, lanes) -> dict:
        """Gradient, curvature pair and next direction."""
        g, gn = _gradient(lanes.pop("sigma"), lanes.pop("logp"), self.cdims)
        pairs, gamma, step = lanes["pairs"], lanes["gamma"], lanes.pop("step")
        dy = lanes["g"] - g
        sy = _sum(step * dy, -1)
        add = sy > 1e-12 * _sum(step * step, -1)
        m, n_add = len(gn), np.count_nonzero(add)
        if n_add:
            mem = _MEMORY
            shifted = np.concatenate(
                [pairs[:, 1:mem], step[:, None], pairs[:, mem + 1:], dy[:, None]], axis=1
            )
            if n_add == m:
                pairs, gamma = shifted, sy / _sum(dy * dy, -1)
            else:
                pairs = np.where(add[:, None, None], shifted, pairs)
                gamma = np.where(add, sy / np.where(add, _sum(dy * dy, -1), 1.0), gamma)
        d = _lbfgs_direction(g, pairs, gamma)
        slope = _sum(g * d, -1)  # decrease rate of the objective along d
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
            wi, vi = _eigh(dc[:, at:at + c * d * d].reshape(m, c, d, d))
            at += c * d * d
            uv.append(u @ vi)
            v.append(vi)
            w.append(wi)
        # K and A from one kron of the stacked [V; UV]: its products are elementwise
        ka = kron_all(self._cells([np.concatenate(pair) for pair in zip(v, uv)]))
        k, a = ka[:m], ka[m:]
        ws = None  # w_1 ⊕ ... ⊕ w_m, in the order of the kron of the V_i
        for wc in self._cells(w):
            ws = wc if ws is None else (ws[:, :, None] + wc[:, None, :]).reshape(m, -1)
        lanes.update(
            uv=uv, v=v, w=w, ws=ws, k=k,
            r=a.conj().swapaxes(1, 2) @ lanes["mat"] @ a,
        )
        return lanes


def closest_classical_state(
    rho: DensityMatrix, partition, cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Find the closest classical state for the given partition into cells.

    q = S(rho||chi) is minimized over one unitary per cell, of any dimension,
    by Armijo-backtracked L-BFGS descents on the cell unitaries (Huang, Absil
    & Gallivan, SIAM J. Optim. 28, 470 (2018)); steepest descent crawls where
    outcomes of a rank-deficient rho vanish.  Start k begins at the bases
    of _start_bases, the one start rule: the computational basis at k = 0,
    the Z/X product bases for k < 2**m on m qubit cells, and otherwise Haar
    draws seeded rng_seed + k.  A start stops at |G| < GRAD_TOL, at
    max_evals evaluations, or when the line search stalls.

    Starts 0..starts-1 each run to their own stop, and the first start
    within 1e-12 of the best wins, as for the quantifiers' witnesses, so
    that start 0 keeps an exactly classical input exact.  The result is
    that of running the starts one after another, bit for bit, however many
    of them ran together in lanes, and beside whichever other searches (see
    closest_classical_states).  Some inputs need many starts: on a random
    rank-4 four-qubit state (seed 12) the qubit-cell minimum of 24 starts
    first appears at start 15, the all-Hadamard product, and 14 starts end
    3.56e-3 bits above it; on four qubit cells the default runs no Haar
    start.  The paper's evolved states need fewer.  On the 41-point series
    of both channels at c in {0.2, 0.4, 0.6, 0.8, 1}, the 7790 cut searches
    (every 2|2 and 1|3 cut, and the 1|2 cuts of each three-qubit reduction)
    end, at 4 starts, up to 1.35e-2 bits above the 16-start minimum, at 8
    up to 3.4e-4, and at 12 to 14 at most 6.8e-11, where 2|2 starts stall.
    Of the 2050 qubit-cell searches (the four qubits and the qubits of each
    three-qubit reduction), 4 starts end up to 4.58e-3 above the 16-start
    minimum, and 8 or more within the 1e-12 tie of it (at most 2.0e-13).
    The default is 14 starts.

    A start returns its last iterate with at most mass_cap = clip * (rho's
    least eigenvalue above clip) of probability at or below 2*clip, clip =
    DEFAULT_TOL.clip.  Past that point the Shannon entropy drops outcomes
    that the support test of `relative_entropy` still sees, so S(rho||chi)
    would be inf; rejecting such steps would stall the descent.

    This is closest_classical_states with one search.
    """
    return closest_classical_states([rho], [partition], cfg)[0]


def closest_classical_states(
    rhos, partitions, cfg: SearchConfig = SearchConfig()
) -> list[SearchResult]:
    """closest_classical_state of each rho for its partition, in input order.

    The partitions may differ in their cell dimensions.  The searches with
    equal cell dimensions run in one lane search, one per distinct list of
    cell dimensions in order of first appearance: their starts advance
    together as lanes, up to 128 in all, so they share the fixed cost of
    each step, and the bases of their starts, built once per lane search
    by _start_bases.  Each result is bit for bit that of a lone
    closest_classical_state call.

    One entropy._entropies call first memoizes each state's spectrum (for
    its mass_cap) and entropy (for its q), or raises LinAlgError.
    """
    rhos, partitions = list(rhos), list(partitions)
    if len(rhos) != len(partitions):
        raise ValueError(f"{len(rhos)} states but {len(partitions)} partitions")
    _entropies(rhos)
    clip = DEFAULT_TOL.clip
    cells, mats, caps = [], [], []
    jobs_by_cdims: dict[tuple[int, ...], list[int]] = {}
    for j, (rho, partition) in enumerate(zip(rhos, partitions)):
        job_cells = tuple(_indices(cell) for cell in partition)
        jobs_by_cdims.setdefault(_cell_dims(rho.dims, job_cells), []).append(j)
        cells.append(job_cells)
        order = [i for cell in job_cells for i in cell]
        mats.append(permute_subsystems(rho.mat, rho.dims, order))
        w = rho._memo["eig"]
        caps.append(clip * w[w > clip].min())

    results = [None] * len(rhos)
    for cdims, jobs in jobs_by_cdims.items():
        bases = [_start_bases(cdims, k, cfg.rng_seed) for k in range(cfg.starts)]
        search = _LaneSearch(np.array([mats[j] for j in jobs]), cdims, cfg.max_evals,
                             np.array([caps[j] for j in jobs]), bases)
        for j, outcomes in zip(jobs, search.run()):
            results[j] = _result(rhos[j], cells[j], outcomes)
    return results


def _optimum(pick, values: list, items):
    """pick(values), min or max, and the first of items whose value lies
    within _TIE of it, so that rounding does not pick the witness.  A NaN
    value lies within _TIE of nothing; a NaN optimum goes to the first item."""
    best = pick(values)
    for value, item in zip(values, items):
        if value == best or abs(value - best) <= _TIE or math.isnan(best):
            return best, item


def _result(rho: DensityMatrix, cells, outcomes) -> SearchResult:
    """The SearchResult of one job from the outcomes of its starts: the
    first start that _optimum picks, with its own q.  The outcomes are the
    search's own, so the entropies of their distributions and the basis
    skip the checks of outside input (see SearchResult)."""
    s_rho = von_neumann_entropy(rho)
    qs = [_entropy_bits(p) - s_rho for p, *_ in outcomes]
    _, k = _optimum(min, qs, range(len(qs)))
    _, us, gnorm, _ = outcomes[k]
    basis = LocalBasisSet._derived(cells, us)
    evals = sum(o[3] for o in outcomes)
    return SearchResult(dephase(rho, basis), basis, qs[k], evals, float(gnorm))
