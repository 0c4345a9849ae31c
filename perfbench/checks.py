"""Correctness checks for benchmark outputs, run outside the timed region.

Each checker returns a list of failure messages; an empty list means the item
passed.  The references are recomputed independently of the code path that
produced the value: genuine total correlations from the literal golden state
and relative entropies to products of its marginals, fidelities from their
closed forms, and search values from the relative entropy to the returned
closest classical state and from the computational-basis upper bound.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gencorr import (
    DensityMatrix,
    LocalBasisSet,
    appendix_golden_state,
    partial_trace,
    quantumness_in_basis,
    relative_entropy,
)

I_TOL = 1e-10
F_TOL = 1e-10
Q_TOL = 1e-9
I_MEASURES = ("I4", "I3", "I3_abEa", "I3_aEaEb")
Q_MEASURES = ("Q4", "Q3")
C_MEASURES = ("C4", "C3")
TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _reduce(mat: np.ndarray, n: int, keep) -> np.ndarray:
    """Partial trace of an n-qubit operator onto `keep`, by tensor contraction."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows, cols = list(letters[:n]), list(letters[n : 2 * n])
    for i in range(n):
        if i not in keep:
            cols[i] = rows[i]
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    spec = "".join(rows) + "".join(cols) + "->" + out
    d = 2 ** len(keep)
    return np.einsum(spec, mat.reshape((2,) * (2 * n))).reshape(d, d)


def _cut_product(mat: np.ndarray, n: int, cell) -> np.ndarray:
    """rho_cell ⊗ rho_rest with the factors put back in subsystem order."""
    rest = tuple(i for i in range(n) if i not in cell)
    a = _reduce(mat, n, cell).reshape((2,) * (2 * len(cell)))
    b = _reduce(mat, n, rest).reshape((2,) * (2 * len(rest)))
    # axes of the outer product: cell rows, cell cols, rest rows, rest cols
    k, m = len(cell), len(rest)
    row_axis = {s: pos for pos, s in enumerate(cell)}
    row_axis.update({s: 2 * k + pos for pos, s in enumerate(rest)})
    col_axis = {s: k + pos for pos, s in enumerate(cell)}
    col_axis.update({s: 2 * k + m + pos for pos, s in enumerate(rest)})
    axes = [row_axis[s] for s in range(n)] + [col_axis[s] for s in range(n)]
    prod = np.multiply.outer(a, b).transpose(axes)
    return prod.reshape(2**n, 2**n)


def genuine_total_reference(mat: np.ndarray) -> float:
    """min over bipartite cuts of S(rho || rho_c1 ⊗ rho_c2) for an n-qubit state."""
    n = int(round(math.log2(mat.shape[0])))
    rho = DensityMatrix((2,) * n, mat)
    best = math.inf
    for size in range(1, n // 2 + 1):
        for cell in itertools.combinations(range(n), size):
            if 2 * size == n and 0 not in cell:
                continue  # each balanced cut once
            sigma = DensityMatrix((2,) * n, _cut_product(mat, n, cell))
            best = min(best, relative_entropy(rho, sigma))
    return best


def i_references(c: float, p: float, kind: str) -> dict[str, float]:
    """I4, I3 and the two named I3 reductions of the golden state."""
    mat = np.asarray(appendix_golden_state(c, p, kind).mat)
    triple = {t: genuine_total_reference(_reduce(mat, 4, t)) for t in TRIPLES}
    return {
        "I4": genuine_total_reference(mat),
        "I3": max(triple.values()),
        "I3_abEa": triple[(0, 1, 2)],
        "I3_aEaEb": triple[(0, 1, 3)],
    }


def fidelity_references(c: float, p: float, kind: str) -> dict[str, float]:
    """Closed forms of the W and GHZ fidelities of the evolved states."""
    if kind == "ad":
        f_w = math.sqrt((1 + 3 * c) * (1 + 2 * math.sqrt(p * (1 - p))) / 8)
        f_ghz = 0.0
    else:
        f_w = math.sqrt((1 + 3 * c) * (1 - p) / 8)
        f_ghz = math.sqrt((1 + 3 * c) * p) / 2
    return {"F_W": f_w, "F_GHZ": f_ghz}


def _computational_bound(rho: DensityMatrix, cells) -> float:
    unitaries = [np.eye(2 ** len(cell)) for cell in cells]
    return quantumness_in_basis(rho, LocalBasisSet(cells, unitaries))


def _check_q(name: str, q: float, bound: float) -> list[str]:
    if not math.isfinite(q):
        return [f"{name} = {q} is not finite"]
    errors = []
    if q < -Q_TOL:
        errors.append(f"{name} = {q!r} is negative")
    if q > bound + Q_TOL:
        errors.append(f"{name} = {q!r} exceeds the computational-basis value {bound!r}")
    return errors


def _row_basics(row: dict, measures) -> list[str]:
    errors = [f"flagged: {flag}" for flag in row.get("_flags", ())]
    for m in measures:
        if not math.isfinite(row.get(m, math.nan)):
            errors.append(f"{m} = {row.get(m)} is not finite")
    return errors


def check_entropy_row(row: dict) -> list[str]:
    """I values against the golden-state recomputation, F against closed forms."""
    errors = _row_basics(row, I_MEASURES + ("F_W", "F_GHZ"))
    if errors:
        return errors
    c, p, kind = row["c"], row["p"], row["channel"]
    refs = i_references(c, p, kind)
    for m, ref in refs.items():
        if abs(row[m] - ref) > I_TOL:
            errors.append(f"{m} = {row[m]!r}, reference {ref!r}")
    for m, ref in fidelity_references(c, p, kind).items():
        if abs(row[m] - ref) > F_TOL:
            errors.append(f"{m} = {row[m]!r}, closed form {ref!r}")
    return errors


def check_search_row(row: dict) -> list[str]:
    """Q4/Q3 within [0, computational-basis value]; C4/C3 finite and >= 0."""
    errors = _row_basics(row, Q_MEASURES + C_MEASURES)
    if errors:
        return errors
    rho = appendix_golden_state(row["c"], row["p"], row["channel"])
    q4_bound = _computational_bound(rho, [(i,) for i in range(rho.n)])
    errors += _check_q("Q4", row["Q4"], q4_bound)
    q3_bound = max(
        _computational_bound(partial_trace(rho, t), [(0,), (1,), (2,)]) for t in TRIPLES
    )
    errors += _check_q("Q3", row["Q3"], q3_bound)
    for m in C_MEASURES:
        if row[m] < -Q_TOL:
            errors.append(f"{m} = {row[m]!r} is negative")
    return errors


def check_cut_search(rho: DensityMatrix, cells, chi: DensityMatrix, q: float) -> list[str]:
    """q = S(rho || chi) and q within [0, computational-basis value]."""
    errors = _check_q("q", q, _computational_bound(rho, cells))
    if errors:
        return errors
    rel = relative_entropy(rho, chi)
    if not abs(rel - q) <= Q_TOL:
        errors.append(f"q = {q!r} but S(rho||chi) = {rel!r}")
    return errors
