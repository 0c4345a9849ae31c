"""Von Neumann entropy, relative entropy, and the total correlation I.

All logarithms are base 2.  A relative entropy between states with
incompatible supports returns math.inf.

Every spectrum of a state comes from _entropies, which batches the spectra
of many states and matrices into one eigenvalue call per matrix side and
memoizes each state's spectrum ("eig") with its entropy ("S").
relative_entropy, a test oracle, takes its own.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .linalg import DEFAULT_TOL, DensityMatrix, _checked, hermitize, partial_trace

__all__ = [
    "shannon",
    "von_neumann_entropy",
    "relative_entropy",
    "total_correlation",
]

# The LAPACK kernel of np.linalg.eigvalsh (lower triangle), called directly
# under the errstate that np.linalg enters on every call (see _spectra_errstate).
_eigvalsh = _umath_linalg.eigvalsh_lo
_sum = np.add.reduce  # np.sum without its Python layer: the same pairwise sum


def _linalg_error(err, flag):
    """The errstate call of the direct LAPACK kernel calls, here and in the
    basis search: a LinAlgError, as np.linalg raises."""
    raise LinAlgError(f"{err} value in a LAPACK routine or the arithmetic around it")


def _spectra_errstate() -> np.errstate:
    """The errstate that np.linalg enters around an eigenvalue call;
    _entropies enters it once around all the spectra of a call."""
    return np.errstate(call=_linalg_error, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def shannon(probs: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector.

    Entries at or below DEFAULT_TOL.clip are skipped.  Raises ValueError
    unless every entry is finite and at least -DEFAULT_TOL.psd, and the
    entries sum to 1 within DEFAULT_TOL.trace.
    """
    w = np.asarray(probs, dtype=float)
    total = float(_sum(w, axis=None))  # not finite if an entry is not
    if not abs(total - 1.0) <= DEFAULT_TOL.trace:
        raise ValueError(f"probabilities must sum to 1, got a sum of {total}")
    if w.min() < -DEFAULT_TOL.psd:
        raise ValueError(f"negative probability {w.min():.3e} below -{DEFAULT_TOL.psd:.0e}")
    return _entropy_bits(w)


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > DEFAULT_TOL.clip]
    if w.size == 0:
        return 0.0
    return float(-_sum(w * np.log2(w)))


def _entropy_rows(w: np.ndarray) -> np.ndarray:
    """_entropy_bits of each row of a (k, d) stack with d < 8, in one pass.

    Bit for bit: below 8 entries numpy's sum adds in order from +0.0, so the
    0.0 term of a skipped entry changes no bits.  From 8 entries on it keeps
    8 partial sums by position, and a skipped entry would move the others.
    """
    kept = w > DEFAULT_TOL.clip
    v = np.where(kept, w, 1.0)
    s = -_sum(v * np.log2(v), axis=-1)
    return np.where(kept.any(axis=-1), s, 0.0)  # _entropy_bits of no entries is 0.0


def _entropies(items) -> list[float]:
    """The entropy of each item, in order: of each state, and of each plain
    Hermitian matrix (a cut marginal that no state holds).

    The one place a spectrum is taken.  The states without a memoized "S"
    and the matrices take theirs in one eigenvalue call per matrix side, the
    states first, under _spectra_errstate().  Spectra of fewer than 8
    entries get their entropies in one _entropy_rows pass, longer ones one
    _entropy_bits call each.  Each state is checked by linalg._checked
    before its spectrum is taken (LAPACK reports no error for some matrices
    with a NaN entry, and _entropy_bits would read a NaN spectrum as 0); a
    matrix is the caller's to check.  Each state's spectrum ("eig", a
    read-only row of its side's stack) and entropy ("S") are memoized
    together, once every side has its spectra, so a call that raises
    memoizes none.
    """
    sides: dict[int, tuple[dict, list]] = {}  # side -> (states, each once; matrices)
    for item in items:
        if type(item) is np.ndarray:
            sides.setdefault(len(item), ({}, []))[1].append(item)
        elif "S" not in item._memo:
            sides.setdefault(item.dim, ({}, []))[0][item] = None
    found, raw = [], {}
    with _spectra_errstate():
        for side, (group, mats) in sides.items():
            stack = np.array([_checked(rho).mat for rho in group] + mats)
            w = _eigvalsh(stack, signature="D->d")
            w.setflags(write=False)
            s = _entropy_rows(w).tolist() if side < 8 else [_entropy_bits(row) for row in w]
            found.append((group, w, s))
            raw[side] = iter(s[len(group):])  # the matrices' entropies, in the order given
    for group, w, s in found:
        for rho, w_row, s_row in zip(group, w, s):
            rho._memo.setdefault("eig", w_row)
            rho._memo.setdefault("S", s_row)
    return [next(raw[len(item)]) if type(item) is np.ndarray else item._memo["S"]
            for item in items]


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho); between 0 and log2(dim).  Computed once per state."""
    return rho._memo["S"] if "S" in rho._memo else _entropies([rho])[0]


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = tr(rho(log2 rho - log2 sigma)) in bits.

    Returns the +inf sentinel when the support of rho is not contained in the
    support of sigma.
    """
    if rho.dims != sigma.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    wr, vr = np.linalg.eigh(hermitize(np.asarray(rho.mat)))
    ws, vs = np.linalg.eigh(hermitize(np.asarray(sigma.mat)))
    clip = DEFAULT_TOL.clip
    r_support = wr > clip
    s_null = ws <= clip
    if np.any(s_null) and np.any(r_support):
        # squared overlaps of rho's support eigenvectors with sigma's null space
        overlap = np.abs(vs[:, s_null].conj().T @ vr[:, r_support]) ** 2
        if overlap.size and overlap.sum(axis=0).max() > clip:
            return math.inf
    tr_rho_log_rho = float(np.sum(wr[r_support] * np.log2(wr[r_support]))) if np.any(r_support) else 0.0
    # tr(rho log2 sigma) via sigma's support eigenbasis
    s_support = ~s_null
    weights = np.real(np.einsum("ij,jk,ki->i", vs[:, s_support].conj().T,
                                np.asarray(rho.mat), vs[:, s_support]))
    tr_rho_log_sigma = float(np.sum(weights * np.log2(ws[s_support])))
    return tr_rho_log_rho - tr_rho_log_sigma


def total_correlation(rho: DensityMatrix) -> float:
    """Distance to the closest fully-product state: sum_i S(rho_i) - S(rho).

    The closest product state across the trivial partition is the product of
    the marginals, which turns the relative-entropy minimization into this
    closed form.
    """
    if rho.n < 2:
        raise ValueError("total correlation needs at least two subsystems")
    s = _entropies([rho, *(partial_trace(rho, [i]) for i in range(rho.n))])
    return sum(s[1:]) - s[0]
