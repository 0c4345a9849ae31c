"""Von Neumann entropy, relative entropy, and the total correlation I.

All logarithms are base 2.  A relative entropy between states with
incompatible supports returns math.inf.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .linalg import DEFAULT_TOL, DensityMatrix, hermitize, partial_trace

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
    """The errstate that np.linalg enters around an eigenvalue call.  A
    quantifier that takes many spectra enters it once around all of them."""
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


def _spectrum(rho: DensityMatrix) -> np.ndarray:
    """The eigenvalues of rho, ascending (read-only).  Computed once per state.

    The caller holds _spectra_errstate(), under which a LAPACK failure
    raises LinAlgError, as np.linalg.eigvalsh does.  A matrix with a
    non-finite entry raises it too, before LAPACK sees it: for some such
    matrices LAPACK reports no error and returns a NaN spectrum (a 2x2 NaN
    matrix), which _entropy_bits would read as 0, or finite values.
    """
    w = rho._memo.get("eig")
    if w is None:
        if not cmath.isfinite(_sum(rho.mat, axis=None)):
            raise LinAlgError("the spectrum of a matrix with a non-finite entry")
        w = _eigvalsh(rho.mat, signature="D->d")
        w.setflags(write=False)
        w = rho._memo.setdefault("eig", w)
    return w


def _entropy(rho: DensityMatrix) -> float:
    """von_neumann_entropy for a caller that holds _spectra_errstate()."""
    s = rho._memo.get("S")
    if s is None:
        s = rho._memo.setdefault("S", _entropy_bits(_spectrum(rho)))
    return s


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho); between 0 and log2(dim).  Computed once per state."""
    s = rho._memo.get("S")
    if s is None:
        with _spectra_errstate():
            s = _entropy(rho)
    return s


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
    with _spectra_errstate():
        s_marg = sum(_entropy(partial_trace(rho, [i])) for i in range(rho.n))
        return s_marg - _entropy(rho)
