"""Von Neumann entropy, relative entropy, and the total correlation I.

All logarithms are base 2.  A relative entropy between states with
incompatible supports returns math.inf: an explicit sentinel that downstream
minimizations treat as "worst candidate", never a floating overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_TOL, DensityMatrix, hermitize, partial_trace

__all__ = [
    "INF_RELATIVE_ENTROPY",
    "shannon",
    "von_neumann_entropy",
    "relative_entropy",
    "total_correlation",
]

INF_RELATIVE_ENTROPY = math.inf


def shannon(probs: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector.

    Entries at or below DEFAULT_TOL.clip are skipped.
    """
    return _entropy_bits(np.asarray(probs, dtype=float))


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > DEFAULT_TOL.clip]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho); between 0 and log2(dim).  Computed once per state."""
    s = rho._memo.get("S")
    if s is None:
        s = rho._memo.setdefault("S", _entropy_bits(np.linalg.eigvalsh(np.asarray(rho.mat))))
    return s


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = tr(rho(log2 rho - log2 sigma)) in bits.

    Returns the +inf sentinel when the support of rho is not contained in the
    support of sigma.
    """
    if rho.dims.dims != sigma.dims.dims:
        raise ValueError(f"dimension mismatch: {rho.dims.dims} vs {sigma.dims.dims}")
    wr, vr = np.linalg.eigh(hermitize(np.asarray(rho.mat)))
    ws, vs = np.linalg.eigh(hermitize(np.asarray(sigma.mat)))
    clip = DEFAULT_TOL.clip
    r_support = wr > clip
    s_null = ws <= clip
    if np.any(s_null) and np.any(r_support):
        # squared overlaps of rho's support eigenvectors with sigma's null space
        overlap = np.abs(vs[:, s_null].conj().T @ vr[:, r_support]) ** 2
        if overlap.size and overlap.sum(axis=0).max() > clip:
            return INF_RELATIVE_ENTROPY
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
    s_marg = sum(von_neumann_entropy(partial_trace(rho, [i])) for i in range(rho.n))
    return s_marg - von_neumann_entropy(rho)
