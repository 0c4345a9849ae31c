"""Dense complex linear algebra on small composite Hilbert spaces.

Carries the two state types (DensityMatrix, PureState) used throughout, plus
Kronecker products, partial traces and subsystem permutations.  Basis
convention: the computational-basis index is the big-endian mixed-radix number
over the subsystem dimensions (subsystem 0 most significant), which is exactly
numpy's Kronecker-product ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "CompositeDims",
    "DensityMatrix",
    "PureState",
    "kron_all",
    "partial_trace",
    "hermitize",
    "permutation_indices",
    "permute_subsystems",
    "random_unitary",
    "state_to_json",
    "state_from_json",
    "save_state",
    "load_state",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared by all validation and support checks."""

    herm: float = 1e-9
    trace: float = 1e-9
    psd: float = 1e-9
    norm: float = 1e-9
    clip: float = 1e-12


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class CompositeDims:
    """Ordered per-subsystem dimensions of a composite Hilbert space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise ValueError("need at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def subset(self, indices) -> "CompositeDims":
        return CompositeDims(tuple(self.dims[i] for i in indices))


def _as_dims(dims) -> CompositeDims:
    return dims if isinstance(dims, CompositeDims) else CompositeDims(tuple(dims))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2; cheap guard against accumulated drift."""
    return (m + m.conj().T) / 2


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator with explicit subsystem structure.

    DensityMatrix(dims, mat) validates its input: Hermiticity, unit trace and
    an eigvalsh PSD check, all to DEFAULT_TOL.  Every state built from outside
    data goes through it, including state_from_json, werner_state,
    classical_state and appendix_golden_state.  Derived states are valid by
    construction and skip the checks: the outputs of partial_trace, dephase,
    evolve_global and PureState.to_density.

    The backing array is immutable after construction, so values are safe to
    share between concurrent workers.  Each state also carries a private memo
    of its partial traces (keyed by the sorted kept subsystems) and its von
    Neumann entropy, so a quantifier that asks for the same reduction again
    gets the same object and the same float.  The memo never goes stale, as
    dims and mat never change; it holds at most 2**n - 2 reductions and dies
    with its state.
    """

    dims: CompositeDims
    mat: np.ndarray
    _memo: dict = field(init=False, repr=False, compare=False)

    def __init__(self, dims, mat) -> None:
        dims = _as_dims(dims)
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        if mat.shape[0] != dims.total:
            raise ValueError(
                f"matrix side {mat.shape[0]} does not match dims {dims.dims}"
            )
        herm_dev = np.abs(mat - mat.conj().T).max()
        if herm_dev > DEFAULT_TOL.herm:
            raise ValueError(f"not Hermitian: max|M - M†| = {herm_dev:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > DEFAULT_TOL.trace:
            raise ValueError(f"trace must be 1, got {tr}")
        lo = float(np.linalg.eigvalsh(hermitize(mat)).min())
        if lo < -DEFAULT_TOL.psd:
            raise ValueError(f"negative eigenvalue {lo:.3e} below -{DEFAULT_TOL.psd:.0e}")
        self._set(dims, mat.copy())

    def _set(self, dims: CompositeDims, mat: np.ndarray) -> None:
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _derived(cls, dims, mat: np.ndarray) -> "DensityMatrix":
        """Unchecked state for a fresh complex array that nothing else holds
        and that is PSD, unit-trace and Hermitian by construction."""
        rho = object.__new__(cls)
        rho._set(_as_dims(dims), mat)
        return rho

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def dim(self) -> int:
        return self.dims.total


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a composite space."""

    dims: CompositeDims
    vec: np.ndarray

    def __init__(self, dims, vec) -> None:
        dims = _as_dims(dims)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.shape[0] != dims.total:
            raise ValueError(f"vector length {vec.shape[0]} does not match dims {dims.dims}")
        nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > DEFAULT_TOL.norm:
            raise ValueError(f"norm must be 1, got {nrm}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vec", vec)

    @property
    def n(self) -> int:
        return self.dims.n

    def to_density(self) -> DensityMatrix:
        return DensityMatrix._derived(self.dims, np.outer(self.vec, self.vec.conj()))


_ONE = np.ones((1, 1), dtype=complex)
_ONE.setflags(write=False)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of matrices, the first factor major (as np.kron).

    Factors may be stacks (..., r, c) with broadcastable leading axes; the
    product is taken matrix by matrix over the last two axes.
    """
    out = _ONE
    for m in mats:
        m = np.asarray(m, dtype=complex)
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        r1, r2, c1, c2 = out.shape[-4:]
        out = out.reshape(out.shape[:-4] + (r1 * r2, c1 * c2))
    return _ONE.copy() if out is _ONE else out


def _check_subset(n: int, subset) -> tuple[int, ...]:
    subset = tuple(int(i) for i in subset)
    if len(subset) == 0:
        raise ValueError("subsystem subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate subsystem indices in {subset}")
    if any(i < 0 or i >= n for i in subset):
        raise ValueError(f"subsystem indices {subset} out of range for n={n}")
    return subset


def _ptrace_arr(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace on a raw array; keep indices must be validated & sorted."""
    dims = list(dims)
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    t = mat.reshape(dims + dims)
    perm = list(keep) + traced + [i + n for i in keep] + [i + n for i in traced]
    t = np.transpose(t, perm)
    dk = int(np.prod([dims[i] for i in keep]))
    dt = int(np.prod([dims[i] for i in traced]))
    return np.einsum("abcb->ac", t.reshape(dk, dt, dk, dt))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems, in original subsystem order.

    Computed once per rho and kept subset; a repeat returns the same object.
    """
    keep = tuple(sorted(_check_subset(rho.n, keep)))
    if len(keep) == rho.n:
        return rho
    red = rho._memo.get(keep)
    if red is None:
        mat = hermitize(_ptrace_arr(np.asarray(rho.mat), rho.dims.dims, keep))
        red = rho._memo.setdefault(keep, DensityMatrix._derived(rho.dims.subset(keep), mat))
    return red


def permutation_indices(dims, perm) -> np.ndarray:
    """Basis-index map realizing a subsystem reordering.

    perm lists source subsystems in their new order; entry m of the result is
    the original composite index of permuted composite index m.
    """
    dims = list(dims)
    n = len(dims)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    total = int(np.prod(dims))
    coords = np.unravel_index(np.arange(total), [dims[p] for p in perm])
    orig = [None] * n
    for slot, p in enumerate(perm):
        orig[p] = coords[slot]
    return np.ravel_multi_index(orig, dims)


def permute_subsystems(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder the subsystems of an operator via an exact index map."""
    idx = permutation_indices(dims, perm)
    return np.asarray(mat)[np.ix_(idx, idx)]


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def state_to_json(state: DensityMatrix | PureState) -> str:
    """Serialize to the {"dims", "re", "im"} JSON schema (exact round-trip)."""
    if isinstance(state, DensityMatrix):
        arr = np.asarray(state.mat)
        re, im = arr.real.tolist(), arr.imag.tolist()
    else:
        vec = np.asarray(state.vec)
        re, im = vec.real.tolist(), vec.imag.tolist()
    return json.dumps({"dims": list(state.dims.dims), "re": re, "im": im})


def state_from_json(text: str) -> DensityMatrix | PureState:
    """Parse the state_to_json schema: a 2-D array is a density matrix, a
    1-D array a state vector.  Malformed input raises ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a state must be a JSON object with keys dims, re, im")
    missing = [k for k in ("dims", "re", "im") if k not in obj]
    if missing:
        raise ValueError(f"state JSON lacks the key(s) {missing}")
    dims = tuple(obj["dims"])
    arr = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if arr.ndim == 2:
        return DensityMatrix(dims, arr)
    if arr.ndim != 1:
        raise ValueError(f"state arrays must be 1-D (vector) or 2-D (matrix), got {arr.ndim}-D")
    return PureState(dims, arr)


def save_state(state: DensityMatrix | PureState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))


def load_state(path) -> DensityMatrix | PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())
