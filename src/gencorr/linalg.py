"""Dense complex linear algebra on small composite Hilbert spaces.

Carries the two state types (DensityMatrix, PureState) used throughout, plus
Kronecker products, partial traces and subsystem permutations.  A state's
dims is a plain tuple of its subsystem dimensions.  Basis convention: the
computational-basis index is the big-endian mixed-radix number over the
subsystem dimensions (subsystem 0 most significant), which is exactly numpy's
Kronecker-product ordering, so subsystems are reordered in one way: a matrix
is reshaped to one axis per subsystem, and those axes are transposed.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

try:  # np.einsum's C kernel, called without its Python wrapper and dispatcher
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2.0
    from numpy.core.multiarray import c_einsum as _einsum

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "DensityMatrix",
    "PureState",
    "kron_all",
    "partial_trace",
    "hermitize",
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


def _check_dims(dims) -> tuple[int, ...]:
    """dims as a tuple of ints: at least one subsystem, each an integer >= 2."""
    dims = tuple(dims)
    if not dims:
        raise ValueError("need at least one subsystem")
    if any(not isinstance(d, numbers.Integral) or d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must be integers >= 2, got {dims}")
    return tuple(int(d) for d in dims)


def _all_finite(arr: np.ndarray) -> bool:
    """The one finiteness test, of outside data (_check_finite) and of
    derived states (_checked)."""
    return bool(np.isfinite(arr).all())


def _check_finite(arr: np.ndarray, what: str) -> None:
    """ValueError unless every entry of arr is finite.  Called before any
    arithmetic on outside data: a NaN passes every `dev > tol` test."""
    if not _all_finite(arr):
        raise ValueError(f"{what} has a non-finite entry")


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M†)/2 of a matrix, or of each matrix of a
    (..., d, d) stack; cheap guard against accumulated drift.  Elementwise,
    so a stack gets the bytes of one call per matrix."""
    h = m + m.conj().swapaxes(-1, -2)
    h /= 2
    return h


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator with explicit subsystem structure.

    DensityMatrix(dims, mat) validates its input: dims (a tuple of integer
    subsystem dimensions, each at least 2), finite entries and, to
    DEFAULT_TOL, Hermiticity, unit trace and an eigvalsh PSD check.  Every
    state built from outside data goes through it, including state_from_json,
    werner_state and appendix_golden_state.  Derived states are valid by
    construction and skip the checks: the outputs of partial_trace, dephase
    (among them the chi of every basis search, whose result basis skips
    LocalBasisSet's checks too), evolve_global and PureState.to_density.
    A derived state's entries are checked for finiteness once, when a
    spectrum or a reduction is first taken of it (see _checked); the
    private flag _finite records the check, and a validated state or a
    reduction that partial_trace makes starts with it set.

    The backing array is immutable after construction.  Each state also
    carries a private memo of its partial traces (keyed by the sorted kept
    subsystems, which partial_trace checks before it reads the memo), its
    spectrum ("eig", a read-only row of the stack entropy._entropies took it
    in) together with its von Neumann entropy ("S"), its
    genuine_total_In report ("I_n") and the basis searches the quantifiers
    ran on it (keyed by ("search", cells, SearchConfig)), so a quantifier
    that asks for the same reduction, report or search again gets the same
    object and the same float.  The I_n batch reads its cut marginals as
    plain arrays and leaves none of them in the memo: it memoizes spectra
    and entropies only on states (those it was given, and reductions their
    memos already held) and reports only on the states it was given.  A
    state made by dephase also keeps its pinched outcome distribution
    ("p") and the Shannon entropies of that distribution's marginals that
    the classical quantifiers asked for (keyed by ("H", kept subsystems)).
    The memo never goes stale, as dims and mat never change; it holds at
    most 2**n - 2 reductions and dies with its state.  Equality and hashing
    go by identity.

    symmetries is a tuple of subsystem relabelings (permutations, as
    permute_subsystems takes them) that leave mat unchanged; the quantifiers
    evaluate one cut or subset per class they map together.  Only _derived
    sets it, so no caller can claim one: evolve_global's states carry
    SWAP_SYMMETRY, all others ().
    """

    dims: tuple[int, ...]
    mat: np.ndarray
    _memo: dict = field(init=False, repr=False, compare=False)
    symmetries = ()  # a class attribute: _derived sets it on a state that has some
    _finite = False  # a class attribute: set on a state once its entries are known finite

    def __init__(self, dims, mat) -> None:
        dims = _check_dims(dims)
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        if mat.shape[0] != math.prod(dims):
            raise ValueError(f"matrix side {mat.shape[0]} does not match dims {dims}")
        _check_finite(mat, "density matrix")
        herm_dev = np.abs(mat - mat.conj().T).max()
        if not herm_dev <= DEFAULT_TOL.herm:
            raise ValueError(f"not Hermitian: max|M - M†| = {herm_dev:.3e}")
        tr = complex(np.trace(mat))
        if not abs(tr - 1.0) <= DEFAULT_TOL.trace:
            raise ValueError(f"trace must be 1, got {tr}")
        lo = float(np.linalg.eigvalsh(hermitize(mat)).min())
        if not lo >= -DEFAULT_TOL.psd:
            raise ValueError(f"negative eigenvalue {lo:.3e} below -{DEFAULT_TOL.psd:.0e}")
        self._set(dims, mat.copy(), finite=True)

    def _set(self, dims: tuple[int, ...], mat: np.ndarray, finite: bool) -> None:
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "_memo", {})
        if finite:
            object.__setattr__(self, "_finite", True)

    @classmethod
    def _derived(cls, dims: tuple[int, ...], mat: np.ndarray, symmetries=(),
                 finite: bool = False) -> "DensityMatrix":
        """Unchecked state for valid dims and a fresh complex array that
        nothing else holds and that is PSD, unit-trace and Hermitian by
        construction, and invariant under each relabeling in symmetries.
        finite says that the entries are already known finite."""
        rho = object.__new__(cls)
        rho._set(dims, mat, finite)
        if symmetries:
            object.__setattr__(rho, "symmetries", symmetries)
        return rho

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on a composite space; equal by identity only."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __init__(self, dims, vec) -> None:
        dims = _check_dims(dims)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.shape[0] != math.prod(dims):
            raise ValueError(f"vector length {vec.shape[0]} does not match dims {dims}")
        _check_finite(vec, "state vector")
        nrm = float(np.linalg.norm(vec))
        if not abs(nrm - 1.0) <= DEFAULT_TOL.norm:
            raise ValueError(f"norm must be 1, got {nrm}")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vec", vec)

    @property
    def n(self) -> int:
        return len(self.dims)

    def to_density(self) -> DensityMatrix:
        return DensityMatrix._derived(self.dims, np.outer(self.vec, self.vec.conj()))


_ONE = np.ones((1, 1), dtype=complex)
_ONE.setflags(write=False)


def kron_all(mats) -> np.ndarray:
    """Kronecker product of matrices, the first factor major (as np.kron).

    Factors may be stacks (..., r, c) with broadcastable leading axes; the
    product is taken matrix by matrix over the last two axes.  It starts
    from a complex ones factor, so the first factor too goes through a
    complex multiply by 1, which sets the signs of its zeros (1 * (-0.0 - 1j)
    is 0.0 - 1j): the product is np.kron chained from [[1]], byte for byte,
    and the basis search's bits rest on it.
    """
    out = _ONE
    for m in mats:
        m = np.asarray(m, dtype=complex)
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        r1, r2, c1, c2 = out.shape[-4:]
        out = out.reshape(out.shape[:-4] + (r1 * r2, c1 * c2))
    return _ONE.copy() if out is _ONE else out


def _integer(i, what: str = "subsystem index") -> int:
    """i as an int: ValueError (naming what) unless int(i) == i, so 1.0 and
    np.int64(1) count as 1, while 1.5, "1" and a bool (Python, numpy or a
    0-d array) are refused."""
    try:
        j = int(i)
    except (TypeError, ValueError, OverflowError):
        j = None
    if j is None or j != i or np.asarray(i).dtype == bool:
        raise ValueError(f"{what} {i!r} is not an integer")
    return j


def _indices(items) -> tuple[int, ...]:
    """items as a tuple of ints, each by the rule of _integer."""
    return tuple(_integer(i) for i in items)


def _check_subset(n: int, subset) -> tuple[int, ...]:
    """subset as a tuple of ints: nonempty, distinct and each in 0..n-1."""
    subset = _indices(subset)
    if len(subset) == 0:
        raise ValueError("subsystem subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError(f"duplicate subsystem indices in {subset}")
    if any(i < 0 or i >= n for i in subset):
        raise ValueError(f"subsystem indices {subset} out of range for n={n}")
    return subset


def _subsystem_axes(mat: np.ndarray, dims, order, cols: bool = True) -> np.ndarray:
    """mat viewed with one row axis per subsystem of dims, listed in order,
    and one column axis per subsystem too when cols (else one column axis)."""
    dims, order, n = tuple(dims), list(order), len(dims)
    if cols:
        return mat.reshape(dims + dims).transpose(order + [n + i for i in order])
    return mat.reshape(dims + (-1,)).transpose(order + [n])


class _Plan(NamedTuple):
    keep: tuple[int, ...]  # checked and sorted
    split: tuple[int, ...]  # the source dims twice: one axis per subsystem, rows then columns
    axes: tuple[int, ...]  # the kept subsystems first, rows then columns
    shape: tuple[int, int, int, int]  # (kept, traced, kept, traced) sizes
    dims: tuple[int, ...]  # of the reduced state


_BOOLS = frozenset((bool, np.bool_))


@functools.lru_cache(maxsize=1024)
def _ptrace_plan(dims: tuple[int, ...], keep: tuple) -> _Plan:
    """The partial trace of a dims state onto keep, planned once per
    distinct (dims, keep); a keep that raises ValueError is not cached."""
    n = len(dims)
    keep = tuple(sorted(_check_subset(n, keep)))
    order = list(keep) + [i for i in range(n) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    dt = math.prod(dims) // dk
    return _Plan(keep, dims * 2, tuple(order + [n + i for i in order]), (dk, dt, dk, dt),
                 tuple(dims[i] for i in keep))


def _ptrace_arr(mat: np.ndarray, plan: _Plan) -> np.ndarray:
    """Partial trace on a raw array, by a plan made for its dims."""
    t = mat.reshape(plan.split).transpose(plan.axes)
    return _einsum("abcb->ac", t.reshape(plan.shape))


def _checked(rho: DensityMatrix) -> DensityMatrix:
    """rho, once its entries are known finite; LinAlgError if one is not.

    Each state is checked at most once: a validated state and a reduction of
    a checked state need none, and a state that passes is flagged.  LAPACK
    reports no error for some matrices with a NaN entry and returns a NaN
    spectrum (a 2x2 NaN matrix) or finite values, and a reduction can drop
    the entry (an off-diagonal NaN), so the check comes before either.
    """
    if not rho._finite:
        if not _all_finite(rho.mat):
            raise LinAlgError("a state with a non-finite entry")
        object.__setattr__(rho, "_finite", True)
    return rho


def _reduction(rho: DensityMatrix, plan: _Plan) -> DensityMatrix:
    """partial_trace of rho by a plan made for rho.dims that traces out at
    least one subsystem, with no index checks."""
    red = rho._memo.get(plan.keep)
    if red is None:
        mat = hermitize(_ptrace_arr(_checked(rho).mat, plan))
        red = rho._memo.setdefault(plan.keep, DensityMatrix._derived(plan.dims, mat, finite=True))
    return red


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems, in original subsystem order.

    keep is any iterable of distinct subsystem indices, in any order; an
    index i must satisfy int(i) == i, so 1.0 and np.int64(1) are 1, and 1.5,
    "1" or a bool raise ValueError, as do an empty, repeated or out-of-range
    keep.
    The check, the sort and the axis plan are made once per distinct
    (rho.dims, keep) and cached for all states; a keep that raises is
    checked, and raises, on every call.  A keep with a bool is never looked
    up in the cache, which takes True for 1.  The reduction is computed once per
    rho and kept subset; a repeat returns the same object.  Keeping every
    subsystem returns rho itself, symmetries included; a proper reduction
    carries none.  A reduction first checks rho's entries, once per state
    (see _checked), so a derived state with a non-finite entry raises
    LinAlgError.
    """
    keep = tuple(keep)
    try:
        for i in keep:  # a plain loop: the cheapest scan on this hot path
            if type(i) in _BOOLS:
                raise TypeError  # the cache takes True for 1
        plan = _ptrace_plan(rho.dims, keep)
    except TypeError:  # an unhashable index, or a bool: check it without the cache
        plan = _ptrace_plan.__wrapped__(rho.dims, keep)
    return rho if len(plan.keep) == rho.n else _reduction(rho, plan)


def permute_subsystems(mat: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder the subsystems of an operator; perm lists the source
    subsystems in their new order.  The identity perm returns a view of mat."""
    perm = list(_indices(perm))
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"perm {perm} is not a permutation of 0..{len(dims) - 1}")
    d = math.prod(dims)
    return _subsystem_axes(np.asarray(mat), dims, perm).reshape(d, d)


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
    return json.dumps({"dims": list(state.dims), "re": re, "im": im})


def _json_numbers(obj: dict, key: str) -> np.ndarray:
    """obj[key] as a float array; ValueError, naming key, unless every entry
    is a JSON number that a float can hold (a string or a bool, which numpy
    would parse, is not)."""
    def numbers(x) -> bool:
        return all(map(numbers, x)) if isinstance(x, list) else type(x) in (int, float)
    try:
        if numbers(obj[key]):
            return np.asarray(obj[key], dtype=float)
    except OverflowError:  # an int beyond the float range
        pass
    raise ValueError(f"every entry of {key} must be a number in the float range")


def state_from_json(text: str) -> DensityMatrix | PureState:
    """Parse the state_to_json schema: a 2-D array is a density matrix, a
    1-D array a state vector.  Malformed input raises ValueError."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a state must be a JSON object with keys dims, re, im")
    missing = [k for k in ("dims", "re", "im") if k not in obj]
    if missing:
        raise ValueError(f"state JSON lacks the key(s) {missing}")
    dims = obj["dims"]
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    re, im = _json_numbers(obj, "re"), _json_numbers(obj, "im")
    if re.shape != im.shape:
        raise ValueError(f"re and im must have one shape, got {re.shape} and {im.shape}")
    arr = re + 1j * im
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
