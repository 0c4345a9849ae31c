"""Genuine n- and k-partite total, quantum, and classical correlations.

A state carries genuine n-partite correlation only if no bipartite cut
factorizes it; the quantifier I_n is the minimum over cuts of the relative
entropy to the product of the two cut marginals, which reduces to the cut
mutual information min_(c1,c2) S(rho_c1) + S(rho_c2) - S(rho).  The k-partite
variants maximize over k-subsystem reductions, quantum correlations replace
the product target with the closest cut-classical state, and classical
correlations evaluate I on the closest classical state chi.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .classical_search import SearchConfig, _optimum, closest_classical_states
from .entropy import _entropies, _entropy_bits
from . import linalg
from .linalg import (DensityMatrix, _check_subset, _checked, _integer, _ptrace_plan, hermitize,
                     partial_trace)

__all__ = [
    "Bipartition",
    "CorrelationReport",
    "all_bipartitions",
    "genuine_total_In",
    "genuine_total_Ik",
    "genuine_quantum_Qn",
    "genuine_quantum_Qk",
    "multipartite_quantum_Q",
    "genuine_classical_Cn",
    "genuine_classical_Ck",
    "max_over_subsets",
]


@dataclass(frozen=True)
class Bipartition:
    """A cut of n subsystems into (mask, complement), canonicalized to contain 0.

    n and the mask follow the index rule of partial_trace (int(i) == i, so
    3.0 and np.int64(3) are 3, and a bool is refused); an empty, repeated or
    out-of-range mask, or one that takes every subsystem, raises ValueError.
    """

    mask: tuple[int, ...]
    n: int

    def __init__(self, mask, n: int) -> None:
        n = _integer(n, "the number of subsystems")
        mask = tuple(sorted(_check_subset(n, mask)))
        if len(mask) == n:
            raise ValueError("neither cell of a bipartition may be empty")
        if 0 not in mask:
            mask = tuple(i for i in range(n) if i not in mask)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    @functools.cached_property
    def complement(self) -> tuple[int, ...]:
        """The other cell, computed once per cut.  It is not a field, so
        equality, hashing and repr still go by (mask, n)."""
        return tuple(i for i in range(self.n) if i not in self.mask)

    def cells(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.mask, self.complement


def all_bipartitions(n: int) -> list[Bipartition]:
    """The 2^(n-1) - 1 unordered cuts, in ascending mask order."""
    if n < 2:
        raise ValueError("bipartitions need at least two subsystems")
    cuts = []
    for mask_bits in range(1, 2**n - 1):
        if not mask_bits & 1:
            continue  # canonical representative contains subsystem 0
        cuts.append(Bipartition([i for i in range(n) if mask_bits >> i & 1], n))
    return cuts


@dataclass(frozen=True)
class CorrelationReport:
    """A quantifier value with its witness and optimizer metadata.

    Frozen.  Equality and hashing leave out chi, a state that is equal by
    identity.
    """

    value_bits: float
    witness: Bipartition | tuple[int, ...] | None = None
    evals: int = 0
    chi: DensityMatrix | None = field(default=None, repr=False, compare=False)


def _representatives(n: int, items, parts, symmetries) -> tuple:
    """The first item of each class that a relabeling in symmetries maps together.

    parts(item) gives the item's groups of subsystem indices; two items are
    equivalent when a relabeling maps the groups of one onto those of the
    other (a cut is its two cells, a subset its one group).
    """
    perms = (tuple(range(n)), *symmetries)
    seen: set = set()
    kept = []
    for item in items:
        key = min(
            tuple(sorted(tuple(sorted(perm[i] for i in group)) for group in parts(item)))
            for perm in perms
        )
        if key not in seen:
            seen.add(key)
            kept.append(item)
    return tuple(kept)


# Cached: the classes depend on the shape and the symmetries only, the
# sweeps ask for the same few on every row, and the results are immutable.
@functools.lru_cache(maxsize=64)
def _cuts(n: int, symmetries: tuple) -> tuple[Bipartition, ...]:
    return _representatives(n, all_bipartitions(n), Bipartition.cells, symmetries)


@functools.lru_cache(maxsize=64)
def _cut_plans(dims: tuple[int, ...], symmetries: tuple) -> tuple:
    """The cuts of a dims state, one per class of symmetries, and the
    partial-trace plans of their cells: each cut's two, in cut order."""
    cuts = _cuts(len(dims), symmetries)
    return cuts, tuple(_ptrace_plan(dims, cell) for cut in cuts for cell in cut.cells())


@functools.lru_cache(maxsize=64)
def _subsets(n: int, k: int, symmetries: tuple) -> tuple[tuple[int, ...], ...]:
    return _representatives(
        n, itertools.combinations(range(n), k), lambda sub: (sub,), symmetries
    )


def max_over_subsets(rho: DensityMatrix, k: int, quantifier):
    """max over k-subsystem reductions of quantifier(reduction).

    Subsets that a relabeling in rho.symmetries maps onto each other are
    evaluated once.  The witness, a tuple of subsystem indices, is chosen by
    _optimum; evals adds up over the reductions.
    """
    k = _check_k(rho.n, k)
    subs = _subsets(rho.n, k, rho.symmetries)
    reps = [quantifier(partial_trace(rho, sub)) for sub in subs]
    value, witness = _optimum(max, [rep.value_bits for rep in reps], subs)
    return CorrelationReport(value, witness, evals=sum(rep.evals for rep in reps))


def genuine_total_In(rho: DensityMatrix) -> CorrelationReport:
    """min over bipartite cuts of S(rho_c1) + S(rho_c2) - S(rho).

    Computed once per state: the report is memoized on rho under "I_n", so
    a repeat call, such as the I3 column and a one-sided triple column on
    the same triple, returns the same report and the same float.  This is
    the one-state call of _total_Ins, which a sweep row calls on all the
    states its columns read; it memoizes rho's spectrum and entropy, and no
    cut marginal.
    """
    rep = rho._memo.get("I_n")
    return rep if rep is not None else _total_Ins([rho])[0]


def _total_Ins(rhos) -> list[CorrelationReport]:
    """genuine_total_In of each state, in order.

    The cells of each state without a memoized report are read by the
    partial-trace plans of _cut_plans, made once per (dims, symmetries).  A
    cell that the state's memo already holds as a reduction (on a sweep
    row, the triple (0, 1, 2), itself a state of the batch) is that state;
    every other cell is a plain hermitized marginal, as partial_trace would
    compute it, with no DensityMatrix and no memo entry.  The states and
    the marginals take all their spectra in one entropy._entropies call:
    one eigenvalue call per matrix side for the whole batch.  A state is
    checked for non-finite entries before its first partial trace.  If a
    call raises, no report and no spectrum is memoized.
    """
    if any(rho.n < 2 for rho in rhos):
        raise ValueError("genuine total correlation needs at least two subsystems")
    jobs = []
    for rho in dict.fromkeys(rhos):  # each state once
        if "I_n" not in rho._memo:
            cuts, plans = _cut_plans(rho.dims, rho.symmetries)
            mat, cells = _checked(rho).mat, []
            for plan in plans:
                red = rho._memo.get(plan.keep)
                cells.append(hermitize(linalg._ptrace_arr(mat, plan)) if red is None else red)
            jobs.append((rho, cuts, cells))
    # each job's entropies in order: the state's, then the two cells of each cut
    entropies = iter(_entropies([s for rho, _, cells in jobs for s in (rho, *cells)]))
    for rho, cuts, _ in jobs:
        s_full = next(entropies)
        values = [next(entropies) + next(entropies) - s_full for _ in cuts]
        rho._memo.setdefault("I_n", CorrelationReport(*_optimum(min, values, cuts)))
    return [rho._memo["I_n"] for rho in rhos]


def genuine_total_Ik(rho: DensityMatrix, k: int) -> CorrelationReport:
    """max over k-subsystem reductions of their genuine total correlation."""
    return max_over_subsets(rho, k, genuine_total_In)


def _check_k(n: int, k) -> int:
    """k as an int, by the index rule of partial_trace (see linalg._integer);
    ValueError unless 2 <= k <= n."""
    k = _integer(k, "k")
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")
    return k


def genuine_quantum_Qn(
    rho: DensityMatrix, cfg: SearchConfig = SearchConfig()
) -> CorrelationReport:
    """min over bipartite cuts of the distance to the cut-classical states.

    Each cut dephases in arbitrary orthonormal bases of the two grouped cells,
    so the cut search space is wider than per-subsystem product bases.  The
    cut searches are memoized on rho (see _searches); those it lacks run in
    one closest_classical_states call, which runs the cuts with equal cell
    dimensions side by side (on four qubits: 2|8, 4|4 and 8|2).  evals adds
    up over the cuts.
    """
    if rho.n < 2:
        raise ValueError("genuine quantum correlation needs at least two subsystems")
    cuts = _cuts(rho.n, rho.symmetries)
    results = _searches([(rho, cut.cells()) for cut in cuts], cfg)
    value, cut = _optimum(min, [r.q for r in results], cuts)
    return CorrelationReport(value, cut, evals=sum(r.evals for r in results))


def genuine_quantum_Qk(
    rho: DensityMatrix, k: int, cfg: SearchConfig = SearchConfig()
) -> CorrelationReport:
    """max over k-subsystem reductions of their genuine quantum correlation."""
    return max_over_subsets(rho, k, lambda red: genuine_quantum_Qn(red, cfg))


def _one_cell_each(n: int) -> tuple[tuple[int, ...], ...]:
    """The cells of the fully multipartite search: one per subsystem."""
    return tuple((i,) for i in range(n))


def _searches(jobs: list, cfg: SearchConfig) -> list:
    """The SearchResult of each (rho, cells) job, memoized on rho under
    ("search", cells, cfg) with the cells as given (reordered cells are
    another search).  The jobs without a result run once each, in one
    closest_classical_states call; if it raises, nothing is memoized."""
    todo = list(dict.fromkeys(
        (rho, cells) for rho, cells in jobs if ("search", cells, cfg) not in rho._memo))
    if todo:
        found = closest_classical_states([rho for rho, _ in todo], [c for _, c in todo], cfg)
        for (rho, cells), res in zip(todo, found):
            rho._memo.setdefault(("search", cells, cfg), res)
    return [rho._memo["search", cells, cfg] for rho, cells in jobs]


def multipartite_quantum_Q(
    rho: DensityMatrix, cfg: SearchConfig = SearchConfig()
) -> CorrelationReport:
    """Distance to the closest fully-classical state (one cell per subsystem).

    The search is memoized on rho (see _searches), so a repeat call with an
    equal cfg, and the classical quantifiers after it, run no search.  The
    minimizing chi is attached to the report for the classical quantifiers.
    """
    if rho.n < 2:
        raise ValueError("multipartite quantum correlation needs at least two subsystems")
    (res,) = _searches([(rho, _one_cell_each(rho.n))], cfg)
    return CorrelationReport(res.q, None, evals=res.evals, chi=res.chi)


def _outcome_entropy(chi: DensityMatrix, keep: tuple[int, ...]) -> float:
    """Shannon entropy of the marginal on keep of chi's outcome distribution.

    chi is a closest fully-classical state, so its memo holds the pinched
    outcome distribution p with one axis per subsystem (see dephase), and
    chi's reduction on keep has the marginal of p as its spectrum.  Computed
    once per chi and keep.  p is the search's own distribution, derived
    data, so its marginals skip shannon's checks of outside input.
    """
    key = ("H", keep)
    h = chi._memo.get(key)
    if h is None:
        p = chi._memo["p"]
        marginal = p.sum(axis=tuple(i for i in range(p.ndim) if i not in keep))
        h = chi._memo.setdefault(key, _entropy_bits(marginal))
    return h


def _outcome_In(chi: DensityMatrix, sub: tuple[int, ...], symmetries) -> tuple[float, Bipartition]:
    """genuine_total_In of chi's reduction on sub, and its witness cut of sub,
    from H(p_A) + H(p_B) - H(p_sub), with one cut per class of symmetries
    (those of the searched state, as chi itself carries none)."""
    h_sub = _outcome_entropy(chi, sub)
    cuts = _cuts(len(sub), symmetries)
    values = [_outcome_entropy(chi, tuple(sub[i] for i in cut.mask))
              + _outcome_entropy(chi, tuple(sub[i] for i in cut.complement)) - h_sub
              for cut in cuts]
    return _optimum(min, values, cuts)


def genuine_classical_Cn(
    rho: DensityMatrix, cfg: SearchConfig = SearchConfig()
) -> CorrelationReport:
    """C_n = I_n of the closest fully-classical state chi.

    chi is diagonal in the product basis of its search, so every entropy of
    I_n is the Shannon entropy of a marginal of chi's outcome distribution p
    (Modi et al., PRL 104, 080501 (2010)): C_n is the min over cuts of
    H(p_A) + H(p_B) - H(p), with no dense algebra on chi.
    """
    q_rep = multipartite_quantum_Q(rho, cfg)
    value, cut = _outcome_In(q_rep.chi, tuple(range(rho.n)), rho.symmetries)
    return CorrelationReport(value, cut, evals=q_rep.evals, chi=q_rep.chi)


def genuine_classical_Ck(
    rho: DensityMatrix, k: int, cfg: SearchConfig = SearchConfig()
) -> CorrelationReport:
    """C_k = I_k of the closest fully-classical state chi.

    chi comes from the single n-party search; the reductions are never
    re-optimized.  As for C_n, each k-subsystem reduction's I_n comes from
    the marginal of chi's outcome distribution on those subsystems.  The
    witness and the symmetries are those of max_over_subsets.
    """
    k = _check_k(rho.n, k)
    q_rep = multipartite_quantum_Q(rho, cfg)
    inner = rho.symmetries if k == rho.n else ()
    subs = _subsets(rho.n, k, rho.symmetries)
    value, witness = _optimum(max, [_outcome_In(q_rep.chi, sub, inner)[0] for sub in subs], subs)
    return CorrelationReport(value, witness, evals=q_rep.evals, chi=q_rep.chi)
