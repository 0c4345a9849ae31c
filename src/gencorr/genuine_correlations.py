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

import itertools
import json
from dataclasses import dataclass, field

from .classical_search import SearchConfig, closest_classical_state
from .entropy import von_neumann_entropy
from .linalg import DensityMatrix, partial_trace

__all__ = [
    "TAU_DEGREE",
    "Bipartition",
    "SubsetSelection",
    "CorrelationReport",
    "all_bipartitions",
    "genuine_total_In",
    "genuine_total_Ik",
    "genuine_quantum_Qn",
    "genuine_quantum_Qk",
    "multipartite_quantum_Q",
    "genuine_classical_Cn",
    "genuine_classical_Ck",
    "degree_of",
]

TAU_DEGREE = 1e-6


@dataclass(frozen=True)
class Bipartition:
    """A cut of n subsystems into (mask, complement), canonicalized to contain 0."""

    mask: tuple[int, ...]
    n: int

    def __init__(self, mask, n: int) -> None:
        mask = tuple(sorted(int(i) for i in set(mask)))
        if not mask or len(mask) == int(n):
            raise ValueError("neither cell of a bipartition may be empty")
        if any(i < 0 or i >= n for i in mask):
            raise ValueError(f"mask {mask} out of range for n={n}")
        if 0 not in mask:
            mask = tuple(i for i in range(n) if i not in mask)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", int(n))

    @property
    def complement(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.mask)

    def cells(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.mask, self.complement

    def label(self) -> str:
        return f"{list(self.mask)}|{list(self.complement)}"


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
class SubsetSelection:
    """An ordered subset of k subsystem indices."""

    indices: tuple[int, ...]

    def __init__(self, indices) -> None:
        indices = tuple(int(i) for i in indices)
        if list(indices) != sorted(set(indices)):
            raise ValueError(f"indices must be strictly increasing, got {indices}")
        if len(indices) < 2:
            raise ValueError("a subset selection needs at least two subsystems")
        object.__setattr__(self, "indices", indices)

    @property
    def k(self) -> int:
        return len(self.indices)


@dataclass
class CorrelationReport:
    """A named quantifier value with its witness and optimizer metadata."""

    name: str
    value_bits: float
    witness: Bipartition | SubsetSelection | None = None
    evals: int = 0
    starts: int = 0
    chi: DensityMatrix | None = field(default=None, repr=False)

    def witness_label(self) -> str | None:
        if isinstance(self.witness, Bipartition):
            return self.witness.label()
        if isinstance(self.witness, SubsetSelection):
            return str(list(self.witness.indices))
        return None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value_bits": self.value_bits,
            "witness": self.witness_label(),
            "evals": self.evals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _canonical_cut_key(cut: Bipartition, symmetries) -> tuple[int, ...]:
    keys = [cut.mask]
    for perm in symmetries:
        image = sorted(perm[i] for i in cut.mask)
        if 0 not in image:
            image = [i for i in range(cut.n) if i not in image]
        keys.append(tuple(image))
    return min(keys)


def _pruned_cuts(n: int, symmetries) -> list[Bipartition]:
    cuts = all_bipartitions(n)
    if not symmetries:
        return cuts
    seen: set[tuple[int, ...]] = set()
    kept = []
    for cut in cuts:
        key = _canonical_cut_key(cut, symmetries)
        if key not in seen:
            seen.add(key)
            kept.append(cut)
    return kept


def _pruned_subsets(n: int, k: int, symmetries) -> list[tuple[int, ...]]:
    subs = list(itertools.combinations(range(n), k))
    if not symmetries:
        return subs
    seen: set[tuple[int, ...]] = set()
    kept = []
    for sub in subs:
        key = min([sub] + [tuple(sorted(perm[i] for i in sub)) for perm in symmetries])
        if key not in seen:
            seen.add(key)
            kept.append(sub)
    return kept


def genuine_total_In(rho: DensityMatrix, symmetries=()) -> CorrelationReport:
    """min over bipartite cuts of S(rho_c1) + S(rho_c2) - S(rho).

    symmetries, if given, is a set of subsystem relabelings under which rho is
    invariant; equivalent cuts are then evaluated once.
    """
    if rho.n < 2:
        raise ValueError("genuine total correlation needs at least two subsystems")
    s_full = von_neumann_entropy(rho)
    best = None
    witness = None
    for cut in _pruned_cuts(rho.n, symmetries):
        value = (
            von_neumann_entropy(partial_trace(rho, cut.mask))
            + von_neumann_entropy(partial_trace(rho, cut.complement))
            - s_full
        )
        if best is None or value < best:
            best, witness = value, cut
    return CorrelationReport("I_n", best, witness)


def genuine_total_Ik(rho: DensityMatrix, k: int, symmetries=()) -> CorrelationReport:
    """max over k-subsystem reductions of their genuine total correlation."""
    _check_k(rho.n, k)
    if k == rho.n:
        rep = genuine_total_In(rho, symmetries)
        return CorrelationReport("I_k", rep.value_bits, SubsetSelection(range(rho.n)))
    best = None
    witness = None
    for sub in _pruned_subsets(rho.n, k, symmetries):
        value = genuine_total_In(partial_trace(rho, sub)).value_bits
        if best is None or value > best:
            best, witness = value, SubsetSelection(sub)
    return CorrelationReport("I_k", best, witness)


def _check_k(n: int, k: int) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= {n}, got {k}")


def genuine_quantum_Qn(
    rho: DensityMatrix, cfg: SearchConfig = SearchConfig(), symmetries=()
) -> CorrelationReport:
    """min over bipartite cuts of the distance to the cut-classical states.

    Each cut dephases in arbitrary orthonormal bases of the two grouped cells,
    so the cut search space is wider than per-subsystem product bases.
    """
    if rho.n < 2:
        raise ValueError("genuine quantum correlation needs at least two subsystems")
    best = None
    witness = None
    evals = 0
    starts = 0
    for cut in _pruned_cuts(rho.n, symmetries):
        result = closest_classical_state(rho, cut.cells(), cfg)
        evals += result.evals
        starts += result.starts
        if best is None or result.q < best:
            best, witness = result.q, cut
    return CorrelationReport("Q_n", best, witness, evals=evals, starts=starts)


def genuine_quantum_Qk(
    rho: DensityMatrix, k: int, cfg: SearchConfig = SearchConfig(), symmetries=()
) -> CorrelationReport:
    """max over k-subsystem reductions of their genuine quantum correlation."""
    _check_k(rho.n, k)
    if k == rho.n:
        rep = genuine_quantum_Qn(rho, cfg, symmetries)
        return CorrelationReport(
            "Q_k", rep.value_bits, SubsetSelection(range(rho.n)), rep.evals, rep.starts
        )
    best = None
    witness = None
    evals = 0
    starts = 0
    for sub in _pruned_subsets(rho.n, k, symmetries):
        rep = genuine_quantum_Qn(partial_trace(rho, sub), cfg)
        evals += rep.evals
        starts += rep.starts
        if best is None or rep.value_bits > best:
            best, witness = rep.value_bits, SubsetSelection(sub)
    return CorrelationReport("Q_k", best, witness, evals=evals, starts=starts)


def multipartite_quantum_Q(
    rho: DensityMatrix, cfg: SearchConfig = SearchConfig()
) -> CorrelationReport:
    """Distance to the closest fully-classical state (one cell per subsystem).

    The minimizing chi is attached to the report for reuse by the classical
    quantifiers.
    """
    if rho.n < 2:
        raise ValueError("multipartite quantum correlation needs at least two subsystems")
    cells = [(i,) for i in range(rho.n)]
    result = closest_classical_state(rho, cells, cfg)
    return CorrelationReport(
        "Q", result.q, None, evals=result.evals, starts=result.starts, chi=result.chi
    )


def genuine_classical_Cn(
    rho: DensityMatrix, cfg: SearchConfig = SearchConfig(), symmetries=()
) -> CorrelationReport:
    """C_n = I_n of the closest fully-classical state chi."""
    q_rep = multipartite_quantum_Q(rho, cfg)
    in_rep = genuine_total_In(q_rep.chi, symmetries)
    return CorrelationReport(
        "C_n", in_rep.value_bits, in_rep.witness, evals=q_rep.evals,
        starts=q_rep.starts, chi=q_rep.chi,
    )


def genuine_classical_Ck(
    rho: DensityMatrix, k: int, cfg: SearchConfig = SearchConfig(), symmetries=()
) -> CorrelationReport:
    """C_k = max over k-subsets of I applied to the reductions of chi.

    chi comes from the single n-party search; the reductions are never
    re-optimized.
    """
    _check_k(rho.n, k)
    if k == rho.n:
        return genuine_classical_Cn(rho, cfg, symmetries)
    q_rep = multipartite_quantum_Q(rho, cfg)
    best = None
    witness = None
    for sub in _pruned_subsets(rho.n, k, symmetries):
        value = genuine_total_In(partial_trace(q_rep.chi, sub)).value_bits
        if best is None or value > best:
            best, witness = value, SubsetSelection(sub)
    return CorrelationReport(
        "C_k", best, witness, evals=q_rep.evals, starts=q_rep.starts, chi=q_rep.chi
    )


def degree_of(
    rho: DensityMatrix, kind: str, cfg: SearchConfig = SearchConfig(),
    tau: float = TAU_DEGREE, symmetries=(),
) -> int:
    """Largest k whose genuine k-partite quantifier exceeds tau; 1 if none."""
    if kind not in ("total", "quantum", "classical"):
        raise ValueError(f"kind must be total|quantum|classical, got {kind!r}")
    if rho.n < 2:
        raise ValueError("degree needs at least two subsystems")
    for k in range(rho.n, 1, -1):
        if kind == "total":
            value = genuine_total_Ik(rho, k, symmetries).value_bits
        elif kind == "quantum":
            value = genuine_quantum_Qk(rho, k, cfg, symmetries).value_bits
        else:
            value = genuine_classical_Ck(rho, k, cfg, symmetries).value_bits
        if value > tau:
            return k
    return 1
