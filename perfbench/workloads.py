"""The three benchmark workloads: seeded inputs, timed units, their checks.

A workload factory turns --seed into a fixed list of units, each one call
into gencorr (`run_unit(i)`, the only timed code) that returns a list of
items: sweep rows or search results.  A block runs every unit once; blocks
repeat the same inputs, so each unit gets several timings and the values of
one block do not depend on how many blocks fit into the run.  `check` gives
one list of failure messages per item of a block.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import gencorr
import numpy as np
from gencorr import SearchConfig, SweepSpec, all_bipartitions, evolve_global

import checks

CHANNELS = ("ad", "pd")
ENTROPY_MEASURES = ("I4", "I3", "I3_abEa", "I3_aEaEb", "F_W", "F_GHZ")
SEARCH_MEASURES = ("Q4", "Q3", "C4", "C3")
REPEAT_TOL = 1e-12

# Input sizes.  Stratified draws keep the seed-to-seed spread of the block
# means small.  The search blocks take 6-15 s, so two or more fit into a 30 s
# run.  Their c ranges start where the states carry enough quantum
# correlation that the mean search value moves only a few percent between seeds.
ENTROPY_C_COUNT = 4  # c values per channel, each a 101-point p series
SEARCH_C_COUNT = 2  # c values per channel
SEARCH_C_LO = 0.4
SEARCH_P_COUNT = 4
SEARCH_STARTS = 2
# The seed draws the states; the search's own start seed stays fixed.  With
# rng_seed=seed the random starts alone moved evaluations per sweep row by
# 14% (interquartile, seeds 1-10) and swamped the throughput comparison;
# pinned, the spread is 3%.  Start 1 is still a seeded random start.
SEARCH_RNG_SEED = 0
CUT_STATES = 4  # evolved states, three 2|2 cuts each
CUT_C_LO = 0.5


def stratified(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """One draw from each of `count` equal strata of [lo, hi], antithetic in pairs.

    Stratum k and its mirror count-1-k sit at offsets u and 1-u, so a value
    that is linear in the draw averages to the same mean for every seed.
    """
    u = rng.uniform(size=(count + 1) // 2)
    out = []
    for k in range(count):
        j = min(k, count - 1 - k)
        offset = u[j] if k <= count - 1 - k else 1.0 - u[j]
        out.append(lo + (hi - lo) * (k + offset) / count)
    return out


@dataclass
class Sweep:
    """run_sweep, one unit per (channel, c) series; an item is one row."""

    specs: tuple[SweepSpec, ...]
    value_measures: tuple[str, ...]  # averaged into mean_value_bits
    row_check: Callable[[dict], list[str]]
    item_marker = "channels.evolve_global"

    @property
    def n_units(self) -> int:
        return len(self.specs)

    def run_unit(self, i: int) -> list[dict]:
        return gencorr.run_sweep(self.specs[i])  # via the package, so a tracer sees it

    def item_values(self, rows: list[dict]) -> list[tuple[float, ...]]:
        return [tuple(row[m] for m in self.specs[0].measures) for row in rows]

    def mean_value(self, rows: list[dict]) -> float:
        return float(np.mean([row[m] for row in rows for m in self.value_measures]))

    def check(self, rows: list[dict]) -> list[list[str]]:
        return [self.row_check(row) for row in rows]


@dataclass
class CutSearch:
    """closest_classical_state on the 2|2 cuts of evolved states; an item is one search."""

    items: tuple[tuple[object, tuple], ...]  # (rho, cells)
    cfg: SearchConfig
    item_marker = "classical_search.closest_classical_state"

    @property
    def n_units(self) -> int:
        return len(self.items)

    def run_unit(self, i: int) -> list[tuple]:
        rho, cells = self.items[i]
        return [gencorr.closest_classical_state(rho, cells, self.cfg)]

    def item_values(self, results: list[tuple]) -> list[tuple[float, ...]]:
        return [(float(res[2]),) for res in results]

    def mean_value(self, results: list[tuple]) -> float:
        return float(np.mean([res[2] for res in results]))

    def check(self, results: list[tuple]) -> list[list[str]]:
        return [
            checks.check_cut_search(rho, cells, res[0], res[2])
            for (rho, cells), res in zip(self.items, results)
        ]


def entropy_sweep(seed: int, tiny: bool = False) -> Sweep:
    rng = np.random.default_rng(seed)
    c_values = tuple(stratified(rng, 1 if tiny else ENTROPY_C_COUNT, 0.1, 1.0))
    p_count = 3 if tiny else 101
    specs = tuple(
        SweepSpec(kind, (c,), p_count, ENTROPY_MEASURES) for kind in CHANNELS for c in c_values
    )
    return Sweep(specs, checks.I_MEASURES, checks.check_entropy_row)


def product_search_sweep(seed: int, tiny: bool = False) -> Sweep:
    rng = np.random.default_rng(seed)
    c_values = tuple(stratified(rng, 1 if tiny else SEARCH_C_COUNT, SEARCH_C_LO, 1.0))
    p_count = 2 if tiny else SEARCH_P_COUNT
    cfg = SearchConfig(starts=1 if tiny else SEARCH_STARTS, rng_seed=SEARCH_RNG_SEED)
    specs = tuple(
        SweepSpec(kind, (c,), p_count, SEARCH_MEASURES, search=cfg)
        for kind in CHANNELS
        for c in c_values
    )
    return Sweep(specs, checks.Q_MEASURES, checks.check_search_row)


def cut_search(seed: int, tiny: bool = False) -> CutSearch:
    rng = np.random.default_rng(seed)
    n_states = 1 if tiny else CUT_STATES
    # Latin-hypercube (c, p) draws, channels alternating from a seeded first one
    cs = rng.permutation(stratified(rng, n_states, CUT_C_LO, 1.0))
    ps = stratified(rng, n_states, 0.1, 0.9)
    first = int(rng.integers(2))
    cuts = [cut.cells() for cut in all_bipartitions(4) if len(cut.mask) == 2]
    if tiny:
        cuts = cuts[:1]
    items = []
    for i in range(n_states):
        rho = evolve_global(float(cs[i]), ps[i], CHANNELS[(first + i) % 2])
        items += [(rho, cells) for cells in cuts]
    return CutSearch(tuple(items), SearchConfig(starts=SEARCH_STARTS, rng_seed=SEARCH_RNG_SEED))


WORKLOADS = {
    "entropy_sweep": entropy_sweep,
    "product_search_sweep": product_search_sweep,
    "cut_search": cut_search,
}


def warm_up(workload) -> None:
    """One small call through each layer the workload uses (loads lazy code paths)."""
    if isinstance(workload, CutSearch):
        rho, cells = workload.items[0]
        gencorr.closest_classical_state(rho, cells, SearchConfig(starts=1, max_evals=20))
        return
    spec = workload.specs[0]
    gencorr.run_sweep(SweepSpec(spec.channel, spec.c_values, 2, spec.measures,
                                search=SearchConfig(starts=1, max_evals=20)))


def repeat_mismatches(workload, first: list, again: list) -> list[list[str]]:
    """A repeated block must reproduce the first block's values, item by item."""
    out = []
    for a, b in zip(workload.item_values(first), workload.item_values(again)):
        same = all(x == y or abs(x - y) <= REPEAT_TOL for x, y in zip(a, b))
        out.append([] if same else [f"repeat gave {b!r}, first block {a!r}"])
    return out
