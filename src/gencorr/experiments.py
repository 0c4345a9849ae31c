"""Parameter sweeps over (c, p), reference-value verification, and kink detection.

run_sweep drives the evolved four-party states over a (c, p) grid and
evaluates the requested correlation and fidelity measures per row through
one table of library quantifiers (evaluate_measures).  The evolved states are
exactly invariant under swapping (a,E_a) with (b,E_b), so a sweep evaluates
one cut or triple per swap class: of the four triples of the 3-party
measures, only {a,E_a,b} and {a,E_a,E_b}.

detect_sudden_change flags interior grid points where the finite-difference
slope of a series jumps by more than kappa times the local slope noise, the
signature of a discontinuous change in the evolution rate.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from . import __version__
from .channels import evolve_global, appendix_golden_state, upsilon_pd, werner_state
from .classical_search import SearchConfig
from .entropy import shannon
from .genuine_correlations import (
    Bipartition,
    CorrelationReport,
    genuine_total_Ik,
    genuine_total_In,
    max_over_subsets,
    multipartite_quantum_Q,
)
from .linalg import DEFAULT_TOL, DensityMatrix, partial_trace
from .states import fidelity, ghz, ppt_min_eigenvalue, w4

__all__ = [
    "SUPPORTED_MEASURES",
    "SWAP_SYMMETRY",
    "SweepSpec",
    "SuddenChangeReport",
    "evaluate_measures",
    "run_sweep",
    "write_csv",
    "read_csv",
    "write_manifest",
    "detect_sudden_change",
    "verify_anchors",
    "appendix_deviations",
]

# exact relabeling symmetry of the evolved states: (a,E_a) <-> (b,E_b)
SWAP_SYMMETRY = ((2, 3, 0, 1),)


@dataclass
class _State:
    """A state, its search settings and symmetries.  The n-party chi search
    that Q4, C4 and C3 share runs once, on first use."""

    rho: DensityMatrix
    cfg: SearchConfig
    symmetries: tuple

    @cached_property
    def q(self) -> CorrelationReport:
        return multipartite_quantum_Q(self.rho, self.cfg)


# column -> (runs a basis search, its value for a _State).  The lambdas look
# the library functions up when a row is evaluated, so a patched module
# binding (a test double, a tracer) sees every call.
_MEASURES = {
    "I4": (False, lambda s: genuine_total_Ik(s.rho, 4, s.symmetries).value_bits),
    "I3": (False, lambda s: genuine_total_Ik(s.rho, 3, s.symmetries).value_bits),
    "I3_abEa": (False, lambda s: genuine_total_In(partial_trace(s.rho, (0, 1, 2))).value_bits),
    "I3_aEaEb": (False, lambda s: genuine_total_In(partial_trace(s.rho, (0, 1, 3))).value_bits),
    # Q4 is the fully multipartite Q (one basis per subsystem), Q3 its max over triples
    "Q4": (True, lambda s: s.q.value_bits),
    "Q3": (True, lambda s: max_over_subsets(
        "Q3", s.rho, 3, lambda red, _: multipartite_quantum_Q(red, s.cfg), s.symmetries
    ).value_bits),
    "C4": (True, lambda s: genuine_total_Ik(s.q.chi, 4, s.symmetries).value_bits),
    "C3": (True, lambda s: genuine_total_Ik(s.q.chi, 3, s.symmetries).value_bits),
    "F_W": (False, lambda s: fidelity(w4(), s.rho)),
    "F_GHZ": (False, lambda s: fidelity(upsilon_pd(1.0), s.rho)),
}
SUPPORTED_MEASURES = tuple(_MEASURES)


def _check_measures(measures) -> None:
    bad = [m for m in measures if m not in _MEASURES]
    if bad:
        raise ValueError(f"unsupported measures {bad}; choose from {SUPPORTED_MEASURES}")


def evaluate_measures(
    rho: DensityMatrix, measures, cfg: SearchConfig = SearchConfig(), symmetries=()
) -> tuple[dict[str, float], list[str]]:
    """Values of the named measures of a four-qubit state, and failure flags.

    A measure that raises is NaN with a "name: error" flag, never fatal.
    symmetries are subsystem relabelings under which rho is invariant.
    """
    _check_measures(measures)
    if rho.dims.dims != (2, 2, 2, 2):
        raise ValueError(f"the measures expect a 4-qubit state, got dims {rho.dims.dims}")
    state = _State(rho, cfg, symmetries)
    values: dict[str, float] = {}
    flags: list[str] = []
    for m in measures:
        try:
            values[m] = _MEASURES[m][1](state)
        except Exception as exc:  # noqa: BLE001 - flagged, not fatal
            values[m] = math.nan
            flags.append(f"{m}: {exc}")
    return values, flags


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a channel, a list of c values, a uniform p grid, measures.

    p_count=None resolves to 41 when any measure runs a basis search (Q and
    C columns) and 101 otherwise.
    """

    channel: str
    c_values: tuple[float, ...] = (0.4, 1.0)
    p_count: int | None = None
    measures: tuple[str, ...] = ("I4", "I3", "I3_abEa", "I3_aEaEb")
    search: SearchConfig = field(default_factory=SearchConfig)
    output: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.channel not in ("ad", "pd"):
            raise ValueError(f"channel must be 'ad' or 'pd', got {self.channel!r}")
        _check_measures(self.measures)
        if not self.measures:
            raise ValueError("a sweep needs at least one measure")
        for name in ("p_count", "workers"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.p_count is not None and self.p_count < 2:
            raise ValueError("p grid needs at least 2 points")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.c_values:
            raise ValueError("a sweep needs at least one c value")
        bad_c = [c for c in self.c_values if not 0.0 <= c <= 1.0]
        if bad_c:
            raise ValueError(f"c values must lie in [0, 1], got {bad_c}")
        object.__setattr__(self, "measures", tuple(self.measures))

    def resolved_p_count(self) -> int:
        if self.p_count is not None:
            return self.p_count
        return 41 if any(_MEASURES[m][0] for m in self.measures) else 101


def _row_task(args) -> dict:
    kind, c, p, measures, cfg = args
    values, flags = evaluate_measures(evolve_global(c, p, kind), measures, cfg, SWAP_SYMMETRY)
    row = {"channel": kind, "c": c, "p": p, **values}
    if flags:
        row["_flags"] = flags
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (c, p) with all requested measures.

    Rows are deterministic for a fixed rng_seed and ordered by the given
    c values, then ascending p, regardless of worker completion order.
    """
    ps = np.linspace(0.0, 1.0, spec.resolved_p_count())
    tasks = [
        (spec.channel, c, float(p), spec.measures, spec.search)
        for c in spec.c_values
        for p in ps
    ]
    if spec.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel sweeps load it

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            rows = list(pool.map(_row_task, tasks))
    else:
        rows = [_row_task(t) for t in tasks]
    return rows


def write_csv(rows: list[dict], measures, path) -> None:
    """channel,c,p,<measures> with round-trip decimal float formatting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["channel", "c", "p", *measures]) + "\n")
        for row in rows:
            cells = [row["channel"], repr(float(row["c"])), repr(float(row["p"]))]
            cells += [repr(float(row[m])) for m in measures]
            fh.write(",".join(cells) + "\n")


def read_csv(path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            row: dict = {"channel": rec["channel"]}
            for key, val in rec.items():
                if key != "channel":
                    row[key] = float(val)
            rows.append(row)
    return rows


def write_manifest(spec: SweepSpec, rows: list[dict], path) -> None:
    """Provenance sidecar: sweep spec, seed, tolerances, version, flagged rows.

    Only the flags of spec.measures are listed, so rows that carry more
    columns can feed one manifest per column group.
    """
    failures = []
    for row in rows:
        flags = [f for f in row.get("_flags", ()) if f.split(":", 1)[0] in spec.measures]
        if flags:
            failures.append({"c": row["c"], "p": row["p"], "flags": flags})
    doc = {
        "spec": {
            "channel": spec.channel,
            "c_values": list(spec.c_values),
            "p_count": spec.resolved_p_count(),
            "measures": list(spec.measures),
            "output": spec.output,
        },
        "search": asdict(spec.search),
        "tolerances": asdict(DEFAULT_TOL),
        "version": __version__,
        "failures": failures,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class SuddenChangeReport:
    """An interior grid point where a series' slope jumps discontinuously."""

    measure: str
    channel: str
    c: float
    p_star: float
    left_slope: float
    right_slope: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def detect_sudden_change(
    rows: list[dict], measure: str, kappa: float = 10.0, window: int = 5
) -> list[SuddenChangeReport]:
    """Find slope discontinuities of a measure along each (channel, c) series.

    A point is flagged when its slope jump exceeds kappa times the median
    jump in a two-sided local window (the point and its immediate neighbors
    are excluded from the noise estimate, so a kink split across two grid
    points still registers).  Points without a full window on both sides are
    never flagged: near the grid edge a kink is not separable from ordinary
    boundary steepness, e.g. a sqrt- or entropy-like onset.  Adjacent flags
    merge to the largest jump.  Requires a uniform p grid with >= 11 points.
    """
    if not any(measure in r for r in rows):
        raise ValueError(f"measure {measure!r} not present in the data table")
    groups: dict[tuple[str, float], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["channel"], row["c"]), []).append(row)
    reports: list[SuddenChangeReport] = []
    for (channel, c), grp in groups.items():
        grp = sorted(grp, key=lambda r: r["p"])
        ps = np.array([r["p"] for r in grp])
        ys = np.array([float(r[measure]) for r in grp])
        if len(ps) < 11:
            raise ValueError(f"grid too coarse for kink detection: {len(ps)} points")
        steps = np.diff(ps)
        if steps.max() - steps.min() > 1e-9 * max(steps.max(), 1.0):
            raise ValueError("p grid is not uniform")
        slopes = np.diff(ys) / steps
        jumps = np.abs(np.diff(slopes))  # jump j sits at grid point j+1
        floor = 1e-12 * max(1.0, float(np.abs(ys).max()))
        w = max(1, min(window, (len(jumps) - 3) // 2))
        hits = []
        for j in range(w, len(jumps) - w):
            neigh = np.concatenate([jumps[j - w : max(j - 1, 0)], jumps[j + 2 : j + w + 1]])
            noise = float(np.median(neigh)) if neigh.size else 0.0
            if jumps[j] > kappa * max(noise, floor):
                hits.append(j)
        for j in _merge_runs(hits, jumps):
            reports.append(
                SuddenChangeReport(
                    measure, channel, float(c), float(ps[j + 1]),
                    float(slopes[j]), float(slopes[j + 1]),
                )
            )
    return reports


def _merge_runs(hits: list[int], jumps: np.ndarray) -> list[int]:
    merged: list[int] = []
    run: list[int] = []
    for j in hits:
        if run and j != run[-1] + 1:
            merged.append(max(run, key=lambda i: jumps[i]))
            run = []
        run.append(j)
    if run:
        merged.append(max(run, key=lambda i: jumps[i]))
    return merged


def _fid_w_closed(c: float, p: float) -> float:
    return math.sqrt((1 + 3 * c) * (1 + 2 * math.sqrt(p * (1 - p))) / 8)


def _fid_ghz_closed(c: float, p: float) -> float:
    return math.sqrt((1 + 3 * c) * p) / 2


def _anchor(name, expected, actual, tol, mode="abs") -> dict:
    if mode == "abs":
        deviation = abs(actual - expected)
        passed = deviation <= tol
    elif mode == "max":  # actual is already a deviation
        deviation = actual
        passed = actual <= tol
    elif mode == "ge":
        deviation = expected - actual
        passed = actual >= expected
    else:
        raise ValueError(mode)
    return {
        "name": name,
        "expected": expected,
        "actual": actual,
        "deviation": deviation,
        "tol": tol,
        "passed": bool(passed),
    }


def verify_anchors(cfg: SearchConfig = SearchConfig()) -> list[dict]:
    """Evaluate the built-in reference values and report pass/fail for each.

    Failures are report entries, never exceptions.
    """
    res: list[dict] = []
    grid = np.linspace(0.0, 1.0, 11)

    ghz4 = ghz(4).to_density()
    wst = w4().to_density()
    res.append(_anchor("I4_GHZ4", 2.0, genuine_total_In(ghz4).value_bits, 1e-9))
    res.append(_anchor("I3_GHZ4", 1.0, genuine_total_Ik(ghz4, 3).value_bits, 1e-9))
    # W4 is pure with one-qubit spectra (3/4, 1/4) and two-qubit spectra
    # (1/2, 1/2): its 1|3 cuts carry 2*H2(1/4) < 2 (the 2|2 value), and every
    # cut of a 3-qubit reduction carries H2(1/4) + 1 - H2(1/4) = 1.
    res.append(_anchor("I4_W4", 2 * shannon((0.25, 0.75)), genuine_total_In(wst).value_bits, 1e-9))
    res.append(_anchor("I3_W4", 1.0, genuine_total_Ik(wst, 3).value_bits, 1e-9))

    dev_w = max(
        abs(fidelity(w4(), evolve_global(c, p, "ad")) - _fid_w_closed(c, p))
        for c in grid
        for p in grid
    )
    res.append(_anchor("fidelity_W_ad_closed_form", 0.0, dev_w, 1e-10, "max"))
    ghz_lim = upsilon_pd(1.0)
    dev_g = max(
        abs(fidelity(ghz_lim, evolve_global(c, p, "pd")) - _fid_ghz_closed(c, p))
        for c in grid
        for p in grid
    )
    res.append(_anchor("fidelity_GHZ_pd_closed_form", 0.0, dev_g, 1e-10, "max"))

    for kind in ("ad", "pd"):
        dev = max(
            float(np.linalg.norm(
                np.asarray(evolve_global(c, p, kind).mat)
                - np.asarray(appendix_golden_state(c, p, kind).mat)
            ))
            for c in grid
            for p in grid
        )
        res.append(_anchor(f"golden_vs_dilation_{kind}", 0.0, dev, 1e-10, "max"))

    dev = float(np.abs(
        np.asarray(evolve_global(1.0, 0.5, "ad").mat) - np.asarray(wst.mat)
    ).max())
    res.append(_anchor("W_limit_state_ad_p_half", 0.0, dev, 1e-12, "max"))
    ghz_mat = np.outer(ghz_lim.vec, ghz_lim.vec.conj())
    dev = float(np.abs(np.asarray(evolve_global(1.0, 1.0, "pd").mat) - ghz_mat).max())
    res.append(_anchor("GHZ_limit_state_pd_p_one", 0.0, dev, 1e-12, "max"))

    cut = Bipartition((0,), 2)
    dev = max(
        abs(ppt_min_eigenvalue(werner_state(c), cut) - (1 - 3 * c) / 4)
        for c in (0.0, 1 / 3, 0.5, 1.0)
    )
    res.append(_anchor("werner_ppt_closed_form", 0.0, dev, 1e-12, "max"))

    vac2 = np.zeros((4, 4))
    vac2[0, 0] = 1.0
    dev = max(
        float(np.abs(
            np.asarray(partial_trace(evolve_global(c, 1.0, "ad"), (0, 2)).mat) - vac2
        ).max())
        for c in grid
    )
    res.append(_anchor("ad_env_transfer_p_one", 0.0, dev, 1e-12, "max"))

    for c in (0.4, 1.0):
        val = genuine_total_In(evolve_global(c, 1.0, "ad"), SWAP_SYMMETRY).value_bits
        res.append(_anchor(f"ad_I4_p_one_zero_c{c}", 0.0, val, 1e-9, "max"))
    val = genuine_total_In(evolve_global(1.0, 1.0, "pd"), SWAP_SYMMETRY).value_bits
    res.append(_anchor("pd_I4_p_one_c_one", 2.0, val, 1e-9))
    for kind in ("ad", "pd"):
        val = genuine_total_In(evolve_global(0.7, 0.0, kind), SWAP_SYMMETRY).value_bits
        res.append(_anchor(f"{kind}_I4_p_zero", 0.0, val, 1e-9, "max"))

    triples = list(itertools.combinations(range(4), 3))
    qmax = max(
        multipartite_quantum_Q(partial_trace(ghz4, t), cfg).value_bits for t in triples
    )
    res.append(_anchor("ghz_marginal_quantumness_zero", 0.0, qmax, 1e-6, "max"))
    qmin = min(
        multipartite_quantum_Q(partial_trace(wst, t), cfg).value_bits for t in triples
    )
    res.append(_anchor("w_marginal_quantumness_positive", 0.01, qmin, 0.0, "ge"))
    return res


def appendix_deviations(grid_count: int = 11) -> list[tuple[str, float, float, float]]:
    """Max elementwise |dilation - golden| per (kind, c, p) cell."""
    grid = np.linspace(0.0, 1.0, grid_count)
    out = []
    for kind in ("ad", "pd"):
        for c in grid:
            for p in grid:
                dev = float(np.abs(
                    np.asarray(evolve_global(c, p, kind).mat)
                    - np.asarray(appendix_golden_state(c, p, kind).mat)
                ).max())
                out.append((kind, float(c), float(p), dev))
    return out
