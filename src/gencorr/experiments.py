"""Parameter sweeps over (c, p), reference-value verification, and kink detection.

run_sweep drives the evolved four-party states over a (c, p) grid and
evaluates the requested correlation and fidelity measures per row through
one table of library quantifiers (evaluate_measures).  Before the rows of a
(channel, c) series, every basis search its columns read runs in one
batched search, which memoizes the results on the states for the rows to
read.  Then each row takes, in one batch, the genuine_total_In of every
state its I columns read, so its spectra cost one eigenvalue call per
matrix side.  The evolved states carry their swap symmetry
(a,E_a) <-> (b,E_b) (see evolve_global), so every quantifier evaluates one
cut or triple per swap class: of the four triples of the 3-party measures,
only {a,E_a,b} and {a,E_a,E_b}.

detect_sudden_change flags interior grid points where the finite-difference
slope of a series jumps by more than _KAPPA times the local slope noise, the
signature of a discontinuous change in the evolution rate.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .channels import CHANNELS, evolve_global, appendix_golden_state, upsilon_pd, werner_state
from .classical_search import SearchConfig
from .entropy import shannon
from .genuine_correlations import (
    Bipartition,
    _one_cell_each,
    _searches,
    _subsets,
    _total_Ins,
    genuine_classical_Ck,
    genuine_classical_Cn,
    genuine_total_Ik,
    genuine_total_In,
    max_over_subsets,
    multipartite_quantum_Q,
)
from .linalg import DEFAULT_TOL, DensityMatrix, partial_trace
from .states import fidelity, ghz, ppt_min_eigenvalue, w4

__all__ = [
    "SUPPORTED_MEASURES",
    "SweepSpec",
    "SuddenChangeReport",
    "evaluate_measures",
    "run_sweep",
    "write_csv",
    "read_csv",
    "write_manifest",
    "detect_sudden_change",
    "verify_anchors",
]

# The two fidelity targets of the F_W/F_GHZ columns and of verify_anchors
# are fixed, read-only states: built once here, not once per row or per
# anchor evaluation.  upsilon_pd(1.0) = (|0011> - |1100>)/sqrt(2) is the pd
# limit at c = 1, a GHZ state up to local flips.
_W4 = w4()
_GHZ_LIMIT = upsilon_pd(1.0)


def _reductions(k: int):
    """rho -> its k-subsystem reductions, one per class of its symmetries (rho itself at k = n)."""
    return lambda rho: [partial_trace(rho, sub) for sub in _subsets(rho.n, k, rho.symmetries)]


def _qubit_searches(k: int):
    """rho -> the qubit-cell search of each of its k-subsystem reductions, as jobs of _searches."""
    return lambda rho: [(red, _one_cell_each(k)) for red in _reductions(k)(rho)]


# column -> (the (state, cells) searches it reads, as a function of rho in
# the form _searches takes, or None; the states whose genuine_total_In it
# reads, or None; its value for (rho, cfg)).  Each quantifier reads rho's
# symmetries off rho.  Q4, C4 and C3 read one four-party search, memoized
# on rho.  The lambdas look the library functions (fidelity included) up
# when a row is evaluated, so a patched module binding (a test double, a
# tracer) sees every call.
_MEASURES = {
    "I4": (None, lambda rho: (rho,), lambda rho, _: genuine_total_In(rho).value_bits),
    "I3": (None, _reductions(3), lambda rho, _: genuine_total_Ik(rho, 3).value_bits),
    "I3_abEa": (None, lambda rho: (partial_trace(rho, (0, 1, 2)),),
                lambda rho, _: genuine_total_In(partial_trace(rho, (0, 1, 2))).value_bits),
    "I3_aEaEb": (None, lambda rho: (partial_trace(rho, (0, 1, 3)),),
                 lambda rho, _: genuine_total_In(partial_trace(rho, (0, 1, 3))).value_bits),
    # Q4 is the fully multipartite Q (one basis per subsystem), Q3 its max over triples
    "Q4": (_qubit_searches(4), None, lambda rho, cfg: multipartite_quantum_Q(rho, cfg).value_bits),
    "Q3": (_qubit_searches(3), None, lambda rho, cfg: max_over_subsets(
        rho, 3, lambda red: multipartite_quantum_Q(red, cfg)
    ).value_bits),
    "C4": (_qubit_searches(4), None, lambda rho, cfg: genuine_classical_Cn(rho, cfg).value_bits),
    "C3": (_qubit_searches(4), None, lambda rho, cfg: genuine_classical_Ck(rho, 3, cfg).value_bits),
    "F_W": (None, None, lambda rho, _: fidelity(_W4, rho)),
    "F_GHZ": (None, None, lambda rho, _: fidelity(_GHZ_LIMIT, rho)),
}
SUPPORTED_MEASURES = tuple(_MEASURES)


def _check_measures(measures: tuple[str, ...]) -> None:
    if not measures:
        raise ValueError(f"at least one measure is needed; choose from {SUPPORTED_MEASURES}")
    bad = [m for m in measures if m not in _MEASURES]
    if bad:
        raise ValueError(f"unsupported measures {bad}; choose from {SUPPORTED_MEASURES}")
    repeated = sorted({m for m in measures if measures.count(m) > 1})
    if repeated:
        raise ValueError(f"measures {repeated} are repeated")


def _evaluate(rhos, measures, cfg):
    """Values and failure flags of the named measures for each state, in order.

    First, one batched search (_searches) runs the searches that the
    measures declare, over all the states, as given, and memoizes the
    results.  If that call raises, nothing is memoized and each row runs
    its own searches, so a search that raises flags only its row.  Without
    searches, each state can go once its row is done.  Then, row by row,
    one _total_Ins call takes the genuine_total_In of every state the row's
    columns read, with one eigenvalue call per matrix side for the row's
    spectra and the cut marginals as plain arrays, so the row's states are
    rho and the reductions its columns read (on an I/F row: rho and its two
    triples); if it raises, it memoizes no spectrum or report, and each
    column evaluates on its own.  A measure that raises is NaN with a
    "name: error" flag.
    """
    searches = [_MEASURES[m][0] for m in measures if _MEASURES[m][0]]
    if searches:
        rhos = list(rhos)
        try:
            _searches([job for rho in rhos for search in searches for job in search(rho)], cfg)
        except Exception:  # noqa: BLE001 - each row then runs its own searches
            pass
    reads = [_MEASURES[m][1] for m in measures if _MEASURES[m][1]]
    for rho in rhos:
        if reads:
            try:
                _total_Ins([state for read in reads for state in read(rho)])
            except Exception:  # noqa: BLE001 - each column then flags its own failure
                pass
        values: dict[str, float] = {}
        flags: list[str] = []
        for m in measures:
            try:
                values[m] = _MEASURES[m][2](rho, cfg)
            except Exception as exc:  # noqa: BLE001 - flagged, not fatal
                values[m] = math.nan
                flags.append(f"{m}: {exc}")
        yield values, flags


def evaluate_measures(
    rho: DensityMatrix, measures, cfg: SearchConfig = SearchConfig()
) -> tuple[dict[str, float], list[str]]:
    """Values of the named measures of a four-qubit state, and failure flags.

    A measure that raises is NaN with a "name: error" flag, never fatal.
    The cuts and triples are pruned by rho.symmetries, as in a sweep.
    """
    measures = tuple(measures)
    _check_measures(measures)
    if rho.dims != (2, 2, 2, 2):
        raise ValueError(f"the measures expect a 4-qubit state, got dims {rho.dims}")
    return next(_evaluate([rho], measures, cfg))


_TEXT = (str, bytes, bytearray)


def _number(x) -> float:
    """float(x) for a number; TypeError for text, which float() would parse,
    and for a bool, which it would read as 0 or 1."""
    if isinstance(x, _TEXT + (bool, np.bool_)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a channel, a list of c values, a uniform p grid, measures.

    p_count=None resolves to 41 when any measure runs a basis search (Q and
    C columns) and 101 otherwise.  c_values are distinct numbers in [0, 1]
    (Python or numpy ints and floats); a string, or a string or bool entry,
    raises ValueError.
    """

    channel: str
    c_values: tuple[float, ...] = (0.4, 1.0)
    p_count: int | None = None
    measures: tuple[str, ...] = ("I4", "I3", "I3_abEa", "I3_aEaEb")
    search: SearchConfig = field(default_factory=SearchConfig)
    output: str | None = None

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be 'ad' or 'pd', got {self.channel!r}")
        object.__setattr__(self, "measures", tuple(self.measures))
        _check_measures(self.measures)
        if self.p_count is not None:
            if not isinstance(self.p_count, numbers.Integral) or isinstance(self.p_count, bool):
                raise ValueError(f"p_count must be an integer, got {self.p_count!r}")
            if self.p_count < 2:
                raise ValueError("p grid needs at least 2 points")
        try:
            if isinstance(self.c_values, _TEXT):
                raise TypeError
            c_values = tuple(_number(c) for c in self.c_values)
        except TypeError:
            raise ValueError(f"c_values must be a sequence of numbers, got {self.c_values!r}") from None
        object.__setattr__(self, "c_values", c_values)
        if not self.c_values:
            raise ValueError("a sweep needs at least one c value")
        bad_c = [c for c in self.c_values if not 0.0 <= c <= 1.0]
        if bad_c:
            raise ValueError(f"c values must lie in [0, 1], got {bad_c}")
        repeated_c = sorted({c for c in self.c_values if self.c_values.count(c) > 1})
        if repeated_c:
            raise ValueError(f"c values {repeated_c} are repeated")

    def resolved_p_count(self) -> int:
        if self.p_count is not None:
            return self.p_count
        return 41 if any(_MEASURES[m][0] is not None for m in self.measures) else 101


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per (c, p) with all requested measures, ordered by the given
    c values, then ascending p; deterministic for a fixed rng_seed.

    Each (channel, c) series in turn: its states are built first, then every
    basis search its measures read runs in one batched search (see
    _evaluate), then its rows are evaluated.
    """
    ps = [float(p) for p in np.linspace(0.0, 1.0, spec.resolved_p_count())]
    rows = []
    for c in spec.c_values:
        rhos = (evolve_global(c, p, spec.channel) for p in ps)
        for p, (values, flags) in zip(ps, _evaluate(rhos, spec.measures, spec.search)):
            row = {"channel": spec.channel, "c": c, "p": p, **values}
            if flags:
                row["_flags"] = flags
            rows.append(row)
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
    """The rows of a write_csv file; ValueError unless it has channel, c and p
    columns and a number in every other cell."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [key for key in ("channel", "c", "p") if key not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: no {', '.join(missing)} column in the CSV header")
        for rec in reader:
            row: dict = {"channel": rec["channel"]}
            for key, val in rec.items():
                if key != "channel":
                    try:
                        row[key] = float(val)
                    except (TypeError, ValueError):  # a short, long or non-numeric row
                        raise ValueError(
                            f"{path} line {reader.line_num}: {key} is {val!r}") from None
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


# The kink detector's threshold and noise half-width (grid steps): one value
# of each is in use, by the figure script, the CLI and acceptance criterion 9.
_KAPPA = 10.0
_WINDOW = 5


def detect_sudden_change(rows: list[dict], measure: str) -> list[SuddenChangeReport]:
    """Find slope discontinuities of a measure along each (channel, c) series.

    A point is flagged when its slope jump exceeds _KAPPA times the median
    of the jumps 2 to _WINDOW grid steps away on either side (so a kink split
    across two grid points still registers).  Points without a full window
    on both sides are never flagged: near the grid edge a kink is not
    separable from boundary steepness (a sqrt- or entropy-like onset).  On a
    101-point grid a -|p - p_k| kink at point 6 or 94 is reported, one at
    points 0-5 or 95-100 is not.  Adjacent flags merge to the largest jump.
    Requires a finite measure in every row and a uniform p grid with >= 11
    points.
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
        ys = np.array([float(r.get(measure, math.nan)) for r in grp])
        bad = ps[~np.isfinite(ys)]
        if bad.size:
            raise ValueError(f"{measure} is missing or not finite at {channel} c={c} p={bad[0]}")
        if len(ps) < 11:
            raise ValueError(f"grid too coarse for kink detection: {len(ps)} points")
        steps = np.diff(ps)
        if steps.max() - steps.min() > 1e-9 * max(steps.max(), 1.0):
            raise ValueError("p grid is not uniform")
        slopes = np.diff(ys) / steps
        jumps = np.abs(np.diff(slopes))  # jump j sits at grid point j+1
        floor = 1e-12 * max(1.0, float(np.abs(ys).max()))
        w = min(_WINDOW, (len(jumps) - 3) // 2)  # >= 3: at least 11 points
        hits = []
        for j in range(w, len(jumps) - w):
            neigh = np.concatenate([jumps[j - w : j - 1], jumps[j + 2 : j + w + 1]])
            noise = float(np.median(neigh))
            if jumps[j] > _KAPPA * max(noise, floor):
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
    wst = _W4.to_density()
    res.append(_anchor("I4_GHZ4", 2.0, genuine_total_In(ghz4).value_bits, 1e-9))
    res.append(_anchor("I3_GHZ4", 1.0, genuine_total_Ik(ghz4, 3).value_bits, 1e-9))
    # W4 is pure with one-qubit spectra (3/4, 1/4) and two-qubit spectra
    # (1/2, 1/2): its 1|3 cuts carry 2*H2(1/4) < 2 (the 2|2 value), and every
    # cut of a 3-qubit reduction carries H2(1/4) + 1 - H2(1/4) = 1.
    res.append(_anchor("I4_W4", 2 * shannon((0.25, 0.75)), genuine_total_In(wst).value_bits, 1e-9))
    res.append(_anchor("I3_W4", 1.0, genuine_total_Ik(wst, 3).value_bits, 1e-9))

    dev_w = max(
        abs(fidelity(_W4, evolve_global(c, p, "ad")) - _fid_w_closed(c, p))
        for c in grid
        for p in grid
    )
    res.append(_anchor("fidelity_W_ad_closed_form", 0.0, dev_w, 1e-10))
    dev_g = max(
        abs(fidelity(_GHZ_LIMIT, evolve_global(c, p, "pd")) - _fid_ghz_closed(c, p))
        for c in grid
        for p in grid
    )
    res.append(_anchor("fidelity_GHZ_pd_closed_form", 0.0, dev_g, 1e-10))

    for kind in CHANNELS:
        dev = max(
            float(np.linalg.norm(
                np.asarray(evolve_global(c, p, kind).mat)
                - np.asarray(appendix_golden_state(c, p, kind).mat)
            ))
            for c in grid
            for p in grid
        )
        res.append(_anchor(f"golden_vs_dilation_{kind}", 0.0, dev, 1e-10))

    dev = float(np.abs(
        np.asarray(evolve_global(1.0, 0.5, "ad").mat) - np.asarray(wst.mat)
    ).max())
    res.append(_anchor("W_limit_state_ad_p_half", 0.0, dev, 1e-12))
    ghz_mat = np.outer(_GHZ_LIMIT.vec, _GHZ_LIMIT.vec.conj())
    dev = float(np.abs(np.asarray(evolve_global(1.0, 1.0, "pd").mat) - ghz_mat).max())
    res.append(_anchor("GHZ_limit_state_pd_p_one", 0.0, dev, 1e-12))

    cut = Bipartition((0,), 2)
    dev = max(
        abs(ppt_min_eigenvalue(werner_state(c), cut) - (1 - 3 * c) / 4)
        for c in (0.0, 1 / 3, 0.5, 1.0)
    )
    res.append(_anchor("werner_ppt_closed_form", 0.0, dev, 1e-12))

    vac2 = np.zeros((4, 4))
    vac2[0, 0] = 1.0
    dev = max(
        float(np.abs(
            np.asarray(partial_trace(evolve_global(c, 1.0, "ad"), (0, 2)).mat) - vac2
        ).max())
        for c in grid
    )
    res.append(_anchor("ad_env_transfer_p_one", 0.0, dev, 1e-12))

    for c in (0.4, 1.0):
        val = genuine_total_In(evolve_global(c, 1.0, "ad")).value_bits
        res.append(_anchor(f"ad_I4_p_one_zero_c{c}", 0.0, val, 1e-9))
    val = genuine_total_In(evolve_global(1.0, 1.0, "pd")).value_bits
    res.append(_anchor("pd_I4_p_one_c_one", 2.0, val, 1e-9))
    for kind in CHANNELS:
        val = genuine_total_In(evolve_global(0.7, 0.0, kind)).value_bits
        res.append(_anchor(f"{kind}_I4_p_zero", 0.0, val, 1e-9))

    triples = list(itertools.combinations(range(4), 3))
    qmax = max(
        multipartite_quantum_Q(partial_trace(ghz4, t), cfg).value_bits for t in triples
    )
    res.append(_anchor("ghz_marginal_quantumness_zero", 0.0, qmax, 1e-6))
    qmin = min(
        multipartite_quantum_Q(partial_trace(wst, t), cfg).value_bits for t in triples
    )
    res.append(_anchor("w_marginal_quantumness_positive", 0.01, qmin, 0.0, "ge"))
    return res
