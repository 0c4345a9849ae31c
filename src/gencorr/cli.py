"""Command-line interface.

Subcommands: sweep, verify-anchors, verify-appendix, state-info, sudden-change.
Exit codes: 0 on success, 1 when any reference check fails, 2 on usage errors.

Option precedence for search settings: explicit flag > GENCORR_SEED (seed
only) > config file > built-in default.  The config file is plain
"key = value" lines; '#' starts a comment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classical_search import SearchConfig
from .experiments import (
    SUPPORTED_MEASURES,
    SweepSpec,
    appendix_deviations,
    detect_sudden_change,
    evaluate_measures,
    read_csv,
    run_sweep,
    verify_anchors,
    write_csv,
    write_manifest,
)
from .linalg import DensityMatrix, load_state

_DEFAULT_SEARCH = SearchConfig()  # the built-in defaults of the search flags

_CONFIG_KEYS = {
    "channel": str,
    "c": str,
    "grid": int,
    "measures": str,
    "output": str,
    "starts": int,
    "max_evals": int,
    "rng_seed": int,
    "workers": int,
    "kappa": float,
    "window": int,
}


def _parse_config(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](val)
    return values


def _settings(args):
    """pick(flag_value, key, default) in the order flag > GENCORR_SEED (for
    rng_seed only) > the --config file > default."""
    config = _parse_config(args.config) if args.config else {}

    def pick(flag_val, key, default):
        if flag_val is not None:
            return flag_val
        if key == "rng_seed" and os.environ.get("GENCORR_SEED"):
            return int(os.environ["GENCORR_SEED"])
        return config.get(key, default)

    return pick


def _search_config(args, pick) -> SearchConfig:
    return SearchConfig(
        starts=pick(args.starts, "starts", _DEFAULT_SEARCH.starts),
        max_evals=pick(args.max_evals, "max_evals", _DEFAULT_SEARCH.max_evals),
        rng_seed=pick(args.seed, "rng_seed", _DEFAULT_SEARCH.rng_seed),
    )


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _cmd_sweep(args) -> int:
    pick = _settings(args)
    spec = SweepSpec(
        channel=pick(args.channel, "channel", "ad"),
        c_values=_floats(pick(args.c, "c", "0.4,1.0")),
        p_count=pick(args.grid, "grid", None),
        measures=_names(pick(args.measures, "measures", "I4,I3,I3_abEa,I3_aEaEb")),
        search=_search_config(args, pick),
        output=pick(args.output, "output", "sweep.csv"),
        workers=pick(args.workers, "workers", 1),
    )
    rows = run_sweep(spec)
    write_csv(rows, spec.measures, spec.output)
    manifest = os.path.splitext(spec.output)[0] + ".manifest.json"
    write_manifest(spec, rows, manifest)
    flagged = sum(1 for r in rows if r.get("_flags"))
    print(f"wrote {len(rows)} rows to {spec.output} (manifest: {manifest})")
    if flagged:
        print(f"warning: {flagged} rows carry flagged measures; see manifest")
    return 0


def _cmd_verify_anchors(args) -> int:
    report = verify_anchors(_search_config(args, _settings(args)))
    failed = 0
    for entry in report:
        status = "PASS" if entry["passed"] else "FAIL"
        failed += not entry["passed"]
        print(
            f"[{status}] {entry['name']}: expected={entry['expected']:.6g} "
            f"actual={entry['actual']:.10g} deviation={entry['deviation']:.3e} "
            f"tol={entry['tol']:.1e}"
        )
    print(f"{len(report) - failed}/{len(report)} anchors passed")
    return 1 if failed else 0


def _cmd_verify_appendix(args) -> int:
    worst = 0.0
    for kind, c, p, dev in appendix_deviations(args.grid):
        print(f"{kind} c={c:.2f} p={p:.2f} max|delta|={dev:.3e}")
        worst = max(worst, dev)
    print(f"worst deviation: {worst:.3e}")
    return 0 if worst <= 1e-10 else 1


def _cmd_state_info(args) -> int:
    cfg = _search_config(args, _settings(args))
    state = load_state(args.file)
    rho = state if isinstance(state, DensityMatrix) else state.to_density()
    measures = _names(args.measures) if args.measures else ("I4", "I3")
    values, flags = evaluate_measures(rho, measures, cfg)
    doc = {"dims": list(rho.dims.dims), "measures": values}
    if flags:
        doc["flags"] = flags
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_sudden_change(args) -> int:
    pick = _settings(args)
    kappa = pick(args.kappa, "kappa", 10.0)
    window = pick(args.window, "window", 5)
    rows = read_csv(args.csv)
    reports = detect_sudden_change(rows, args.measure, kappa=kappa, window=window)
    for rep in reports:
        print(json.dumps(rep.to_json_dict()))
    print(f"{len(reports)} sudden change(s) detected for {args.measure}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencorr",
        description="Genuine multipartite correlation sweeps for locally damped two-qubit systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--starts", type=int, default=None,
                       help=f"basis-search starts, each a share of the iteration "
                            f"budget (default {_DEFAULT_SEARCH.starts})")
        p.add_argument("--max-evals", dest="max_evals", type=int, default=None,
                       help=f"objective evaluations per start "
                            f"(default {_DEFAULT_SEARCH.max_evals})")
        p.add_argument("--seed", type=int, default=None, help="rng seed (or GENCORR_SEED)")
        p.add_argument("--config", default=None, help="key = value settings file")

    p = sub.add_parser("sweep", help="compute measures over a (c, p) grid")
    p.add_argument("--channel", choices=("ad", "pd"), default=None)
    p.add_argument("--c", default=None, help="comma-separated c values")
    p.add_argument("--grid", type=int, default=None, help="p grid point count")
    p.add_argument("--measures", default=None,
                   help=f"comma-separated from {','.join(SUPPORTED_MEASURES)}")
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=int, default=None)
    add_search_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-anchors", help="check built-in reference values")
    add_search_flags(p)
    p.set_defaults(func=_cmd_verify_anchors)

    p = sub.add_parser("verify-appendix",
                       help="compare the evolved states against the golden construction")
    p.add_argument("--grid", type=int, default=11)
    p.set_defaults(func=_cmd_verify_appendix)

    p = sub.add_parser("state-info", help="measures of a serialized state")
    p.add_argument("file")
    p.add_argument("--measures", default=None)
    add_search_flags(p)
    p.set_defaults(func=_cmd_state_info)

    p = sub.add_parser("sudden-change", help="detect slope discontinuities in a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--measure", required=True)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_sudden_change)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gencorr: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
