"""Command-line interface.

Subcommands: sweep, verify-anchors, state-info, sudden-change.
Exit codes: 0 on success, 1 when any reference check fails, 2 on usage errors.

Every setting is a flag.  The flags default to the library's defaults:
SearchConfig() for the search and SweepSpec for the sweep.  The kink
detector of sudden-change has a fixed rule (see detect_sudden_change).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .channels import CHANNELS
from .classical_search import SearchConfig
from .experiments import (
    SUPPORTED_MEASURES,
    SweepSpec,
    detect_sudden_change,
    evaluate_measures,
    read_csv,
    run_sweep,
    verify_anchors,
    write_csv,
    write_manifest,
)
from .linalg import DensityMatrix, load_state

# the defaults of the flags: those of the search and the sweep
_DEFAULT_SEARCH = SearchConfig()
_DEFAULT_SWEEP = SweepSpec("ad")


def _search_config(args) -> SearchConfig:
    return SearchConfig(starts=args.starts, max_evals=args.max_evals, rng_seed=args.seed)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s.strip())


def _names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        channel=args.channel,
        c_values=args.c,
        p_count=args.grid,
        measures=args.measures,
        search=_search_config(args),
        output=args.output,
    )
    # fail before the sweep, not after it
    if not spec.output:
        raise ValueError("the output path is empty")
    if os.path.isdir(spec.output):
        raise IsADirectoryError(f"output {spec.output} is a directory")
    outdir = os.path.dirname(spec.output) or "."
    if not os.path.isdir(outdir):
        raise FileNotFoundError(f"output directory {outdir} does not exist")
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
    report = verify_anchors(_search_config(args))
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


def _cmd_state_info(args) -> int:
    cfg = _search_config(args)
    state = load_state(args.file)
    rho = state if isinstance(state, DensityMatrix) else state.to_density()
    measures = _names(args.measures) if args.measures else ("I4", "I3")
    values, flags = evaluate_measures(rho, measures, cfg)
    doc = {"dims": list(rho.dims), "measures": values}
    if flags:
        doc["flags"] = flags
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_sudden_change(args) -> int:
    rows = read_csv(args.csv)
    reports = detect_sudden_change(rows, args.measure)
    for rep in reports:
        print(json.dumps(dataclasses.asdict(rep)))
    print(f"{len(reports)} sudden change(s) detected for {args.measure}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gencorr",
        description="Genuine multipartite correlation sweeps for locally damped two-qubit systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_search_flags(p):
        p.add_argument("--starts", type=int, default=_DEFAULT_SEARCH.starts,
                       help="basis-search starts, each run to its own stop; "
                            "start 0 is the computational basis, starts 1..2^m-1 "
                            "of m qubit cells are the Z/X product bases, later "
                            "starts are Haar draws (default %(default)s)")
        p.add_argument("--max-evals", dest="max_evals", type=int,
                       default=_DEFAULT_SEARCH.max_evals,
                       help="objective evaluations per start (default %(default)s)")
        p.add_argument("--seed", type=int, default=_DEFAULT_SEARCH.rng_seed,
                       help="rng seed (default %(default)s)")

    p = sub.add_parser("sweep", help="compute measures over a (c, p) grid")
    p.add_argument("--channel", choices=CHANNELS, default=_DEFAULT_SWEEP.channel)
    p.add_argument("--c", type=_floats, default=_DEFAULT_SWEEP.c_values,
                   help="comma-separated c values")
    p.add_argument("--grid", type=int, default=_DEFAULT_SWEEP.p_count,
                   help="p grid point count")
    p.add_argument("--measures", type=_names, default=_DEFAULT_SWEEP.measures,
                   help=f"comma-separated from {','.join(SUPPORTED_MEASURES)}")
    p.add_argument("--output", default="sweep.csv")
    add_search_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-anchors", help="check built-in reference values")
    add_search_flags(p)
    p.set_defaults(func=_cmd_verify_anchors)

    p = sub.add_parser("state-info", help="measures of a serialized state")
    p.add_argument("file")
    p.add_argument("--measures", default=None)
    add_search_flags(p)
    p.set_defaults(func=_cmd_state_info)

    p = sub.add_parser("sudden-change", help="detect slope discontinuities in a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--measure", required=True)
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
