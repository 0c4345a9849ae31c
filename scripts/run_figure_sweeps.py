#!/usr/bin/env python3
"""Reproduce the correlation-dynamics data series as CSV files.

Runs, for both damping channels, the genuine-total, quantum, and classical
correlation sweeps plus the two fidelity surfaces, then scans every
genuine-total series for sudden changes.  Output lands in --outdir as one CSV
(plus manifest) per sweep; plot them with any tool that reads CSV.

Each channel runs two sweeps: one for the total and fidelity series, one for
the quantum and classical series.  So each (c, p) state of a grid is evolved
once, and runs its four-qubit basis search once.  The basis searches dominate
the runtime; tune --grid-q / --starts for a faster pass.  The wall seconds
of each sweep and of the whole pass go to stdout only, never into a CSV or
manifest, so the files stay byte-identical from run to run.
"""

import argparse
import dataclasses
import pathlib
import time

from gencorr import SearchConfig, SweepSpec, detect_sudden_change, run_sweep
from gencorr.channels import CHANNELS
from gencorr.experiments import write_csv, write_manifest

TOTAL_MEASURES = ("I4", "I3", "I3_abEa", "I3_aEaEb")
QUANTUM_MEASURES = ("Q4", "Q3")
CLASSICAL_MEASURES = ("C4", "C3")
FIDELITY_MEASURES = ("F_W", "F_GHZ")


def write_one(name: str, spec: SweepSpec, rows: list[dict], outdir: pathlib.Path) -> None:
    csv_path = outdir / f"{name}.csv"
    write_csv(rows, spec.measures, csv_path)
    write_manifest(spec, rows, outdir / f"{name}.manifest.json")
    print(f"{name}: {len(rows)} rows -> {csv_path}")


def run_series(kind, c_values, grid, groups, cfg, outdir) -> list[dict]:
    """One sweep of every column of the (name, measures) groups; one CSV and
    manifest per group."""
    spec = SweepSpec(kind, c_values, grid, sum((m for _, m in groups), ()), search=cfg)
    start = time.perf_counter()
    rows = run_sweep(spec)
    names = "+".join(f"{kind}_{name}" for name, _ in groups)
    print(f"{names}: {len(rows)} rows in {time.perf_counter() - start:.2f} s")
    for name, measures in groups:
        write_one(f"{kind}_{name}", dataclasses.replace(spec, measures=measures), rows, outdir)
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--c", default="0.2,0.4,0.6,0.8,1.0")
    ap.add_argument("--grid-i", type=int, default=101, help="p points for total series")
    ap.add_argument("--grid-q", type=int, default=41, help="p points for Q/C series")
    ap.add_argument("--starts", type=int, default=SearchConfig().starts,
                    help="basis-search starts, each run to its own stop; start 0 "
                         "is the computational basis, starts 1..2^m-1 of m qubit "
                         "cells are the Z/X product bases, later starts are Haar draws")
    ap.add_argument("--seed", type=int, default=SearchConfig().rng_seed)
    ap.add_argument("--skip-search", action="store_true",
                    help="only the entropy-based sweeps (no basis searches)")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    c_values = tuple(float(s) for s in args.c.split(","))
    cfg = SearchConfig(starts=args.starts, rng_seed=args.seed)

    start = time.perf_counter()
    total_rows = {}
    for kind in CHANNELS:
        total_rows[kind] = run_series(
            kind, c_values, args.grid_i,
            (("total", TOTAL_MEASURES), ("fidelity", FIDELITY_MEASURES)),
            cfg, outdir,
        )
        if not args.skip_search:
            run_series(
                kind, c_values, args.grid_q,
                (("quantum", QUANTUM_MEASURES), ("classical", CLASSICAL_MEASURES)),
                cfg, outdir,
            )
    print(f"pass: {time.perf_counter() - start:.2f} s")

    print("\nsudden changes in the genuine-total series:")
    for kind in CHANNELS:
        for measure in TOTAL_MEASURES:
            for rep in detect_sudden_change(total_rows[kind], measure):
                print(
                    f"  {kind} {measure} c={rep.c:g}: kink at p = {rep.p_star:.3f} "
                    f"(slope {rep.left_slope:+.3f} -> {rep.right_slope:+.3f})"
                )


if __name__ == "__main__":
    main()
