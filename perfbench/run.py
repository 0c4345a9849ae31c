#!/usr/bin/env python3
"""gencorr benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a gencorr checkout):

    python3 perfbench/run.py --workload cut_search --seed 3 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced blocks and prints the per-layer metrics from
the traced ones.  The last line of standard output is the result object;
the lines before it give the environment and a readable summary.  A copy of
the result, and with --trace 1 the spans, goes to .perfbench_out/.
"""

import os

# Single-threaded BLAS/OpenMP, set before numpy is first imported, so that
# search values repeat exactly and timings do not depend on idle cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 4  # extra set-ups in fresh interpreters, besides this process's own
CHILD_TIMEOUT_S = 120
# The calibration kernel runs between units and between set-ups.  Its time at
# the nominal machine speed scales the normalized times back to seconds.
CAL_REPS = 120
NOMINAL_CAL_S = 0.010


def import_program() -> None:
    """Import gencorr from this checkout's src/, never from an installed copy."""
    pkg = SRC / "gencorr"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gencorr sources at {pkg}; run from a gencorr checkout")
    sys.path.insert(0, str(SRC))
    import gencorr

    if Path(gencorr.__file__).resolve().parent != pkg:
        raise SystemExit(f"perfbench: imported gencorr from {gencorr.__file__}, not {pkg}")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def set_up(args):
    """Import, generate the seeded inputs and warm up; the set-up that setup_s times."""
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    workloads.warm_up(workload)
    return workload


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def setup_samples(args, own_setup_s: float) -> tuple[list[float], list[float]]:
    """Set-up seconds of this process and of SETUP_REPEATS fresh interpreters.

    Returns the raw seconds and each divided by the calibration time measured
    right around it, the same normalization the unit times get.
    """
    cal = calibration_kernel()
    before = cal()
    raw, normalized = [own_setup_s], [own_setup_s / before]
    for _ in range(SETUP_REPEATS):
        seconds = child_setup_seconds(args)
        after = cal()
        raw.append(seconds)
        normalized.append(seconds / ((before + after) / 2))
        before = after
    return raw, normalized


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def calibration_kernel():
    """Fixed small-matrix numpy work of the kind gencorr's inner loops do.

    It never calls gencorr, so no change to the program moves its time; its
    time tracks the machine's current speed, which on a shared host drifts by
    tens of percent over minutes.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    h = rng.normal(size=(16, 16))
    h = h + h.T
    u = rng.normal(size=(2, 2))

    def run() -> float:
        t = time.perf_counter()
        for _ in range(CAL_REPS):
            np.linalg.eigvalsh(h)
            np.kron(np.kron(u, u), np.kron(u, u))
            sum(range(50))
        return time.perf_counter() - t

    return run


@dataclass
class Block:
    """One pass over every unit of a workload."""

    seconds: list[float]  # wall time per unit
    normalized: list[float]  # unit time ÷ the calibration time around it
    traced: bool
    items: list


def measure(workload, seconds: float, tracer=None) -> list[Block]:
    """Run blocks until the next one would end past `seconds`.

    Each unit is timed, and the calibration kernel runs before the first and
    after every unit.  With a tracer, blocks alternate untraced/traced,
    starting untraced, and at least one of each runs.
    """
    cal = calibration_kernel()
    cal_before = cal()
    blocks: list[Block] = []
    t_start = time.perf_counter()
    while True:
        block = Block([], [], tracer is not None and len(blocks) % 2 == 1, [])
        for i in range(workload.n_units):
            if block.traced:
                tracer.install()
            try:
                t = time.perf_counter()
                block.items += workload.run_unit(i)
                dt = time.perf_counter() - t
            finally:
                if block.traced:
                    tracer.uninstall()
            cal_after = cal()
            block.seconds.append(dt)
            block.normalized.append(dt / ((cal_before + cal_after) / 2))
            cal_before = cal_after
        blocks.append(block)
        elapsed = time.perf_counter() - t_start
        if len(blocks) >= (2 if tracer else 1) and elapsed + unit_median_sum(blocks) > seconds:
            return blocks


def unit_median_sum(blocks: list[Block], normalized: bool = False) -> float:
    """Sum over units of the unit's median time across the given blocks."""
    per_block = [b.normalized if normalized else b.seconds for b in blocks]
    return sum(statistics.median(ts) for ts in zip(*per_block))


def verify(workload, blocks: list[Block]) -> tuple[int, int, list[str]]:
    """Check the first block fully, and every later block against the first."""
    import workloads

    first = blocks[0].items
    per_item = workload.check(first)
    for block in blocks[1:]:
        per_item += workloads.repeat_mismatches(workload, first, block.items)
    failures = [msg for errors in per_item for msg in errors]
    failed = sum(1 for errors in per_item if errors)
    return len(per_item), failed, failures


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(workload, blocks, setup_normalized, attempted, failed) -> dict:
    items = len(blocks[0].items)
    return {
        "norm_items_per_s": metric(
            items / (unit_median_sum(blocks, normalized=True) * NOMINAL_CAL_S), "items/s"),
        "setup_s": metric(statistics.median(setup_normalized) * NOMINAL_CAL_S, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "correct_frac": metric(1 - failed / attempted, "ratio"),
        "mean_value_bits": metric(workload.mean_value(blocks[0].items), "bits"),
    }


SPAN_METRICS = (
    "channels.evolve_global",
    "linalg.partial_trace",
    "linalg.DensityMatrix",
    "entropy.von_neumann_entropy",
    "entropy.shannon",
    "genuine_correlations.genuine_total_In",
    "states.fidelity",
    "classical_search.closest_classical_state",
)


def per_layer_metrics(tracer, blocks: list[Block]) -> dict:
    traced = [b for b in blocks if b.traced]
    untraced = [b for b in blocks if not b.traced]
    items = len(blocks[0].items) * len(traced)
    traced_s = sum(sum(b.seconds) for b in traced)
    spans = tracer.by_name()
    out = {}
    for name in SPAN_METRICS:
        out[f"{name}.calls"] = metric(spans[name]["calls"] / items, "count/item")
        out[f"{name}.us_p50"] = metric(spans[name]["us_p50"], "us")
    search = spans["classical_search.closest_classical_state"]
    out["classical_search.closest_classical_state.self_s"] = metric(search["self_s"] / items, "s/item")
    out["classical_search.evals"] = metric(tracer.evals / items, "count/item")
    out["classical_search.evals_per_search"] = metric(
        tracer.evals / search["calls"] if search["calls"] else 0.0, "count")
    out["classical_search.us_per_eval"] = metric(
        search["self_s"] * 1e6 / tracer.evals if tracer.evals else 0.0, "us")
    out["classical_search.cap_hit_frac"] = metric(
        tracer.cap_hits / tracer.starts if tracer.starts else 0.0, "ratio")
    out["genuine_correlations.multipartite_quantum_Q.calls"] = metric(
        spans["genuine_correlations.multipartite_quantum_Q"]["calls"] / items, "count/item")
    out["experiments.run_sweep.self_s"] = metric(spans["experiments.run_sweep"]["self_s"] / items, "s/item")
    for layer, self_s in tracer.layer_self_s().items():
        out[f"{layer}.self_frac"] = metric(self_s / traced_s, "ratio")
    out["trace.overhead_frac"] = metric(
        unit_median_sum(traced, normalized=True) / unit_median_sum(untraced, normalized=True) - 1,
        "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = set_up(args)
    own_setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    env = environment()
    print("env " + json.dumps(env), flush=True)
    tracer = None
    setup_raw, setup_normalized = [own_setup_s], []
    if args.trace:
        from spans import Tracer

        tracer = Tracer(item_marker=workload.item_marker)
    else:
        setup_raw, setup_normalized = setup_samples(args, own_setup_s)

    blocks = measure(workload, args.seconds, tracer)
    attempted, failed, failures = verify(workload, blocks)
    if args.trace:
        metrics = per_layer_metrics(tracer, blocks)
    else:
        metrics = end_to_end_metrics(workload, blocks, setup_normalized, attempted, failed)

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    items = len(blocks[0].items)
    wall_items_per_s = items / unit_median_sum(blocks)
    print(f"{args.workload} seed={args.seed}: {len(blocks)} blocks of {items} items in "
          f"{workload.n_units} units, block seconds {[round(sum(b.seconds), 3) for b in blocks]}, "
          f"wall-clock {wall_items_per_s:.4g} items/s, set-up seconds {[round(t, 3) for t in setup_raw]}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, env=env, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  tiny=args.tiny, wall_items_per_s=wall_items_per_s,
                  blocks=[vars(b) | {"items": len(b.items)} for b in blocks],
                  setup_seconds=setup_raw, setup_normalized=setup_normalized, failures=failures)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{args.workload}.spans")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
