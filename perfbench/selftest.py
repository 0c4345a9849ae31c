#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a gencorr checkout:

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json at its tiny size, traced and
untraced, and checks that each declared metric is printed with its unit.  It
checks that the correctness checkers reject perturbed results, that the
tracer puts back what it wrapped, and that the benchmark refuses to run
without the gencorr sources.  Exits 1 on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg: str) -> None:
    raise SystemExit(f"selftest FAILED: {msg}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_printed_metrics(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, wl["name"], trace)
            if proc.returncode != 0:
                fail(f"{wl['name']} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                fail(f"{wl['name']} trace={trace}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{wl['name']} trace={trace}: {proc.stdout[-2000:]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                fail(f"{wl['name']} trace={trace}: metrics/units {got} != {want}")
            for name, m in result["metrics"].items():
                if not (isinstance(m["value"], float) and math.isfinite(m["value"])):
                    fail(f"{wl['name']} trace={trace}: {name} = {m['value']!r}")
            print(f"ok  {wl['name']} trace={trace}: {len(got)} metrics with units")


def check_checkers() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import gencorr
    import checks
    import spans
    import workloads

    cut = workloads.cut_search(1, tiny=True)
    (chi, _, q), = cut.run_unit(0)
    rho, cells = cut.items[0]
    if checks.check_cut_search(rho, cells, chi, q):
        fail("unperturbed cut search rejected")
    for bad_q in (q + 1e-6, q - 1e-6, math.nan, -1e-6):
        if not checks.check_cut_search(rho, cells, chi, bad_q):
            fail(f"cut search with q={bad_q!r} against its chi was accepted")

    row = workloads.entropy_sweep(1, tiny=True).run_unit(0)[1]
    if checks.check_entropy_row(row):
        fail("unperturbed entropy row rejected")
    for m, delta in (("I4", 1e-9), ("I3", -1e-9), ("I3_aEaEb", 1e-9), ("F_W", 1e-9), ("F_GHZ", 1e-9)):
        if not checks.check_entropy_row(dict(row, **{m: row[m] + delta})):
            fail(f"entropy row with {m} off by {delta} was accepted")

    row = workloads.product_search_sweep(1, tiny=True).run_unit(0)[1]
    if checks.check_search_row(row):
        fail("unperturbed search row rejected")
    for bad in ({"Q4": row["Q4"] + 5.0}, {"Q3": math.nan}, {"Q4": -1e-6},
                {"C3": -1e-6}, {"_flags": ["Q4: boom"]}):
        if not checks.check_search_row(dict(row, **bad)):
            fail(f"search row with {bad} was accepted")

    first = [(chi, None, q)]
    if not workloads.repeat_mismatches(cut, first, [(chi, None, q + 1e-9)])[0]:
        fail("a repeat that changed q was accepted")

    original = gencorr.partial_trace
    tracer = spans.Tracer()
    tracer.install()
    traced = gencorr.partial_trace is not original and gencorr.entropy.partial_trace is not original
    tracer.uninstall()
    if not traced or gencorr.entropy.partial_trace is not original:
        fail("tracer did not wrap and restore partial_trace at every binding")
    print("ok  checkers reject perturbed results; tracer restores originals")


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"benchmark ran without the gencorr sources: {proc.stdout[-500:]}")
    print(f"ok  refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checkers()
    check_refuses_without_sources(spec)
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
