import dataclasses
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

import gencorr.experiments as experiments
import gencorr.linalg as linalg
from gencorr import (
    SUPPORTED_MEASURES,
    SWAP_SYMMETRY,
    DensityMatrix,
    SearchConfig,
    SweepSpec,
    detect_sudden_change,
    evolve_global,
    fidelity,
    genuine_classical_Ck,
    genuine_classical_Cn,
    genuine_total_In,
    multipartite_quantum_Q,
    partial_trace,
    run_sweep,
    w4,
)
from gencorr.channels import upsilon_pd
from gencorr.experiments import (
    appendix_deviations,
    evaluate_measures,
    read_csv,
    verify_anchors,
    write_csv,
    write_manifest,
)

FAST = SearchConfig(starts=4, max_evals=400, rng_seed=0)
I_COLUMNS = ("I4", "I3", "I3_abEa", "I3_aEaEb")
GOLDEN = pathlib.Path(__file__).resolve().parent / "data"


def synthetic_rows(fn, n=101, channel="xx", c=0.0, measure="y"):
    ps = np.linspace(0.0, 1.0, n)
    return [{"channel": channel, "c": c, "p": float(p), measure: float(fn(p))} for p in ps]


# --- sweep spec validation ---

def test_sweep_spec_rejects_unknown_measure():
    with pytest.raises(ValueError):
        SweepSpec(channel="ad", measures=("I4", "bogus"))
    for bad in (dict(measures=()), dict(c_values=()), dict(workers=0), dict(workers=-3),
                dict(p_count=2.5), dict(workers=1.5)):
        with pytest.raises(ValueError):
            SweepSpec(channel="ad", **bad)


def test_sweep_spec_rejects_bad_channel():
    with pytest.raises(ValueError):
        SweepSpec(channel="xy")


@pytest.mark.parametrize("c", [1.5, -0.1, math.nan])
def test_sweep_spec_rejects_c_outside_unit_interval(c):
    with pytest.raises(ValueError):
        SweepSpec("ad", (0.5, c))


def test_grid_defaults_depend_on_measures():
    assert SweepSpec(channel="ad", measures=("I4",)).resolved_p_count() == 101
    assert SweepSpec(channel="ad", measures=("I4", "Q4")).resolved_p_count() == 41
    assert SweepSpec(channel="ad", measures=("C4", "C3")).resolved_p_count() == 41
    assert SweepSpec(channel="ad", measures=("Q4",), p_count=7).resolved_p_count() == 7


# --- sweeps ---

def test_sweep_rows_are_deterministic(tmp_path):
    spec = SweepSpec(
        channel="ad", c_values=(1.0,), p_count=11,
        measures=("I4", "I3", "F_W"), search=FAST,
    )
    first, second = run_sweep(spec), run_sweep(spec)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(first, spec.measures, f1)
    write_csv(second, spec.measures, f2)
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_endpoint_values():
    spec = SweepSpec(channel="ad", c_values=(1.0,), p_count=11, measures=("I4",))
    rows = run_sweep(spec)
    first, last = rows[0], rows[-1]
    assert first["p"] == 0.0 and abs(first["I4"]) <= 1e-9
    assert last["p"] == 1.0 and abs(last["I4"]) <= 1e-9

    spec = SweepSpec(channel="pd", c_values=(1.0,), p_count=11, measures=("I4",))
    rows = run_sweep(spec)
    assert rows[-1]["I4"] == pytest.approx(2.0, abs=1e-9)


def test_sweep_values_are_never_meaningfully_negative():
    spec = SweepSpec(
        channel="ad", c_values=(0.3, 0.9), p_count=9,
        measures=("I4", "I3", "Q4", "C4", "F_W"), search=FAST,
    )
    for row in run_sweep(spec):
        for m in spec.measures:
            assert row[m] >= -1e-9


def test_phase_total_correlation_climbs_to_its_asymptotic_maximum():
    spec = SweepSpec(channel="pd", c_values=(1.0,), p_count=21, measures=("I4",))
    values = [row["I4"] for row in run_sweep(spec)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    assert values[-1] == max(values)


def test_symmetry_pruning_changes_nothing_for_these_states():
    """Sweeps evaluate one cut or triple per swap class; every class member agrees.

    C4 and C3 apply rho's swap symmetry to the cuts of chi, so this also
    checks that the searched chi keeps the symmetry.
    """
    cases = [(evolve_global(0.6, p, "pd"), ("I4", "I3")) for p in np.linspace(0.0, 1.0, 7)]
    cases += [(evolve_global(c, p, kind), ("Q3", "C4", "C3"))
              for kind, c, p in (("ad", 0.7, 0.4), ("pd", 1.0, 0.5), ("ad", 0.4, 0.8))]
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    for rho, measures in cases:
        pruned, _ = evaluate_measures(rho, measures, cfg, SWAP_SYMMETRY)
        full, _ = evaluate_measures(rho, measures, cfg, ())
        for m in measures:
            assert pruned[m] == pytest.approx(full[m], abs=1e-12)


def test_parallel_workers_preserve_row_order():
    kwargs = dict(channel="ad", c_values=(0.4, 1.0), p_count=7, measures=("I4",))
    serial = run_sweep(SweepSpec(workers=1, **kwargs))
    parallel = run_sweep(SweepSpec(workers=2, **kwargs))
    assert [(r["c"], r["p"], r["I4"]) for r in serial] == [
        (r["c"], r["p"], r["I4"]) for r in parallel
    ]


def test_optimizer_failure_is_flagged_not_fatal(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("search exploded")

    monkeypatch.setattr(experiments, "multipartite_quantum_Q", boom)
    spec = SweepSpec(channel="ad", c_values=(0.5,), p_count=3, measures=("I4", "Q4"))
    rows = run_sweep(spec)
    assert all(math.isnan(r["Q4"]) for r in rows)
    assert all(not math.isnan(r["I4"]) for r in rows)
    assert all("Q4: search exploded" in r["_flags"][0] for r in rows)

    out = tmp_path / "flagged.csv"
    write_csv(rows, spec.measures, out)
    write_manifest(spec, rows, tmp_path / "flagged.manifest.json")
    manifest = json.loads((tmp_path / "flagged.manifest.json").read_text())
    assert len(manifest["failures"]) == 3
    assert manifest["search"]["rng_seed"] == 0
    assert "clip" in manifest["tolerances"]


@pytest.mark.parametrize("symmetries", [SWAP_SYMMETRY, ()])
def test_every_column_is_its_library_quantifier(symmetries, search_cells):
    """Bit for bit; Q4, C4 and C3 share one four-qubit search, Q3 searches each triple."""
    rho = evolve_global(0.7, 0.4, "ad")
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    values, flags = evaluate_measures(rho, SUPPORTED_MEASURES, cfg, symmetries)
    assert flags == []
    triples = [(0, 1, 2), (0, 1, 3)] if symmetries else list(itertools.combinations(range(4), 3))
    assert sorted(search_cells) == [3] * len(triples) + [4]
    assert values == {
        "I4": genuine_total_In(rho, symmetries).value_bits,
        "I3": max(genuine_total_In(partial_trace(rho, t)).value_bits for t in triples),
        "I3_abEa": genuine_total_In(partial_trace(rho, (0, 1, 2))).value_bits,
        "I3_aEaEb": genuine_total_In(partial_trace(rho, (0, 1, 3))).value_bits,
        "Q4": multipartite_quantum_Q(rho, cfg).value_bits,
        "Q3": max(multipartite_quantum_Q(partial_trace(rho, t), cfg).value_bits
                  for t in triples),
        "C4": genuine_classical_Cn(rho, cfg, symmetries).value_bits,
        "C3": genuine_classical_Ck(rho, 3, cfg, symmetries).value_bits,
        "F_W": fidelity(w4(), rho),
        "F_GHZ": fidelity(upsilon_pd(1.0), rho),
    }


@pytest.mark.parametrize("kind,c,p", [("ad", 0.7, 0.4), ("pd", 0.6, 0.38), ("pd", 1.0, 1.0)])
def test_memoized_columns_equal_fresh_evaluations(kind, c, p):
    """Each I column of one state, where the columns share reductions, equals
    that column alone on a copy of the state with an empty memo, exactly."""
    rho = evolve_global(c, p, kind)
    values, flags = evaluate_measures(rho, I_COLUMNS, symmetries=SWAP_SYMMETRY)
    assert flags == []
    for m in I_COLUMNS:
        fresh = DensityMatrix(rho.dims, rho.mat)
        assert evaluate_measures(fresh, (m,), symmetries=SWAP_SYMMETRY)[0][m] == values[m]


def test_triple_columns_reuse_the_reductions_of_i3(monkeypatch):
    computed = []
    ptrace = linalg._ptrace_arr

    def counting(mat, dims, keep):
        computed.append(keep)
        return ptrace(mat, dims, keep)

    monkeypatch.setattr(linalg, "_ptrace_arr", counting)
    rho = evolve_global(0.7, 0.4, "ad")
    evaluate_measures(rho, ("I3",), symmetries=SWAP_SYMMETRY)
    # the two triples of rho, then both cells of the three cuts of each
    assert sorted(computed) == sorted([(0, 1, 2), (0, 1, 3)] + [(0,), (1,), (2,)] * 2
                                      + [(0, 1), (0, 2), (1, 2)] * 2)
    before = list(computed)
    evaluate_measures(rho, ("I3_abEa", "I3_aEaEb"), symmetries=SWAP_SYMMETRY)
    assert computed == before


@pytest.mark.parametrize("kind", ["ad", "pd"])
@pytest.mark.parametrize("series,measures", [("total", I_COLUMNS), ("fidelity", ("F_W", "F_GHZ"))])
def test_entropy_columns_reproduce_their_golden_csvs(kind, series, measures, tmp_path):
    """tests/data holds `scripts/run_figure_sweeps.py --skip-search --c 0.4,1.0
    --grid-i 11` as written before partial traces and entropies were memoized
    and derived states skipped validation; the I and F columns stay bit for bit."""
    spec = SweepSpec(kind, (0.4, 1.0), 11, measures)
    path = tmp_path / "out.csv"
    write_csv(run_sweep(spec), measures, path)
    assert path.read_bytes() == (GOLDEN / f"{kind}_{series}.csv").read_bytes()


def test_manifest_lists_only_the_flags_of_its_measures(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("triple search exploded")

    monkeypatch.setattr(experiments, "max_over_subsets", boom)
    spec = SweepSpec("ad", (0.5,), 2, ("Q4", "Q3", "C4", "C3"),
                     search=SearchConfig(starts=1, max_evals=20))
    rows = run_sweep(spec)
    path = tmp_path / "m.manifest.json"
    for measures, flagged in ((("Q4", "Q3"), 2), (("C4", "C3"), 0)):
        write_manifest(dataclasses.replace(spec, measures=measures), rows, path)
        assert len(json.loads(path.read_text())["failures"]) == flagged


def test_csv_roundtrip(tmp_path):
    spec = SweepSpec(channel="pd", c_values=(0.3,), p_count=5, measures=("I4", "F_GHZ"))
    rows = run_sweep(spec)
    path = tmp_path / "t.csv"
    write_csv(rows, spec.measures, path)
    back = read_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a["channel"] == b["channel"]
        assert a["I4"] == b["I4"]  # repr round-trip is exact
        assert a["F_GHZ"] == b["F_GHZ"]


# --- sudden-change detection ---

def test_detects_synthetic_kink():
    rows = synthetic_rows(lambda p: -abs(p - 0.5))
    hits = detect_sudden_change(rows, "y")
    assert len(hits) == 1
    assert hits[0].p_star == pytest.approx(0.5, abs=1e-12)
    assert hits[0].left_slope == pytest.approx(1.0, abs=1e-9)
    assert hits[0].right_slope == pytest.approx(-1.0, abs=1e-9)


def test_smooth_series_produce_no_detections():
    assert detect_sudden_change(synthetic_rows(lambda p: p * p), "y") == []
    assert detect_sudden_change(synthetic_rows(lambda p: 0.0), "y") == []
    assert detect_sudden_change(synthetic_rows(lambda p: 3 * p - 1), "y") == []


def test_steep_but_smooth_series_produce_no_detections():
    # endpoint-divergent slope, like the binary-entropy series the sweeps emit
    rows = synthetic_rows(lambda p: math.sqrt(p))
    assert detect_sudden_change(rows, "y") == []


def test_noisy_smooth_series_produce_no_detections():
    rng = np.random.default_rng(3)
    ps = np.linspace(0, 1, 101)
    rows = [
        {"channel": "xx", "c": 0.0, "p": float(p), "y": float(np.sin(2 * p) + 1e-3 * rng.normal())}
        for p in ps
    ]
    assert detect_sudden_change(rows, "y") == []


def test_detection_requirements():
    with pytest.raises(ValueError):
        detect_sudden_change([], "y")
    rows = synthetic_rows(lambda p: p, n=7)
    with pytest.raises(ValueError):
        detect_sudden_change(rows, "y")
    rows = synthetic_rows(lambda p: p)
    with pytest.raises(ValueError):
        detect_sudden_change(rows, "missing")
    bad = synthetic_rows(lambda p: p)
    bad[3]["p"] = 0.999 * bad[3]["p"]
    with pytest.raises(ValueError):
        detect_sudden_change(bad, "y")


def test_groups_are_detected_independently():
    rows = synthetic_rows(lambda p: -abs(p - 0.5), c=1.0)
    rows += synthetic_rows(lambda p: p * p, c=0.3)
    hits = detect_sudden_change(rows, "y")
    assert len(hits) == 1
    assert hits[0].c == 1.0


def test_amplitude_sweep_kink_sits_at_the_w_point():
    spec = SweepSpec(channel="ad", c_values=(1.0,), p_count=101, measures=("I4",))
    hits = detect_sudden_change(run_sweep(spec), "I4")
    assert [h.p_star for h in hits] == [pytest.approx(0.5, abs=1e-12)]
    assert hits[0].left_slope > 0 > hits[0].right_slope


def test_phase_sweeps_kink_at_intermediate_purity():
    spec = SweepSpec(channel="pd", c_values=(0.6,), p_count=101, measures=("I4", "I3"))
    rows = run_sweep(spec)
    assert len(detect_sudden_change(rows, "I4")) >= 1
    assert len(detect_sudden_change(rows, "I3")) >= 1


# --- reference values ---

def test_appendix_deviations_are_tiny():
    devs = appendix_deviations(3)
    assert len(devs) == 18
    assert max(d for *_req, d in devs) <= 1e-10


def test_verify_anchors_report_structure():
    report = verify_anchors(FAST)
    names = {entry["name"] for entry in report}
    assert {"I4_GHZ4", "I3_GHZ4", "I4_W4", "I3_W4",
            "fidelity_W_ad_closed_form", "golden_vs_dilation_pd"} <= names
    for entry in report:
        assert set(entry) == {"name", "expected", "actual", "deviation", "tol", "passed"}


def test_verify_anchors_known_outcomes():
    """Every reference entry passes.  The W-state entries are the closed forms
    of the min-over-cuts definition: I4 = 2*H2(1/4) on a cut that isolates one
    qubit, and I3 = 1 on every cut of each 3-qubit reduction."""
    report = {e["name"]: e for e in verify_anchors(FAST)}
    assert report["I4_GHZ4"]["passed"]
    assert report["I3_GHZ4"]["passed"]
    assert report["fidelity_W_ad_closed_form"]["passed"]
    assert report["fidelity_GHZ_pd_closed_form"]["passed"]
    assert report["golden_vs_dilation_ad"]["passed"]
    assert report["W_limit_state_ad_p_half"]["passed"]
    assert report["ghz_marginal_quantumness_zero"]["passed"]
    assert report["w_marginal_quantumness_positive"]["passed"]

    assert report["I4_W4"]["passed"]
    assert report["I4_W4"]["actual"] == pytest.approx(1.6225562489182657, abs=1e-9)
    assert report["I3_W4"]["passed"]
    assert report["I3_W4"]["actual"] == pytest.approx(1.0, abs=1e-9)
