import dataclasses
import gc as garbage
import itertools
import json
import math
import pathlib
import types
import weakref

import numpy as np
import pytest

import gencorr.entropy as entropy
import gencorr.experiments as experiments
import gencorr.genuine_correlations as gc
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
    ghz,
    multipartite_quantum_Q,
    partial_trace,
    run_sweep,
    w4,
)
from gencorr.channels import upsilon_pd
from gencorr.experiments import (
    evaluate_measures,
    read_csv,
    verify_anchors,
    write_csv,
    write_manifest,
)
from pin_platform import written_on

FAST = SearchConfig(starts=4, max_evals=400, rng_seed=0)
I_COLUMNS = ("I4", "I3", "I3_abEa", "I3_aEaEb")
GOLDEN = pathlib.Path(__file__).resolve().parent / "data"
GOLDEN_PLATFORM = json.loads((GOLDEN / "golden_platform.json").read_text())


def synthetic_rows(fn, n=101, channel="xx", c=0.0, measure="y"):
    ps = np.linspace(0.0, 1.0, n)
    return [{"channel": channel, "c": c, "p": float(p), measure: float(fn(p))} for p in ps]


# --- sweep spec validation ---

def test_sweep_spec_rejects_unknown_measure():
    with pytest.raises(ValueError):
        SweepSpec(channel="ad", measures=("I4", "bogus"))
    for bad in (dict(measures=()), dict(c_values=()), dict(p_count=2.5),
                dict(measures=("I4", "C4", "I4"))):
        with pytest.raises(ValueError):
            SweepSpec(channel="ad", **bad)
    with pytest.raises(ValueError, match=r"measures \['I4'\] are repeated"):
        SweepSpec(channel="ad", measures=("I4", "I4"))
    # before, a repeated c ran its series again, and the kink detector then
    # read the doubled rows as a non-uniform p grid
    with pytest.raises(ValueError, match=r"c values \[0.2, 1.0\] are repeated"):
        SweepSpec(channel="ad", c_values=(1, 0.2, 0.5, 1.0, 0.2))


def test_sweep_spec_rejects_bad_channel():
    with pytest.raises(ValueError):
        SweepSpec(channel="xy")


@pytest.mark.parametrize("bad", [dict(p_count=True)], ids=["p_count"])
def test_sweep_spec_rejects_bool_settings(bad):
    with pytest.raises(ValueError, match="must be an integer"):
        SweepSpec("ad", (0.5,), **bad)


@pytest.mark.parametrize(
    "c_values",
    [0.5, None, (0.5, None), "1", b"1", ["0.5"], (0.25, b"0.5"), [True, 0.5], (0.25, np.True_)],
    ids=["scalar", "none", "none-item", "str", "bytes", "str-item", "bytes-item", "bool-item",
         "numpy-bool-item"],
)
def test_sweep_spec_rejects_c_values_that_are_not_a_sequence_of_numbers(c_values):
    # before, a scalar raised a TypeError from tuple(0.5), "1" was read as
    # its characters, (1.0,), ["0.5"] as (0.5,), and [True, 0.5] as (1.0, 0.5)
    with pytest.raises(ValueError, match="c_values must be a sequence of numbers"):
        SweepSpec("ad", c_values)


def test_sweep_spec_takes_python_and_numpy_numbers():
    spec = SweepSpec("ad", [0, np.int64(1), np.float32(0.5), 0.25])
    assert spec.c_values == (0.0, 1.0, 0.5, 0.25)
    assert all(type(c) is float for c in spec.c_values)
    assert SweepSpec("pd", np.array([0.2, 0.4])).c_values == (0.2, 0.4)


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


SEARCHED_CASES = (("ad", 0.7, 0.4), ("pd", 1.0, 0.5), ("ad", 0.4, 0.8))


def _assert_pruning_changes_nothing(cases, cfg):
    for rho, measures in cases:
        assert rho.symmetries == SWAP_SYMMETRY
        pruned, _ = evaluate_measures(rho, measures, cfg)
        full, _ = evaluate_measures(DensityMatrix(rho.dims, rho.mat), measures, cfg)
        for m in measures:
            assert pruned[m] == pytest.approx(full[m], abs=1e-12)


def test_symmetry_pruning_changes_nothing_for_these_states():
    """An evolved state's quantifiers evaluate one cut or triple per swap
    class; an untagged copy evaluates them all, and every class member agrees.

    C4 and C3 apply rho's swap symmetry to the cuts of chi, so this also
    checks that the searched chi keeps the symmetry.
    """
    cases = [(evolve_global(0.6, p, "pd"), ("I4", "I3")) for p in np.linspace(0.0, 1.0, 7)]
    cases += [(evolve_global(c, p, kind), ("Q3", "C4", "C3")) for kind, c, p in SEARCHED_CASES]
    _assert_pruning_changes_nothing(cases, SearchConfig(starts=1, max_evals=40, rng_seed=0))


def test_searched_chi_keeps_the_swap_symmetry_at_the_default_config():
    """As above, at SearchConfig(): with 14 starts, a winning random start
    could break the swap symmetry of chi that C4 and C3 assume."""
    cases = [(evolve_global(c, p, kind), ("Q3", "C4", "C3")) for kind, c, p in SEARCHED_CASES[:2]]
    _assert_pruning_changes_nothing(cases, SearchConfig())


def test_a_multi_c_sweep_is_its_one_c_sweeps_in_order():
    kwargs = dict(channel="ad", p_count=7, measures=("I4",))
    rows = run_sweep(SweepSpec(c_values=(1.0, 0.4), **kwargs))
    parts = [run_sweep(SweepSpec(c_values=(c,), **kwargs)) for c in (1.0, 0.4)]
    grid = [float(p) for p in np.linspace(0.0, 1.0, 7)]
    assert [(r["c"], r["p"]) for r in rows] == [(c, p) for c in (1.0, 0.4) for p in grid]
    assert rows == parts[0] + parts[1]


def test_a_multi_c_searched_sweep_is_its_one_c_sweeps_in_order():
    """The searches memoized for one c leave the rows of the next unchanged."""
    kwargs = dict(channel="pd", p_count=3, measures=("Q4", "C4"),
                  search=SearchConfig(starts=1, max_evals=40))
    rows = run_sweep(SweepSpec(c_values=(0.6, 1.0), **kwargs))
    parts = [run_sweep(SweepSpec(c_values=(c,), **kwargs)) for c in (0.6, 1.0)]
    assert len(rows) == 6
    assert rows == parts[0] + parts[1]


def test_sweep_spec_has_no_workers_setting():
    """A sweep runs in one process; there is no pool to size."""
    assert "workers" not in {f.name for f in dataclasses.fields(SweepSpec)}
    with pytest.raises(TypeError):
        SweepSpec("ad", workers=2)


def test_optimizer_failure_is_flagged_not_fatal(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("search exploded")

    monkeypatch.setattr(gc, "closest_classical_states", boom)
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


def test_a_raising_search_flags_only_its_row(monkeypatch):
    # the batched call raises, so each search runs again alone, and only the
    # search on the p = 0.5 state raises then
    bad = evolve_global(0.5, 0.5, "ad").mat
    search = gc.closest_classical_states

    def picky(rhos, partitions, cfg):
        rhos = list(rhos)
        if any(np.array_equal(rho.mat, bad) for rho in rhos):
            raise RuntimeError("search exploded")
        return search(rhos, partitions, cfg)

    spec = SweepSpec(channel="ad", c_values=(0.5,), p_count=3, measures=("I4", "Q4", "C4"),
                     search=SearchConfig(starts=1, max_evals=40))
    clean = run_sweep(spec)
    monkeypatch.setattr(gc, "closest_classical_states", picky)
    rows = run_sweep(spec)
    assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[1]["_flags"] == ["Q4: search exploded", "C4: search exploded"]
    assert math.isnan(rows[1]["Q4"]) and math.isnan(rows[1]["C4"])
    assert rows[1]["I4"] == clean[1]["I4"]
    assert [rows[0], rows[2]] == [clean[0], clean[2]]


def test_a_series_runs_one_batched_search(search_batches):
    spec = SweepSpec(channel="pd", c_values=(0.6,), p_count=3, measures=("Q4", "Q3", "C4", "C3"),
                     search=SearchConfig(starts=1, max_evals=40))
    rows = run_sweep(spec)
    assert search_batches == [3 + 3 * 2]  # the states and their two triple classes
    assert all("_flags" not in row for row in rows)


def test_a_series_builds_its_fixed_states_once(monkeypatch):
    """The Werner state is built once per c and the fidelity targets at most
    once per series, while fidelity itself is looked up on every row."""
    import gencorr.channels as channels
    import gencorr.states as states

    calls = {"werner_state": [], "w4": 0, "upsilon_pd": 0}
    werner = channels.werner_state

    def counting_werner(c):
        calls["werner_state"].append(c)
        return werner(c)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(channels, "werner_state", counting_werner)
    for module in (experiments, states, channels):
        for name in ("w4", "upsilon_pd"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    targets = []

    def recording_fidelity(psi, rho):
        targets.append(psi)
        return fidelity(psi, rho)

    monkeypatch.setattr(experiments, "fidelity", recording_fidelity)
    channels._initial_state.cache_clear()
    spec = SweepSpec("ad", (0.4, 1.0), measures=("I4", "F_W", "F_GHZ"))
    rows = run_sweep(spec)
    assert len(rows) == 2 * 101 and all("_flags" not in row for row in rows)
    assert calls["werner_state"] == [0.4, 1.0]
    assert calls["w4"] <= 1 and calls["upsilon_pd"] <= 1
    assert len(targets) == 2 * len(rows)
    assert len({id(psi) for psi in targets}) == 2
    assert [row["F_W"] for row in rows] == [fidelity(w4(), evolve_global(row["c"], row["p"], "ad"))
                                            for row in rows]
    assert rows[-1]["F_GHZ"] == fidelity(upsilon_pd(1.0), evolve_global(1.0, 1.0, "ad"))


@pytest.mark.parametrize("symmetries", [SWAP_SYMMETRY, ()])
def test_every_column_is_its_library_quantifier(symmetries, search_cells):
    """Bit for bit, against a copy of the state with an empty memo and the
    same symmetries (the evolved state's, or none); Q4, C4 and C3 share one
    four-qubit search, Q3 searches each triple (one per swap class)."""
    def state():
        rho = evolve_global(0.7, 0.4, "ad")
        return rho if symmetries else DensityMatrix(rho.dims, rho.mat)

    rho = state()
    assert rho.symmetries == symmetries
    cfg = SearchConfig(starts=1, max_evals=40, rng_seed=0)
    values, flags = evaluate_measures(rho, SUPPORTED_MEASURES, cfg)
    assert flags == []
    triples = [(0, 1, 2), (0, 1, 3)] if symmetries else list(itertools.combinations(range(4), 3))
    assert sorted(search_cells) == [3] * len(triples) + [4]
    rho = state()
    assert values == {
        "I4": genuine_total_In(rho).value_bits,
        "I3": max(genuine_total_In(partial_trace(rho, t)).value_bits for t in triples),
        "I3_abEa": genuine_total_In(partial_trace(rho, (0, 1, 2))).value_bits,
        "I3_aEaEb": genuine_total_In(partial_trace(rho, (0, 1, 3))).value_bits,
        "Q4": multipartite_quantum_Q(rho, cfg).value_bits,
        "Q3": max(multipartite_quantum_Q(partial_trace(rho, t), cfg).value_bits
                  for t in triples),
        "C4": genuine_classical_Cn(rho, cfg).value_bits,
        "C3": genuine_classical_Ck(rho, 3, cfg).value_bits,
        "F_W": fidelity(w4(), rho),
        "F_GHZ": fidelity(upsilon_pd(1.0), rho),
    }


@pytest.mark.parametrize("kind,c,p", [("ad", 0.7, 0.4), ("pd", 0.6, 0.38), ("pd", 1.0, 1.0)])
def test_memoized_columns_equal_fresh_evaluations(kind, c, p):
    """Each I column of one state, where the columns share reductions, equals
    that column alone on a copy of the state with an empty memo, exactly."""
    rho = evolve_global(c, p, kind)
    values, flags = evaluate_measures(rho, I_COLUMNS)
    assert flags == []
    for m in I_COLUMNS:
        fresh = evolve_global(c, p, kind)
        assert evaluate_measures(fresh, (m,))[0][m] == values[m]


def test_triple_columns_reuse_the_reductions_of_i3(monkeypatch):
    computed = []
    ptrace = linalg._ptrace_arr

    def counting(mat, plan):
        computed.append(plan.keep)
        return ptrace(mat, plan)

    monkeypatch.setattr(linalg, "_ptrace_arr", counting)
    rho = evolve_global(0.7, 0.4, "ad")
    evaluate_measures(rho, ("I3",))
    # the two triples of rho, then both cells of the three cuts of each
    assert sorted(computed) == sorted([(0, 1, 2), (0, 1, 3)] + [(0,), (1,), (2,)] * 2
                                      + [(0, 1), (0, 2), (1, 2)] * 2)
    before = list(computed)
    evaluate_measures(rho, ("I3_abEa", "I3_aEaEb"))
    assert computed == before


def test_an_entropy_row_does_each_piece_of_work_once(monkeypatch):
    """One I/F row of an evolved state: 23 reductions, its 24 spectra in one
    eigenvalue call per matrix side (16, 8, 4 and 2), one non-finite check,
    of the root (its reductions inherit it), and 3 states (the root and its
    two triples; the 21 other cut marginals are plain arrays), and I3 is the
    float of one of the triple columns, not a recomputation."""
    counts = {"derived": 0, "ptrace": 0, "eig": 0, "finite": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(DensityMatrix, "_derived",
                        staticmethod(counting("derived", DensityMatrix._derived)))
    rho = evolve_global(0.6, 0.3, "ad")  # built first: its set-up checks its inputs
    monkeypatch.setattr(linalg, "_ptrace_arr", counting("ptrace", linalg._ptrace_arr))
    monkeypatch.setattr(entropy, "_eigvalsh", counting("eig", entropy._eigvalsh))
    monkeypatch.setattr(linalg, "_all_finite", counting("finite", linalg._all_finite))
    values, flags = evaluate_measures(rho, ("I4", "I3", "I3_abEa", "I3_aEaEb", "F_W", "F_GHZ"))
    assert flags == []
    assert counts == {"derived": 3, "ptrace": 23, "eig": 4, "finite": 1}
    assert values["I3"] is values["I3_abEa"] or values["I3"] is values["I3_aEaEb"]


def test_a_search_row_takes_its_spectra_in_one_call_per_matrix_side(monkeypatch):
    """One Q/C row of an evolved state: its three searched states (the root
    and its two triples) take their spectra in the search batch's one
    _entropies call, one eigenvalue call per matrix side (16 and 8), and
    every later entropy of them is memoized."""
    calls = []

    def counting(stack, **kwargs):
        calls.append(stack.shape)
        return eigvalsh(stack, **kwargs)

    eigvalsh = entropy._eigvalsh
    monkeypatch.setattr(entropy, "_eigvalsh", counting)
    rho = evolve_global(0.6, 0.3, "ad")
    cfg = SearchConfig(starts=1, max_evals=40)
    _, flags = evaluate_measures(rho, ("Q4", "Q3", "C4", "C3"), cfg)
    assert flags == []
    assert calls == [(1, 16, 16), (2, 8, 8)]


@pytest.mark.parametrize("measures,p_count", [
    (I_COLUMNS + ("F_W", "F_GHZ"), 5), (("Q4", "Q3", "C4", "C3"), 3),
], ids=["entropy", "search"])
def test_a_sweep_keeps_no_state_once_it_returns(monkeypatch, measures, p_count):
    """A sweep's retained memory is its rows: every evolved state, with the
    reductions, spectra and searches in its memo, dies with the call."""
    refs = []

    def evolving(*args):
        rho = evolve_global(*args)
        refs.append(weakref.ref(rho))
        return rho

    monkeypatch.setattr(experiments, "evolve_global", evolving)
    spec = SweepSpec("ad", (0.6,), p_count, measures, SearchConfig(starts=1, max_evals=50))
    rows = run_sweep(spec)
    garbage.collect()
    assert len(refs) == p_count and all(ref() is None for ref in refs)
    assert all(type(row[m]) is float for row in rows for m in measures)


def test_a_row_with_a_non_finite_entry_keeps_its_flags():
    """GHZ4 with NaN coherences at [0, 15] and [15, 0], which every proper
    reduction traces out: the row's batch of spectra raises, and each column
    is NaN with the flag it had when every column took its own spectra."""
    mat = np.array(ghz(4).to_density().mat)
    mat[0, 15] = mat[15, 0] = np.nan
    rho = DensityMatrix._derived((2,) * 4, mat)
    values, flags = evaluate_measures(rho, I_COLUMNS + ("F_W", "F_GHZ"))
    assert list(values) == list(I_COLUMNS + ("F_W", "F_GHZ"))
    assert all(math.isnan(v) for v in values.values())
    assert flags == [f"{m}: a state with a non-finite entry" for m in I_COLUMNS] + [
        f"{m}: overlap nan is negative or not a number" for m in ("F_W", "F_GHZ")]


@pytest.mark.parametrize("kind", ["ad", "pd"])
@pytest.mark.parametrize("series,measures,grid", [
    ("total", I_COLUMNS, 11), ("fidelity", ("F_W", "F_GHZ"), 11),
    ("quantum", ("Q4", "Q3"), 5), ("classical", ("C4", "C3"), 5),
], ids=["total", "fidelity", "quantum", "classical"])
def test_sweep_columns_reproduce_their_golden_csvs(kind, series, measures, grid, tmp_path):
    """tests/data holds `scripts/run_figure_sweeps.py --c 0.4,1.0 --grid-i 11
    --grid-q 5` at the default search config.  The I and F files were written
    before partial traces and entropies were memoized and derived states
    skipped validation, the Q files before every start that gets budget ran
    to its own stop; every column stays bit for bit.  The C files were
    re-written when C_n and C_k came to be read off the search's outcome
    distribution instead of the dense chi: 13 of their 40 cells moved, by at
    most 6.7e-15, as Shannon and eigvalsh entropies round differently.  Each
    CSV's write_manifest sidecar is pinned beside it.  The files are bytes
    of the platform in golden_platform.json (see pin_platform)."""
    spec = SweepSpec(kind, (0.4, 1.0), grid, measures)
    rows = run_sweep(spec)
    path = tmp_path / "out.csv"
    write_csv(rows, measures, path)
    golden = GOLDEN / f"{kind}_{series}.csv"
    message = written_on(GOLDEN_PLATFORM)
    tol = GOLDEN_VALUE_TOL[series]
    moved = _moved_cells(read_csv(path), read_csv(golden), measures, tol)
    assert not moved, f"values moved beyond {tol:.0e} (c, p, measure, value, golden): {moved}; {message}"
    same = f"every value lies within {tol:.0e} of the golden one: only the bytes differ; {message}"
    assert path.read_bytes() == golden.read_bytes(), same
    manifest = tmp_path / "out.manifest.json"
    write_manifest(spec, rows, manifest)
    golden_manifest = GOLDEN / f"{kind}_{series}.manifest.json"
    assert manifest.read_bytes() == golden_manifest.read_bytes(), (
        f"the manifest differs; every CSV value lies within {tol:.0e} of the golden one; {message}")


# The value tolerance of each golden series, checked before its bytes so
# that a failure tells a moved value from a platform's rounding.  Each is
# over 10x the largest move of its columns in the default figure pass under
# OPENBLAS_CORETYPE=Haswell (AVX2 kernels), recorded in ROADMAP item 13: I
# 6.7e-16, Q 9.8e-15, C3 3.5e-13.  The F files kept their bytes there and
# take the I tolerance.
GOLDEN_VALUE_TOL = {"total": 1e-14, "fidelity": 1e-14, "quantum": 1e-13, "classical": 1e-11}


def _moved_cells(rows, golden, measures, tol) -> list[tuple]:
    """The (c, p, measure, value, golden value) of each cell that differs
    from the golden one by more than tol (NaN matches only NaN)."""
    assert [(r["channel"], r["c"], r["p"]) for r in rows] == [
        (g["channel"], g["c"], g["p"]) for g in golden]
    return [(r["c"], r["p"], m, r[m], g[m]) for r, g in zip(rows, golden) for m in measures
            if not (abs(r[m] - g[m]) <= tol or (math.isnan(r[m]) and math.isnan(g[m])))]


@pytest.mark.parametrize("kind", ["ad", "pd"])
def test_golden_q3_never_exceeds_q4(kind):
    """Q3 <= Q4 holds exactly: relative entropy cannot grow under partial
    trace, and a reduction of a fully classical state is classical, so each
    triple's Q is at most the true Q4, and a searched Q4 lies at or above
    it.  So a row above the 1e-12 tie means that a triple's search missed
    its minimum."""
    rows = read_csv(GOLDEN / f"{kind}_quantum.csv")
    assert len(rows) == 10
    excess = [(row["c"], row["p"], row["Q3"] - row["Q4"]) for row in rows
              if not row["Q3"] - row["Q4"] <= 1e-12]
    assert not excess, excess


def _mirror_deviation(rows, measures) -> float:
    """The largest |m(p) - m'(1 - p)| over the rows of each c, where m' is m,
    except that the two one-sided triple columns are each other's mirror."""
    mirror = {"I3_abEa": "I3_aEaEb", "I3_aEaEb": "I3_abEa"}
    deviations = []
    for c in {row["c"] for row in rows}:
        series = sorted((row for row in rows if row["c"] == c), key=lambda row: row["p"])
        for row, other in zip(series, reversed(series)):
            assert abs(row["p"] + other["p"] - 1.0) <= 1e-15
            deviations += [abs(row[m] - other[mirror.get(m, m)]) for m in measures]
    return float(np.max(deviations))  # NaN if any value is NaN


@pytest.mark.parametrize("series", ["total", "quantum", "classical", "fidelity"])
def test_ad_golden_columns_mirror_about_p_one_half(series):
    """Under ad, rho(c, 1 - p) is rho(c, p) with a <-> E_a and b <-> E_b
    swapped: the environments start in the vacuum, where the dilation at
    1 - p is the swap of the one at p.  So every ad column is symmetric
    about p = 1/2, and I3_abEa(p) = I3_aEaEb(1 - p).  pd has no such map."""
    rows = read_csv(GOLDEN / f"ad_{series}.csv")
    measures = [key for key in rows[0] if key not in ("channel", "c", "p")]
    for m in measures:  # at most 1.22e-15 (I4 of ad_total)
        assert _mirror_deviation(rows, [m]) <= 1e-12, m
    pd_rows = read_csv(GOLDEN / f"pd_{series}.csv")
    assert _mirror_deviation(pd_rows, measures) > 1e-3
    if series == "total":
        assert _mirror_deviation(pd_rows, ["I4"]) > 1e-3


def test_a_fresh_ad_sweep_mirrors_about_p_one_half():
    measures = I_COLUMNS + ("F_W", "F_GHZ")
    rows = run_sweep(SweepSpec("ad", (0.6,), 101, measures))
    assert _mirror_deviation(rows, measures) <= 1e-12


def test_ad_kinks_come_in_mirror_pairs():
    """Under ad, a kink at p* has a partner at 1 - p* in the mirror column
    (I3_abEa and I3_aEaEb mirror each other, the other columns themselves),
    with the slopes negated and swapped; a kink at p = 1/2 is its own
    partner."""
    mirror = {"I3_abEa": "I3_aEaEb", "I3_aEaEb": "I3_abEa"}
    rows = run_sweep(SweepSpec("ad", (0.2, 0.4, 0.6, 0.8, 1.0), 101, I_COLUMNS))
    kinks = [hit for m in I_COLUMNS for hit in detect_sudden_change(rows, m)]
    assert len(kinks) == 25
    for hit in kinks:
        partners = [other for other in kinks
                    if other.measure == mirror.get(hit.measure, hit.measure)
                    and other.c == hit.c and abs(other.p_star + hit.p_star - 1.0) <= 1e-12]
        assert len(partners) == 1, hit
        (partner,) = partners
        assert partner.left_slope == pytest.approx(-hit.right_slope, abs=1e-9)
        assert partner.right_slope == pytest.approx(-hit.left_slope, abs=1e-9)


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


@pytest.mark.parametrize("p_bad", [0.5, 0.525, 0.625])
def test_detection_rejects_a_missing_or_nan_value(p_bad):
    # before, one NaN blanked the noise of its window, so the kink at 0.5 was lost
    rows = synthetic_rows(lambda p: abs(p - 0.5), n=41, channel="ad", c=0.6)
    assert [h.p_star for h in detect_sudden_change(rows, "y")] == [0.5]
    row = next(r for r in rows if r["p"] == p_bad)
    for value in (math.nan, math.inf, None):
        if value is None:
            del row["y"]
        else:
            row["y"] = value
        with pytest.raises(ValueError, match=f"y is missing or not finite at ad c=0.6 p={p_bad}$"):
            detect_sudden_change(rows, "y")


def test_the_first_and_last_six_points_of_101_are_blind():
    ps = np.linspace(0, 1, 101)
    reported = [
        k for k in range(101)
        if detect_sudden_change(synthetic_rows(lambda p: -abs(p - ps[k])), "y")
    ]
    assert reported == list(range(6, 95))


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


def test_zero_anchors_fail_a_negative_value(monkeypatch):
    """An anchor passes within tol of its expected value on either side: a
    negative I4 is not within 1e-9 of zero."""
    negative = types.SimpleNamespace(value_bits=-1e-3)
    monkeypatch.setattr(experiments, "genuine_total_In", lambda rho: negative)
    report = {e["name"]: e for e in verify_anchors(FAST)}
    for name in ("ad_I4_p_one_zero_c0.4", "ad_I4_p_one_zero_c1.0", "ad_I4_p_zero", "pd_I4_p_zero"):
        assert not report[name]["passed"]
        assert report[name]["deviation"] == 1e-3
