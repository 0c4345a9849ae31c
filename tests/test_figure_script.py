import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

COLUMNS = {
    "total": "I4,I3,I3_abEa,I3_aEaEb",
    "fidelity": "F_W,F_GHZ",
    "quantum": "Q4,Q3",
    "classical": "C4,C3",
}


def _run_script(outdir) -> str:
    """Run the figure script on a small grid into outdir; its stdout."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_figure_sweeps.py"),
         "--outdir", str(outdir), "--c", "0.6", "--grid-i", "11", "--grid-q", "2",
         "--starts", "1"],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    ).stdout


def test_figure_script_writes_every_series(tmp_path):
    _run_script(tmp_path)
    names = [f"{kind}_{series}" for kind in ("ad", "pd") for series in COLUMNS]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{n}.csv" for n in names)
    for name in names:
        series = name.split("_", 1)[1]
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == f"channel,c,p,{COLUMNS[series]}"
        assert len(lines) == 1 + (2 if series in ("quantum", "classical") else 11)
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["spec"]["measures"] == COLUMNS[series].split(",")


def test_figure_script_times_each_sweep_on_stdout_only(tmp_path):
    outs = [_run_script(tmp_path / run) for run in ("a", "b")]
    for out in outs:
        timed = re.findall(r"^(\S+): (\d+) rows in \d+\.\d\d s$", out, re.M)
        assert timed == [("ad_total+ad_fidelity", "11"), ("ad_quantum+ad_classical", "2"),
                         ("pd_total+pd_fidelity", "11"), ("pd_quantum+pd_classical", "2")]
        assert re.search(r"^pass: \d+\.\d\d s$", out, re.M)
    # no file holds the timings: two runs write the same bytes
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir()) and len(files) == 16
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_figure_script_reads_c_as_the_cli_does(tmp_path):
    # an empty entry is skipped, as by gencorr sweep --c; before, "0.6,"
    # ended in a ValueError traceback
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_figure_sweeps.py"),
         "--outdir", str(tmp_path), "--c", "0.6,", "--grid-i", "11", "--skip-search"],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    manifest = json.loads((tmp_path / "ad_total.manifest.json").read_text())
    assert manifest["spec"]["c_values"] == [0.6]


def test_figure_script_has_no_workers_flag(tmp_path):
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_figure_sweeps.py"),
         "--outdir", str(tmp_path), "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "unrecognized arguments: --workers 2" in done.stderr
    assert list(tmp_path.iterdir()) == []
