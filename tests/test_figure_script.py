import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

COLUMNS = {
    "total": "I4,I3,I3_abEa,I3_aEaEb",
    "fidelity": "F_W,F_GHZ",
    "quantum": "Q4,Q3",
    "classical": "C4,C3",
}


def test_figure_script_writes_every_series(tmp_path):
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_figure_sweeps.py"),
         "--outdir", str(tmp_path), "--c", "0.6", "--grid-i", "11", "--grid-q", "2",
         "--starts", "1"],
        env=env, check=True, capture_output=True, timeout=300,
    )
    names = [f"{kind}_{series}" for kind in ("ad", "pd") for series in COLUMNS]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{n}.csv" for n in names)
    for name in names:
        series = name.split("_", 1)[1]
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == f"channel,c,p,{COLUMNS[series]}"
        assert len(lines) == 1 + (2 if series in ("quantum", "classical") else 11)
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["spec"]["measures"] == COLUMNS[series].split(",")
