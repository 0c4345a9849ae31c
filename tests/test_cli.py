import inspect
import json
import math

import numpy as np
import pytest

import gencorr.cli as cli
from gencorr import detect_sudden_change, evolve_global, save_state
from gencorr.cli import main
from gencorr.experiments import read_csv


def test_sweep_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--channel", "ad", "--c", "1.0", "--grid", "21",
        "--measures", "I4,I3", "--output", str(out), "--seed", "5",
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 21
    assert {"I4", "I3"} <= set(rows[0])
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["spec"]["channel"] == "ad"
    assert manifest["spec"]["p_count"] == 21
    assert manifest["search"]["rng_seed"] == 5
    assert manifest["failures"] == []


def test_sweep_rejects_unknown_measure(tmp_path, capsys):
    code = main([
        "sweep", "--channel", "ad", "--measures", "I4,bogus",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "unsupported measures" in capsys.readouterr().err


def test_sweep_rejects_repeated_c_values(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--c", "0.5,0.5", "--grid", "11", "--measures", "I4",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "gencorr: error: c values [0.5] are repeated\n"
    assert not out.exists()


def test_sweep_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main([
        "sweep", "--channel", "ad", "--c", "0.5", "--grid", "2", "--measures", "Q4",
        "--starts", "2", "--seed", "-2", "--output", str(out),
    ])
    assert code == 2
    assert "rng_seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_missing_output_directory_before_it_runs(tmp_path, capsys, monkeypatch):
    def never(spec):
        raise AssertionError("run_sweep ran before the output path was checked")

    monkeypatch.setattr(cli, "run_sweep", never)
    out = tmp_path / "missing" / "x.csv"
    code = main(["sweep", "--c", "0.6,1.0", "--grid", "21", "--measures", "Q4,Q3",
                 "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"gencorr: error: output directory {out.parent} does not exist\n")
    assert not out.parent.exists()
    for bad, error in ((tmp_path, f"output {tmp_path} is a directory"),
                       ("", "the output path is empty")):
        code = main(["sweep", "--c", "0.6,1.0", "--grid", "21", "--measures", "Q4,Q3",
                     "--output", str(bad)])
        assert code == 2
        assert capsys.readouterr().err == f"gencorr: error: {error}\n"


def test_sudden_change_cli_finds_the_w_point(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--channel", "ad", "--c", "1.0", "--grid", "101",
          "--measures", "I4", "--output", str(out)])
    capsys.readouterr()  # drop the sweep command's output
    code = main(["sudden-change", str(out), "--measure", "I4"])
    assert code == 0
    text = capsys.readouterr().out
    assert "1 sudden change(s)" in text
    assert json.loads(text.splitlines()[0])["p_star"] == 0.5


def test_sudden_change_cli_rejects_bad_input(tmp_path, capsys):
    # a CSV without a channel column is a usage error
    path = tmp_path / "rows.csv"
    path.write_text("c,p,I4\n" + "".join(f"1.0,{k / 20},0.5\n" for k in range(21)))
    assert main(["sudden-change", str(path), "--measure", "I4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gencorr: error:") and "no channel column" in err


def test_the_kink_detector_has_no_tuning_values(tmp_path, capsys):
    assert list(inspect.signature(detect_sudden_change).parameters) == ["rows", "measure"]
    path = tmp_path / "rows.csv"
    path.write_text("channel,c,p,I4\n" + "".join(f"ad,1.0,{k / 20},0.5\n" for k in range(21)))
    for flags in (["--kappa", "5"], ["--window", "3"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["sudden-change", str(path), "--measure", "I4", *flags])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_sudden_change_cli_rejects_a_nan_row(tmp_path, capsys):
    # before, the NaN hid the kink at p = 0.5: "0 sudden change(s)" and exit 0
    path = tmp_path / "rows.csv"
    ys = [repr(abs(k / 40 - 0.5)) if k != 21 else "nan" for k in range(41)]
    path.write_text("channel,c,p,I4\n" + "".join(f"ad,0.6,{k / 40},{y}\n" for k, y in enumerate(ys)))
    assert main(["sudden-change", str(path), "--measure", "I4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gencorr: error: I4 is missing or not finite at ad c=0.6 p=0.525\n"
    # a row that lacks the measure's field, or has one too many, names its line
    text = path.read_text()
    for bad, field in (("ad,0.6,0.525", "I4 is None"), ("ad,0.6,0.525,0.025,7", "None is ['7']")):
        path.write_text(text.replace("ad,0.6,0.525,nan", bad))
        assert main(["sudden-change", str(path), "--measure", "I4"]) == 2
        assert capsys.readouterr().err == f"gencorr: error: {path} line 23: {field}\n"


def test_state_info_cli(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(evolve_global(0.9, 0.4, "pd"), path)
    code = main(["state-info", str(path), "--measures", "I4,F_GHZ"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [2, 2, 2, 2]
    assert set(doc["measures"]) == {"I4", "F_GHZ"}


def test_state_info_rejects_a_nan_entry(tmp_path, capsys):
    # json reads the NaN token, and a NaN passes every tolerance check
    path = tmp_path / "state.json"
    save_state(evolve_global(0.9, 0.4, "pd"), path)
    doc = json.loads(path.read_text())
    doc["re"][0][0] = math.nan
    path.write_text(json.dumps(doc))
    assert main(["state-info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gencorr: error: density matrix has a non-finite entry\n"


def test_state_info_rejects_wrong_dims(tmp_path, capsys):
    from gencorr import DensityMatrix

    path = tmp_path / "qubit.json"
    save_state(DensityMatrix((2,), np.eye(2) / 2), path)
    assert main(["state-info", str(path)]) == 2
    assert "4-qubit" in capsys.readouterr().err

    path.write_text(json.dumps({"re": [1.0, 0.0], "im": [0.0, 0.0]}))  # no "dims"
    assert main(["state-info", str(path)]) == 2
    assert "'dims'" in capsys.readouterr().err

    for dims in (4, None, [2.7, 2]):
        path.write_text(json.dumps({"dims": dims, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
        assert main(["state-info", str(path)]) == 2
        assert "dims must be a list of integers" in capsys.readouterr().err

    path.write_text(json.dumps({"dims": [2, 2], "re": [0.5, 0.5, 0.5, 0.5], "im": [0.0]}))
    assert main(["state-info", str(path)]) == 2
    assert "re and im must have one shape" in capsys.readouterr().err

    cube = np.zeros((2, 2, 2)).tolist()
    path.write_text(json.dumps({"dims": [2], "re": cube, "im": cube}))
    assert main(["state-info", str(path)]) == 2
    assert "3-D" in capsys.readouterr().err


def test_verify_anchors_cli_passes_every_anchor(capsys):
    code = main(["verify-anchors", "--starts", "4", "--max-evals", "400"])
    out = capsys.readouterr().out
    assert code == 0  # every reference entry passes, the W closed forms included
    assert "[FAIL]" not in out
    assert "[PASS] I4_W4" in out
    assert "[PASS] I3_W4" in out
    assert "[PASS] I4_GHZ4" in out
    assert out.strip().endswith("anchors passed")
