import json

import numpy as np

from gencorr import evolve_global, save_state
from gencorr.cli import main
from gencorr.experiments import read_csv


def test_sweep_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--channel", "ad", "--c", "1.0", "--grid", "21",
        "--measures", "I4,I3", "--output", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 21
    assert {"I4", "I3"} <= set(rows[0])
    manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
    assert manifest["spec"]["channel"] == "ad"
    assert manifest["spec"]["p_count"] == 21
    assert manifest["failures"] == []


def test_sweep_rejects_unknown_measure(tmp_path, capsys):
    code = main([
        "sweep", "--channel", "ad", "--measures", "I4,bogus",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "unsupported measures" in capsys.readouterr().err


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


def test_verify_appendix_cli(capsys):
    assert main(["verify-appendix", "--grid", "3"]) == 0
    assert "worst deviation" in capsys.readouterr().out


def test_state_info_cli(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(evolve_global(0.9, 0.4, "pd"), path)
    code = main(["state-info", str(path), "--measures", "I4,F_GHZ"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [2, 2, 2, 2]
    assert set(doc["measures"]) == {"I4", "F_GHZ"}


def test_state_info_rejects_wrong_dims(tmp_path, capsys):
    from gencorr import DensityMatrix

    path = tmp_path / "qubit.json"
    save_state(DensityMatrix((2,), np.eye(2) / 2), path)
    assert main(["state-info", str(path)]) == 2
    assert "4-qubit" in capsys.readouterr().err


def test_config_file_and_env_seed_precedence(tmp_path, monkeypatch):
    cfgfile = tmp_path / "gencorr.cfg"
    cfgfile.write_text("rng_seed = 3\nstarts = 4\nmax_evals = 250  # budget\n")

    def manifest_seed(args_extra):
        out = tmp_path / "s.csv"
        main(["sweep", "--channel", "ad", "--c", "0.5", "--grid", "11",
              "--measures", "I4", "--output", str(out),
              "--config", str(cfgfile), *args_extra])
        return json.loads((tmp_path / "s.manifest.json").read_text())["search"]

    search = manifest_seed([])
    assert search["rng_seed"] == 3 and search["starts"] == 4 and search["max_evals"] == 250

    monkeypatch.setenv("GENCORR_SEED", "5")
    assert manifest_seed([])["rng_seed"] == 5  # env beats config

    assert manifest_seed(["--seed", "9"])["rng_seed"] == 9  # flag beats env


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    code = main(["sweep", "--config", str(bad), "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_verify_anchors_cli_passes_every_anchor(capsys):
    code = main(["verify-anchors", "--starts", "4", "--max-evals", "400"])
    out = capsys.readouterr().out
    assert code == 0  # every reference entry passes, the W closed forms included
    assert "[FAIL]" not in out
    assert "[PASS] I4_W4" in out
    assert "[PASS] I3_W4" in out
    assert "[PASS] I4_GHZ4" in out
    assert out.strip().endswith("anchors passed")
