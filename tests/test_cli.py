import json

import numpy as np
import pytest

from cclab import cli
from cclab.cli import (ExperimentConfig, ConfigError, item_rng, describe,
                       registry_listing, run, main, write_csv, _EXIT)


# -- config parsing -----------------------------------------------------------

def test_config_rejects_unknown_top_level_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "check-rank", "bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_json(path)


def test_config_rejects_wrong_schema(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 99,
                                "experiment": "check-rank"}))
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig.from_json(path)


def test_config_requires_experiment(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_json(path)


def test_unknown_param_rejected(tmp_path):
    cfg = ExperimentConfig(experiment="check-rank", out=str(tmp_path),
                           params={"nonsense": 1})
    with pytest.raises(ConfigError, match="nonsense"):
        run(cfg)


def test_unknown_experiment_suggests_name():
    cfg = ExperimentConfig(experiment="check-rnak")
    with pytest.raises(ConfigError, match="check-rank"):
        run(cfg)


# -- deterministic RNG keying -------------------------------------------------

def test_item_rng_reproducible_and_keyed():
    a = item_rng(7, "decompose", 3).normal(size=4)
    b = item_rng(7, "decompose", 3).normal(size=4)
    c = item_rng(7, "decompose", 4).normal(size=4)
    d = item_rng(8, "decompose", 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- report writing -----------------------------------------------------------

def test_write_csv_tagged_headers(tmp_path):
    table = {"columns": [("k", "exact"), ("value", "measured")],
             "rows": [[1, 0.1], [2, 0.25]]}
    path = tmp_path / "t.csv"
    write_csv(path, table, seed=5)
    lines = path.read_text().splitlines()
    assert "# seed=5" in lines
    assert "# column k tag=exact" in lines
    assert "# column value tag=measured" in lines
    assert lines[-2:] == ["1,0.1", "2,0.25"]


def test_run_outputs_are_deterministic(tmp_path):
    for name in ("a", "b"):
        cfg = ExperimentConfig(experiment="check-rank", seed=11,
                               out=str(tmp_path / name))
        run(cfg)
    assert ((tmp_path / "a" / "rank.csv").read_bytes()
            == (tmp_path / "b" / "rank.csv").read_bytes())


def test_run_writes_report_json(tmp_path):
    cfg = ExperimentConfig(experiment="check-rank", out=str(tmp_path))
    rep = run(cfg)
    assert rep.verdict == "pass"
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["verdict"] == "pass"
    assert doc["schema_version"] == 1


# -- registry and describe ----------------------------------------------------

def test_registry_listing_contents():
    listing = registry_listing()
    assert "extension-identity" in listing["experiments"]
    assert "divcurl2" in listing["operators"]
    assert "det2" in listing["integrands"]
    assert "ex63" in listing["sequences"]


def test_describe_case_anchor():
    text = describe("jac_case3")
    assert "n_l = k^(n^2/alpha) * 8^l" in text


def test_describe_experiment_anchor():
    assert "P(xi)" in describe("decompose")


def test_describe_unknown_suggests():
    with pytest.raises(KeyError, match="table1"):
        describe("tabel1")


# -- command line entry point -------------------------------------------------

def test_main_pass_exit_code(tmp_path, capsys):
    code = main(["check-rank", "--out", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "pass"


def test_main_fail_exit_code(tmp_path, capsys):
    # the squared-norm integrand has no mean identity: verdict is a failure
    code = main(["quasiaffine", "--param", "integrand=sqnorm4",
                 "--param", "trials=5", "--out", str(tmp_path)])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_exit_map_covers_inconclusive():
    assert _EXIT == {"pass": 0, "inconclusive": 2, "fail": 1}


def test_main_config_error_is_machine_readable(tmp_path, capsys):
    code = main(["check-rank", "--param", "bogus=1", "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] is True
    assert "bogus" in err["message"]


def test_main_config_subcommand_mismatch(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "orlicz"}))
    code = main(["check-rank", "--config", str(path)])
    assert code == 1
    assert "does not match" in json.loads(capsys.readouterr().err)["message"]


def test_main_list(capsys):
    assert main(["list"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"experiments", "operators", "integrands"}


def test_main_describe(capsys):
    assert main(["describe", "ex61"]) == 0
    assert "pairing = 1" in capsys.readouterr().out


def test_main_orlicz_runs(tmp_path, capsys):
    code = main(["orlicz", "--out", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["luxemburg_gap"] < 1e-8


def test_main_runner_exception_is_machine_readable(tmp_path, capsys):
    # lambdas must be a list; the runner's TypeError ends in the JSON error
    # object, not a traceback
    code = main(["truncate", "--param", "lambdas=5", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] is True
    assert "not iterable" in err["message"]


@pytest.mark.parametrize("fields", ["-1", "0"])
def test_main_decompose_rejects_no_fields(tmp_path, capsys, fields):
    # a run over zero fields checks nothing, so it must not pass
    code = main(["decompose", "--param", f"fields={fields}",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "fields" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "residuals.csv").exists()

