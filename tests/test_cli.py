import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cclab import cli
from cclab import counterexamples as cex
from cclab.params import checked_params
from cclab.cli import (Check, ExperimentConfig, ConfigError, item_rng,
                       describe, registry_listing, run, main, verdict_of,
                       write_csv, _EXIT)


# -- config parsing -----------------------------------------------------------

def test_config_rejects_unknown_top_level_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "check-rank", "bogus": 1}))
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.from_json(path, "check-rank")


def test_config_rejects_wrong_schema(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 99,
                                "experiment": "check-rank"}))
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig.from_json(path, "check-rank")


def test_config_requires_experiment(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    with pytest.raises(ConfigError, match="missing 'experiment'"):
        ExperimentConfig.from_json(path, "check-rank")


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


def test_write_csv_numpy_scalars_parse_as_floats(tmp_path):
    vals = [np.float64(-0.48), np.float64(1e-19), np.float64(2.0)]
    path = tmp_path / "t.csv"
    write_csv(path, {"columns": [("x", "measured")],
                     "rows": [[v] for v in vals]}, seed=0)
    cells = path.read_text().splitlines()[-3:]
    assert [float(c) for c in cells] == [float(v) for v in vals]


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
    # ex63 is a witness case, not a sequence that pairing --seq runs
    assert "ex63" in listing["cases"] and "ex63" not in listing["sequences"]
    assert {"ex61", "ex62", "oscillation_pure"} <= set(listing["sequences"])
    assert set(listing["cases"]) == set(cex.CASES)


def test_listed_sequences_all_run(tmp_path, capsys):
    """Every sequence that list advertises is one that pairing --seq runs."""
    for seq in registry_listing()["sequences"]:
        main(["pairing", "--seq", seq, "--param", "indices=[2, 4]",
              "--out", str(tmp_path / seq)])
        assert "unknown sequence" not in capsys.readouterr().err
        assert (tmp_path / seq / "pairing.csv").exists()


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
    # samples=-5 is a well-typed int; the runner's ValueError ends in the
    # JSON error object, not a traceback
    code = main(["check-rank", "--param", "samples=-5", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] is True
    assert "sample" in err["message"]


def test_main_param_type_error_names_key(tmp_path, capsys):
    # lambdas must be a list; the type check stops it before the runner
    code = main(["truncate", "--param", "lambdas=5", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = json.loads(captured.err)["message"]
    assert "lambdas" in message and "list" in message and "5" in message
    assert not (tmp_path / "truncate.csv").exists()


def test_main_hardy_accepts_int_for_float_param(tmp_path, capsys):
    assert main(["hardy", "--param", "R=1", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


@pytest.mark.parametrize("default, value, ok", [
    (None, "anything", True), (None, [1], True),
    ((0.5, 1.0), [2, 3], True), ([[64, 16]], [[32, 8]], True),
    ((0.5, 1.0), 5, False), ((0.5, 1.0), "5", False),
    (10, 3, True), (10, True, False), (10, 3.0, False),
    (1e-8, 1, True), (1e-8, 1.5, True), (1e-8, False, False),
    (1e-8, "x", False), ("ex63", "ex61", True), ("ex63", 1, False),
    ({}, {"p": 1.5}, True), ({}, [], False),
    (True, False, True), (True, 1, False),
])
def test_merge_params_type_rules(default, value, ok):
    if ok:
        assert checked_params("e", {"x": default}, {"x": value}, (), {}) == \
            {"x": value}
    else:
        with pytest.raises(ConfigError, match="'x' of e expects"):
            checked_params("e", {"x": default}, {"x": value}, (), {})


@pytest.mark.parametrize("fields", ["-1", "0"])
def test_main_decompose_rejects_no_fields(tmp_path, capsys, fields):
    # a run over zero fields checks nothing, so it must not pass
    code = main(["decompose", "--param", f"fields={fields}",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "fields" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "residuals.csv").exists()


@pytest.mark.parametrize("argv", [
    ["quasiaffine", "--param", "operator=div2"],
    ["quasiaffine", "--param", "operator=div2", "--param", "trials=0"]],
    ids=" ".join)
def test_main_quasiaffine_rejects_integrand_operator_mismatch(tmp_path,
                                                              capsys, argv):
    # divcurl_dot acts on R^4 and div2 on R^2: an error before any trial,
    # not a raise inside trial 1 or an inconclusive run over zero trials
    assert main(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "R^4" in json.loads(captured.err)["message"]
    assert not (tmp_path / "trials.csv").exists()


@pytest.mark.parametrize("operator", ["grad:n=3", "div2:n=3"])
def test_main_decompose_on_a_3d_grid(tmp_path, operator):
    code = main(["decompose", "--param", f"operator={operator}",
                 "--param", "fields=1", "--param", "shape=16",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "residuals.csv").exists()


# -- verdicts from checks -----------------------------------------------------

@pytest.mark.parametrize("checks, verdict", [
    ([Check("a", 1e-12, 1e-10), Check("b", -1.0, -1.2, ">=", 5)], "pass"),
    ([Check("a", 1e-9, 1e-10), Check("b", "x", "x", "==")], "fail"),
    ([], "inconclusive"),
    ([Check("a", 0.0, 1e-10, "<=", 0), Check("b", 1, 1, "==")],
     "inconclusive"),
    ([Check("a", 0.0, 1e-10, "<=", 0), Check("b", -2.0, -1.2, ">=")], "fail"),
    ([Check("a", float("nan"), 1.0)], "fail"),
])
def test_verdict_of(checks, verdict):
    assert verdict_of(checks) == verdict


def test_check_margin_and_ok():
    assert Check("a", 3.0, 64.0).margin == 61.0
    assert Check("a", -1.0, -1.2, ">=").margin == pytest.approx(0.2)
    assert Check("a", 70.0, 64.0).margin == -6.0
    assert not Check("a", 70.0, 64.0).ok
    assert Check("a", True, True, "==").margin is None


def test_report_json_reads_back_each_check(tmp_path):
    rep = run(ExperimentConfig(experiment="quasiaffine", out=str(tmp_path),
                               params={"trials": 5}))
    doc = json.loads((tmp_path / "report.json").read_text())
    [check] = doc["checks"]
    assert check["name"] == "worst_relative_deviation"
    assert check["relation"] == "<=" and check["items"] == 5
    assert check["ok"] is True and rep.verdict == doc["verdict"] == "pass"
    assert check["margin"] == check["bound"] - check["measured"] > 0
    assert rep.checks[0].margin == check["margin"]


# each of these ran to "pass" although it gated nothing
NOTHING_CHECKED = [
    ["counterexample", "--case", "jac_case1"],
    ["truncate", "--param", "lambdas=[1000.0]", "--param", "cases=2"],
]


@pytest.mark.parametrize("argv", NOTHING_CHECKED, ids=" ".join)
def test_main_nothing_checked_is_inconclusive(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


@pytest.mark.parametrize("argv", [
    ["counterexample", "--case", "ex61"],
    ["counterexample", "--case", "ex62"]], ids=" ".join)
def test_main_gated_witness_passes_with_rows(tmp_path, capsys, argv):
    """ex61 and ex62 share pairing --seq's gate: the run passes over every
    index and its CSV has one row per index."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    [check] = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert check["ok"] is True and check["items"] == 6
    lines = (tmp_path / f"{argv[2]}.csv").read_text().splitlines()
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 6


# a run over zero trials, cases, levels or lambdas, or over no t-interval
# [0, T], would check nothing, so it is refused before it writes a table;
# so is an index that is not an int and a level that is not an (N, L) pair
# of ints with N >= 2 and L >= 1, an orlicz p < 1, an unregistered integrand and thmD's
# retired s, which used to end in a message that did not name them; a gate
# bound is no param, so a config cannot loosen a gate until a run passes
EMPTY_RUNS = {("quasiaffine", "trials"): ("trials.csv", "trials >= 1"),
              ("pairing", "indices"): ("pairing.csv",
                                       "non-empty indices list of ints"),
              ("truncate", "cases"): ("truncate.csv", "cases >= 1"),
              ("truncate", "lambdas"): ("truncate.csv",
                                        "non-empty lambdas list"),
              ("extension-identity", "cases"): ("identity.csv", "cases >= 1"),
              ("extension-identity", "levels"): (
                  "identity.csv", "non-empty levels list of (N, L) pairs of "
                                  "ints, N >= 2 and L >= 1"),
              ("extension-identity", "T"): ("identity.csv",
                                            "positive finite T"),
              ("orlicz", "p"): ("orlicz.csv", "orlicz needs p >= 1"),
              ("quasiaffine", "integrand"): ("trials.csv",
                                             "needs integrand in"),
              ("pairing", "integrand"): ("pairing.csv", "needs integrand in"),
              ("thmD", "s"): ("ratios.csv", "unknown params for thmD: ['s']"),
              ("decompose", "tol_recon"): (
                  "residuals.csv",
                  "unknown params for decompose: ['tol_recon']"),
              ("decompose", "tol_ortho"): (
                  "residuals.csv",
                  "unknown params for decompose: ['tol_ortho']"),
              ("quasiaffine", "tol"): (
                  "trials.csv", "unknown params for quasiaffine: ['tol']"),
              ("orlicz", "tol_lux"): (
                  "orlicz.csv", "unknown params for orlicz: ['tol_lux']"),
              ("thmD", "max_spread"): (
                  "ratios.csv", "unknown params for thmD: ['max_spread']"),
              ("extension-identity", "tol"): (
                  "identity.csv",
                  "unknown params for extension-identity: ['tol']")}


@pytest.mark.parametrize("argv", [
    ["quasiaffine", "--param", "trials=0"],
    ["quasiaffine", "--param", "trials=-3"],
    ["truncate", "--param", "cases=0"],
    ["truncate", "--param", "lambdas=[]"],
    ["extension-identity", "--param", "cases=0"],
    ["extension-identity", "--param", "cases=-2"],
    ["extension-identity", "--param", "levels=[]"],
    ["extension-identity", "--param", "levels=[[64]]"],
    ["extension-identity", "--param", "levels=[[64, 0]]"],
    ["extension-identity", "--param", "levels=[[64.0, 16]]"],
    ["extension-identity", "--param", "levels=[[1, 4]]"],
    ["pairing", "--param", "indices=5"],
    ["pairing", "--param", 'indices="ab"'],
    ["pairing", "--param", "indices=[1.5, 2]"],
    ["extension-identity", "--param", "T=-1.0"],
    ["extension-identity", "--param", "T=0"],
    ["orlicz", "--param", "p=-1"],
    ["quasiaffine", "--param", "integrand=foo"],
    ["pairing", "--param", "integrand=foo", "--seq", "oscillation_pure"],
    ["thmD", "--param", "s=0"],
    ["decompose", "--param", "tol_recon=1e300", "--param", "fields=2",
     "--param", "shape=16"],
    ["decompose", "--param", "tol_ortho=1e300"],
    ["quasiaffine", "--param", "tol=1e300"],
    ["orlicz", "--param", "tol_lux=1e300"],
    ["thmD", "--param", "max_spread=1e300"],
    ["extension-identity", "--param", "tol=1.0"]], ids=" ".join)
def test_main_empty_run_is_a_config_error(tmp_path, capsys, argv):
    table, needs = EMPTY_RUNS[argv[0], argv[2].partition("=")[0]]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] is True and needs in err["message"]
    assert not (tmp_path / table).exists()


def test_orlicz_delta2_is_decided_by_the_finite_ratios(tmp_path, capsys):
    """t^50 log(1+t) is Delta_2: phi overflows on the top of the sample
    range, and its finite ratios stay flat, near 2^50.  t^(10^6) log(1+t)
    leaves no finite ratio there, which decides nothing: a config error
    that names p, with nothing written."""
    assert main(["orlicz", "--param", "p=50",
                 "--out", str(tmp_path / "50")]) == 0
    checks = json.loads((tmp_path / "50" / "report.json").read_text())["checks"]
    assert [c["ok"] for c in checks if c["name"] == "delta2_zygmund"] == [True]
    capsys.readouterr()
    assert main(["orlicz", "--param", "p=1e6",
                 "--out", str(tmp_path / "1e6")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    message = json.loads(captured.err)["message"]
    assert message == ("orlicz p=1000000.0 leaves 0 finite Delta_2 ratios, "
                       "fewer than 12")
    assert not (tmp_path / "1e6").exists()


def test_main_truncate_box_covering_level_is_not_applicable(tmp_path, capsys):
    # seed 6: lambda = 0.5 makes case 2's bad set cover the box
    code = main(["truncate", "--seed", "6", "--param", "cases=3",
                 "--out", str(tmp_path)])
    assert code == 0 and json.loads(capsys.readouterr().out)["verdict"] == "pass"
    rows = (tmp_path / "truncate.csv").read_text().splitlines()[-18:]
    assert [r for r in rows if "nan" in r] == ["2,0.5,nan,nan,16384"]
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [c["items"] for c in checks if c["name"] != "volume_ratio"] == [17, 17]


# -- bad params end in the JSON error contract --------------------------------

def _kind(value):
    """JSON type of a value; int and float are one kind, as for params."""
    for kind, types in (("bool", bool), ("number", (int, float)),
                        ("list", (list, tuple)), ("str", str), ("dict", dict)):
        if isinstance(value, types):
            return kind
    return "null"


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@pytest.mark.parametrize("name", sorted(cli.REGISTRY))
@settings(max_examples=15)
@given(data=st.data())
def test_main_bad_params_end_in_error_object(name, data, tmp_path_factory):
    """Unknown keys and wrongly typed values never reach a runner, so no
    valid (possibly large) size is ever drawn."""
    defaults = cli.REGISTRY[name]["defaults"]
    unknown = st.dictionaries(
        st.from_regex(r"[a-z_]{1,10}", fullmatch=True).filter(
            lambda key: key not in defaults), JSON_VALUES, max_size=2)
    wrong = st.fixed_dictionaries({}, optional={
        key: JSON_VALUES.filter(lambda v, d=default: _kind(v) != _kind(d))
        for key, default in defaults.items() if default is not None})
    params = data.draw(st.tuples(unknown, wrong).map(
        lambda pair: {**pair[0], **pair[1]}).filter(bool))
    out = tmp_path_factory.mktemp("bad")
    argv = [name, "--out", str(out)]
    for key, value in params.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 1 and stdout.getvalue() == ""
    assert json.loads(stderr.getvalue())["error"] is True
    assert list(out.iterdir()) == []


# -- report.json holds JSON values, not strings of NumPy scalars -------------

def test_report_json_reads_final_ok_back_as_a_boolean(tmp_path, capsys):
    # rel_error 1.26e-2 -> 6.95e-4 on this ladder: under the 1e-3 gate
    argv = ["extension-identity", "--param", "cases=1",
            "--param", "levels=[[16, 8], [32, 16]]", "--out", str(tmp_path)]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["results"]["final_ok"]
    written = json.loads((tmp_path / "report.json").read_text())
    assert printed is True and written["results"]["final_ok"] is True


def test_json_leaf_converts_numpy_scalars_and_rejects_the_rest():
    doc = {"b": np.bool_(False), "i": np.int64(3), "f": np.float32(0.5)}
    assert json.dumps(doc, default=cli._json_leaf) == \
        '{"b": false, "i": 3, "f": 0.5}'
    for value in (object(), np.zeros(2), {1.5}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps({"x": value}, default=cli._json_leaf)


def test_pairing_ex62_takes_only_the_masses(tmp_path, capsys, monkeypatch):
    """pairing --seq ex62 reports the oscillation scenario's M pairings
    without building the scenario's Hardy norms."""
    expected = cex.run_case(cex.make_spec("ex62"), (2, 8))["M"]

    def no_hardy(*args, **kwargs):
        raise AssertionError("pairing --seq ex62 built a local Hardy norm")

    monkeypatch.setattr(cex, "local_hardy_norms", no_hardy)
    assert main(["pairing", "--seq", "ex62", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # two indices are too few for a verdict; the pairings are still the
    # scenario's
    main(["pairing", "--seq", "ex62", "--param", "indices=[2, 8]",
          "--out", str(tmp_path / "two")])
    results = json.loads(capsys.readouterr().out)["results"]
    assert [float(v).hex() for v in results["pairings"]] == \
        [v.hex() for v in expected]


# -- radii, index lists and spec parameters that cannot run ------------------

def _error_message(argv, tmp_path, capsys):
    """main(argv)'s JSON error message; the run must end in exit code 1,
    print nothing on stdout and write nothing under --out."""
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert not out.exists() or list(out.iterdir()) == []
    err = json.loads(captured.err)
    assert err["error"] is True
    return err["message"]


@pytest.mark.parametrize("radius", ["-1.0", "0.0", "-0.0", "NaN",
                                    "Infinity", "-Infinity"])
def test_main_hardy_rejects_a_ball_that_is_not_one(tmp_path, capsys,
                                                    radius):
    message = _error_message(["hardy", "--param", f"R={radius}"], tmp_path,
                             capsys)
    assert "radius R must be positive and finite" in message
    with pytest.raises(ConfigError, match="radius R"):
        cli.run(ExperimentConfig("hardy", out=str(tmp_path / "run"),
                                 params={"R": json.loads(radius)}))


def test_main_hardy_takes_a_ball_of_one_cell(tmp_path, capsys):
    """The smallest ball that holds a grid point still runs and passes."""
    assert main(["hardy", "--param", "R=0.01", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["hardy_norm"] > 0


@pytest.mark.parametrize("argv", [
    ["pairing", "--seq", "ex61"], ["pairing", "--seq", "ex62"],
    ["pairing", "--seq", "oscillation_pure"],
    ["counterexample", "--case", "ex62"], ["counterexample", "--case", "ex63"],
    ["counterexample", "--case", "jac_case3"]])
def test_main_empty_indices_are_a_config_error(tmp_path, capsys, argv):
    """An empty index list no longer runs the default indices."""
    message = _error_message(argv + ["--param", "indices=[]"], tmp_path,
                             capsys)
    assert "non-empty indices" in message
    with pytest.raises(ConfigError, match="non-empty indices"):
        cli.run(ExperimentConfig(argv[0], out=str(tmp_path / "run"),
                                 params={argv[1][2:]: argv[2], "indices": []}))


@pytest.mark.parametrize("alpha", ["-1.0", "0.0", "2.0", "5.0"])
def test_main_thmD_alpha_outside_holder_range(tmp_path, capsys, alpha):
    """A Holder seminorm needs 0 < alpha <= 1: these runs used to pass."""
    message = _error_message(["thmD", "--param", f"alpha={alpha}"], tmp_path,
                             capsys)
    assert message == f"thmD needs 0 < alpha <= 1, got {float(alpha)!r}"


def test_main_thmD_alpha_one_is_a_holder_exponent(tmp_path, capsys):
    assert main(["thmD", "--param", "alpha=1.0", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


@pytest.mark.parametrize("r", ["0.0", "-2.0", "1.0"])
def test_main_ex63_names_a_bad_r(tmp_path, capsys, r):
    """F = w sqrt(psi(w)) is integrable only for r >= 2: r = 1 used to end
    in an overflow that named no param."""
    message = _error_message(["counterexample", "--case", "ex63", "--param",
                              f'overrides={{"r": {r}}}'], tmp_path, capsys)
    assert message == f"ex63 needs r >= 2, got r={float(r)!r}"


# -- witness family outputs keep their bytes ----------------------------------

# (experiment, params) -> sha256 of the CSV, sha256 of the results JSON
# (sorted keys) and the verdict, taken before the families became one record
# each; the entries with a comment changed on purpose
WITNESS_RUNS = {
    # gated by the pairing experiment's gate: the CSV is pairing's, and the
    # results gain its pairings with their limit or verdict
    ("counterexample", "ex61"): (
        "e0fca827791d74bed3fd31a30ed948f29441d98e2265977a88da34bcfcaa329d",
        "0286b4d3d381b035ab6833bfa28d5efd292de2c7a85c4b421ff70e526877c0c3",
        "pass"),
    ("counterexample", "ex62"): (
        "7ef9e355b69f62e3f921d4625fc897ca3459eb94706629e240a5306bed1ca604",
        "934057f3a76c175450007982e88e90cfda25bcfb449250b811ee411e880e4b64",
        "pass"),
    ("counterexample", "ex63"): (
        "900c6cec23b9dc0895d65391e885b3d82a7eca0283bab994d5b14808663faf6c",
        "7465c63741412c754c646849dc1e356c0c015a9ccff73f1a86084095ebb685d6",
        "pass"),
    # the grid gradient inverts half-spectra: the values move by at most
    # 1.7e-15 relative
    ("counterexample", "jac_case1"): (
        "42a00455d275c5d6aa4c749c7e930929aaa385cb410dd2d29aa53ec0a49e87ed",
        "e8c7a0bbf8afe4108c5d0d6554842966750ea8839866a707bab2ee54b1602eb7",
        "inconclusive"),
    ("counterexample", "jac_case2"): (
        "74eb13f44508eb90fe665061a9a718de41ec43ff93abc1b206302f1b2753fca6",
        "1fa80d9232b0de252ce6d1d583f4424aa34d670879cf07794de8f2bf0380892d",
        "pass"),
    # as jac_case1: the CSV moves by 1.5e-16 relative, the check's measured
    # value by 1.6e-13
    ("counterexample", "jac_case2", "grid"): (
        "f56f90a1e1ca146b445c24cb9e5205b25d1349fa8df8c49a471a71ac2e68c54f",
        "b70d4962638e6fbf554f628ab6b697d81d463714304fae2b43044eae6676f3fe",
        "pass"),
    ("counterexample", "jac_case3"): (
        "1e6d6e9566806eae1ea2f4a7eb7f06b293ef1e33d705fd1c0a78177f07e12434",
        "2e82a9158047597cadd0ab254c78b38feabf8fc0e1a438b4b85134f2814d388f",
        "pass"),
    # the results gain the levels that the CSV already lists
    ("counterexample", "appendixOrlicz"): (
        "b96162d40e893ec67af7164cd4d3b82ccd1b96be707d3cd0d50d77d887c9f2da",
        "a719d38bebbbfefc350969f65434f58829473621f559320ee6425507e4b2216d",
        "pass"),
    ("pairing", "ex61"): (
        "e0fca827791d74bed3fd31a30ed948f29441d98e2265977a88da34bcfcaa329d",
        "84036206ba99d400b1add4c7f3d17920c9af7d36f960828cb7386e5b299cddda",
        "pass"),
    ("pairing", "ex62"): (
        "7ef9e355b69f62e3f921d4625fc897ca3459eb94706629e240a5306bed1ca604",
        "8074c76f9fcad3d690dcf68c8224e953910d147c1eacdb5adcda5ca841d0bdaa",
        "pass"),
}


@pytest.mark.parametrize("run_id", sorted(WITNESS_RUNS), ids=" ".join)
def test_witness_runs_keep_their_bytes(tmp_path, run_id):
    experiment, name, *mode = run_id
    params = {"seq" if experiment == "pairing" else "case": name}
    if mode:
        params["overrides"] = {"mode": mode[0]}
    rep = run(ExperimentConfig(experiment, out=str(tmp_path), params=params))
    [table] = tmp_path.glob("*.csv")
    results = json.dumps(rep.results, sort_keys=True, default=cli._json_leaf)
    assert (hashlib.sha256(table.read_bytes()).hexdigest(),
            hashlib.sha256(results.encode()).hexdigest(),
            rep.verdict) == WITNESS_RUNS[run_id]


@pytest.mark.parametrize("argv, message", [
    (["counterexample", "--case", "jac_case2", "--param",
      'overrides={"mode": "bogus"}'],
     "jac_case2 needs mode in ('torus', 'grid'), got mode='bogus'"),
    (["counterexample", "--case", "jac_case3", "--param",
      'overrides={"mode": "torus"}'],
     "unknown params for jac_case3: ['mode']"),
    (["counterexample", "--case", "ex61", "--param", 'overrides={"bogus": 1}'],
     "unknown params for ex61: ['bogus']"),
    (["counterexample", "--case", "nope"],
     f"unknown case 'nope' (choose from {cex.CASES})"),
    (["counterexample", "--case", "ex61", "--param", 'overrides={"e": [1.0]}'],
     "ex61 needs e to hold n=2 numbers, got e=[1.0]"),
    (["counterexample", "--case", "ex61", "--param",
      'overrides={"e": [0.6, 0.8, 0.0]}'],
     "ex61 needs e to hold n=2 numbers, got e=[0.6, 0.8, 0.0]"),
    (["counterexample", "--case", "ex61", "--param",
      'overrides={"e": ["a", "b"]}'],
     "ex61 needs e to hold n=2 numbers, got e=['a', 'b']"),
    (["counterexample", "--case", "ex61", "--param", 'overrides={"shape": 0}'],
     "ex61 needs shape >= 2, got shape=0"),
    (["counterexample", "--case", "ex62", "--param", 'overrides={"shape": 0}'],
     "ex62 needs shape >= 2, got shape=0"),
    (["counterexample", "--case", "jac_case3", "--param", "indices=[1]"],
     "counterexample needs indices >= 2 for jac_case3, got [1]"),
    (["counterexample", "--case", "ex63", "--param", 'overrides={"n": 5}'],
     "unknown params for ex63: ['n']"),
    (["counterexample", "--case", "jac_case2", "--param",
      'overrides={"p": 4.0}'], "unknown params for jac_case2: ['p']"),
    (["counterexample", "--case", "appendixOrlicz", "--param",
      'overrides={"s": 2}'], "unknown params for appendixOrlicz: ['s']"),
    (["counterexample", "--case", "jac_case3", "--param",
      'overrides={"term_cap": 1}'],
     "unknown params for jac_case3: ['term_cap']"),
    (["pairing", "--seq", "ex61", "--param", "integrand=foo"],
     "pairing needs integrand in ['det2', 'divcurl_dot', 'sqnorm4'], "
     "got integrand='foo'"),
    (["pairing", "--seq", "ex61", "--param", "integrand=det2"],
     "pairing seq 'ex61' never reads ['integrand']"),
    (["pairing", "--seq", "ex62", "--param", "tol=-1"],
     "unknown params for pairing: ['tol']"),
    (["decompose", "--param", "operator=curl2:n=3"],
     "decompose operator 'curl2:n=3': curl2 takes no params"),
    (["decompose", "--param", "operator=divcurl2:n=3"],
     "decompose operator 'divcurl2:n=3': divcurl2 takes no params"),
    (["quasiaffine", "--param", "operator=divcurl2:n=3"],
     "quasiaffine operator 'divcurl2:n=3': divcurl2 takes no params"),
    (["decompose", "--param", "operator=grad:n=2.5"],
     "decompose operator 'grad:n=2.5': grad takes only n=<int>"),
    (["decompose", "--param", "operator=grad:m=3"],
     "decompose operator 'grad:m=3': grad takes only n=<int>"),
    (["decompose", "--param", "operator=grad:n=abc"],
     "decompose operator 'grad:n=abc': grad takes only n=<int>"),
    (["check-rank", "--param", "operator=grad:n=0"],
     "check-rank operator 'grad:n=0': n, l, dimV, dimW must be positive")],
    ids=["jac_case2-bogus-mode", "jac_case3-mode", "unknown-override",
         "unknown-case", "ex61-e-one-entry", "ex61-e-three-entries",
         "ex61-e-strings", "ex61-shape-0", "ex62-shape-0",
         "jac_case3-index-1", "ex63-n", "jac_case2-p", "appendixOrlicz-s",
         "jac_case3-term_cap", "ex61-integrand-foo", "ex61-integrand",
         "ex62-tol", "curl2-n", "divcurl2-n", "quasiaffine-divcurl2-n",
         "grad-n-float", "grad-m", "grad-n-str", "grad-n-0"])
def test_main_bad_witness_config_names_its_fault(tmp_path, capsys, argv,
                                                  message):
    """A mode that no route runs, a parameter that no code reads, an
    unknown case, a direction e or a grid that the family cannot take, and
    an operator string with a param that its operator does not take end in
    the JSON error with a plain (unquoted) message."""
    assert _error_message(argv, tmp_path, capsys) == message


@pytest.mark.parametrize("experiment", ["decompose", "check-rank",
                                        "quasiaffine"])
def test_bad_operator_string_is_a_config_error(tmp_path, capsys, experiment):
    """The params check builds the operator, so a string that
    make_operator refuses (a ValueError, or a KeyError for an unknown name)
    is a ConfigError naming operator before the run starts."""
    message = f"{experiment} operator 'curl2:n=3': curl2 takes no params"
    with pytest.raises(ConfigError) as exc:
        cli.run(ExperimentConfig(experiment, out=str(tmp_path / "run"),
                                 params={"operator": "curl2:n=3"}))
    assert str(exc.value) == message and not (tmp_path / "run").exists()
    with pytest.raises(ConfigError, match="unknown operator 'curl3'"):
        cli.run(ExperimentConfig(experiment, out=str(tmp_path / "run"),
                                 params={"operator": "curl3"}))
    assert _error_message([experiment, "--param", "operator=curl2:n=3"],
                          tmp_path, capsys) == message


def test_quasiaffine_rules_build_the_operator_once(tmp_path, monkeypatch):
    """The dimV rule and its message read the operator rule's build."""
    calls = []
    make = cli.sym_mod.make_operator

    def counted(spec):
        calls.append(spec)
        return make(spec)

    monkeypatch.setattr(cli.sym_mod, "make_operator", counted)
    with pytest.raises(ConfigError, match="but operator div2 on R"):
        cli.run(ExperimentConfig("quasiaffine", out=str(tmp_path),
                                 params={"operator": "div2"}))
    assert calls == ["div2"]


@pytest.mark.parametrize("case, overrides, message", [
    ("ex63", {"r": "x"}, "param 'r' of ex63 expects int or float, got 'x'"),
    ("ex61", {"shape": 64.5}, "param 'shape' of ex61 expects int, got 64.5")],
    ids=["ex63-r-str", "ex61-shape-float"])
def test_main_witness_override_of_wrong_type_names_case_and_key(
        tmp_path, capsys, case, overrides, message):
    """An override takes the type of the record's default: a string r used
    to end in a TypeError, a float shape ran a 65-point grid and failed."""
    argv = ["counterexample", "--case", case, "--param",
            f"overrides={json.dumps(overrides)}"]
    assert _error_message(argv, tmp_path, capsys) == message
    with pytest.raises(ConfigError, match=message):
        cli.run(ExperimentConfig("counterexample", out=str(tmp_path / "run"),
                                 params={"case": case, "overrides": overrides}))


@pytest.mark.parametrize("argv, message", [
    (["--case", "ex63", "--param", "indices=[1,2]"],
     "counterexample case 'ex63' never reads ['indices']"),
    (["--case", "appendixOrlicz", "--param", "indices=[1,2]"],
     "counterexample case 'appendixOrlicz' never reads ['indices']"),
    (["--case", "jac_case2", "--param", 'overrides={"shape": 8}'],
     "jac_case2 mode 'torus' never reads ['shape']")],
    ids=["ex63-indices", "appendixOrlicz-indices", "jac_case2-torus-shape"])
def test_main_witness_param_that_its_route_never_reads(tmp_path, capsys, argv,
                                                       message):
    """A parameter that the chosen route never reads is an error: these
    runs used to pass without reading it."""
    assert _error_message(["counterexample"] + argv, tmp_path,
                          capsys) == message
