import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _script():
    spec = importlib.util.spec_from_file_location(
        "bench_defaults", ROOT / "scripts" / "bench_defaults.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_defaults_writes_one_column(tmp_path):
    script = _script()
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"columns": {"parent": {"kept": True}}}))
    env, names = script.environment(SRC)
    assert "check-rank" in names and "counterexample" in names
    results = {"check-rank": script.measure([SRC], "check-rank", {})[0]}
    script.write_column(out, "change", env, results)
    doc = json.loads(out.read_text())
    assert doc["columns"]["parent"] == {"kept": True}
    col = doc["columns"]["change"]
    assert set(col) == {"env", "experiments", "total_wall_s"}
    assert {"python", "numpy", "scipy", "machine", "cpus", "blas_threads",
            "repeats"} <= set(col["env"])
    assert col["env"]["repeats"] == 5
    run = col["experiments"]["check-rank"]
    assert set(run) == {"wall_s", "walls_s", "wall_q1_s", "wall_q3_s",
                        "process_s", "maxrss_mb", "verdict"}
    assert list(col["experiments"]) == ["check-rank"]
    assert run["verdict"] == "pass" and len(run["walls_s"]) == 5
    assert 0 < run["wall_s"] <= col["total_wall_s"] and run["maxrss_mb"] > 0
    assert run["wall_q1_s"] <= run["wall_s"] <= run["wall_q3_s"]
    walls = sorted(run["walls_s"])
    assert (run["wall_q1_s"], run["wall_q3_s"]) == (walls[1], walls[3])
    assert run["process_s"] > run["wall_s"]


def test_bench_defaults_parent_src_takes_turns(tmp_path, monkeypatch):
    script = _script()
    runs, params = [], []

    def fake_python(src, code, *args):
        if code == script.ENV:
            found = ["a", "b"] if src == "new" else ["b", "c"]
            return {"python": "3", "numpy": "2", "scipy": "1",
                    "experiments": found}
        runs.append((src, args[0]))
        params.append(json.loads(args[1]))
        return {"wall_s": 2.0 if src == "old" else 1.0, "maxrss_mb": 10.0,
                "verdict": "pass"}

    monkeypatch.setattr(script, "_python", fake_python)
    out = tmp_path / "bench.json"
    assert script.main(["--src", "new", "--parent-src", "old",
                        "--json", str(out)]) == 0
    # only the experiment both checkouts have, then jac_case3,
    # appendixOrlicz, pairing seq=ex62 and quasiaffine on det2; the side
    # that runs first alternates
    turns = [("old", "b"), ("new", "b"), ("new", "b"), ("old", "b"),
             ("old", "b"), ("new", "b"), ("new", "b"), ("old", "b"),
             ("old", "b"), ("new", "b")]
    assert runs == (turns + [(src, "counterexample") for src, _ in turns] * 2
                    + [(src, "pairing") for src, _ in turns]
                    + [(src, "quasiaffine") for src, _ in turns])
    assert params[-20:] == ([{"seq": "ex62"}] * 10
                            + [{"operator": "curl_matrix_n",
                                "integrand": "det2"}] * 10)
    columns = json.loads(out.read_text())["columns"]
    assert set(columns) == {"parent", "change"}
    for name, wall in (("parent", 2.0), ("change", 1.0)):
        col = columns[name]
        assert set(col["experiments"]) == {"b", "counterexample:jac_case3",
                                           "counterexample:appendixOrlicz",
                                           "pairing:ex62",
                                           "quasiaffine:det2"}
        assert col["experiments"]["b"]["walls_s"] == [wall] * 5
        assert col["experiments"]["b"]["wall_q1_s"] == wall
        assert col["experiments"]["b"]["wall_q3_s"] == wall
        assert col["total_wall_s"] == 5 * wall


def test_bench_defaults_summary_keeps_the_wall_quartiles():
    """Five walls: the median is the third, the quartiles the second and
    the fourth (inclusive method), whatever order the runs came in."""
    runs = [{"wall_s": w, "process_s": w + 1.0, "maxrss_mb": m,
             "verdict": "pass"}
            for w, m in ((5.0, 1.0), (1.0, 3.0), (4.0, 2.0), (2.0, 1.0),
                         (3.0, 1.0))]
    got = _script()._summary(runs)
    assert got["walls_s"] == [5.0, 1.0, 4.0, 2.0, 3.0]
    assert (got["wall_q1_s"], got["wall_s"], got["wall_q3_s"]) == (2.0, 3.0,
                                                                   4.0)
    assert got["process_s"] == 4.0 and got["maxrss_mb"] == 3.0
    assert got["verdict"] == "pass"
