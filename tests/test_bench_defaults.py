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
    results = {"check-rank": script.measure(SRC, "check-rank", {})}
    script.write_column(out, "change", env, results)
    doc = json.loads(out.read_text())
    assert doc["columns"]["parent"] == {"kept": True}
    col = doc["columns"]["change"]
    assert set(col) == {"env", "experiments", "total_wall_s"}
    assert {"python", "numpy", "scipy", "machine", "cpus", "blas_threads",
            "repeats"} <= set(col["env"])
    assert col["env"]["repeats"] == 3
    run = col["experiments"]["check-rank"]
    assert set(run) == {"wall_s", "walls_s", "maxrss_mb", "verdict"}
    assert list(col["experiments"]) == ["check-rank"]
    assert run["verdict"] == "pass" and len(run["walls_s"]) == 3
    assert 0 < run["wall_s"] <= col["total_wall_s"] and run["maxrss_mb"] > 0
