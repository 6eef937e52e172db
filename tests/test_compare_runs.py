import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _PATH)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

CSV = "# seed=0\n# column k tag=exact\n# column v tag=measured\nk,v\n1,{v}\n2,x\n"


def _tree(root, value, stamp, wall):
    (root / "exp").mkdir(parents=True)
    (root / "exp" / "t.csv").write_text(CSV.format(v=value))
    (root / "exp" / "report.json").write_text(json.dumps(
        {"config": {"out": str(root)}, "results": {"v": [float(value)]},
         "timestamp": stamp, "wall_clock": wall}))


@pytest.mark.parametrize("after, code, line", [
    ("0.5", 0, "exp/t.csv: identical"),
    ("0.5000000000000001", 0,
     "exp/t.csv: v max rel diff 2.220e-16, max abs diff 1.110e-16"),
    ("0.5001", 1, "exp/report.json: results.v[0] max rel diff 2.000e-04, "
                  "max abs diff 1.000e-04"),
    ("1e-300", 1, "exp/t.csv: v max rel diff 1.000e+00, "
                  "max abs diff 5.000e-01"),
])
def test_compare_runs(tmp_path, capsys, after, code, line):
    _tree(tmp_path / "a", "0.5", "2020-01-01T00:00:00", 1.0)
    _tree(tmp_path / "b", after, "2021-01-01T00:00:00", 2.0)
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == code
    assert line in capsys.readouterr().out.splitlines()


def test_compare_runs_missing_file(tmp_path, capsys):
    _tree(tmp_path / "a", "0.5", "t", 1.0)
    _tree(tmp_path / "b", "0.5", "t", 1.0)
    (tmp_path / "b" / "exp" / "t.csv").unlink()
    assert compare_runs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert f"exp/t.csv: only in {tmp_path / 'a'}" in capsys.readouterr().out


def test_compare_runs_compared_nothing(tmp_path, capsys):
    """A missing tree or two trees without outputs compare nothing: exit 1."""
    tree, missing = tmp_path / "a", tmp_path / "nosuchdir"
    _tree(tree, "0.5", "t", 1.0)
    for argv in ([missing, tree], [tree, missing]):
        assert compare_runs.main([str(a) for a in argv]) == 1
        assert capsys.readouterr().out == f"{missing}: not a directory\n"
    empty, empty2 = tmp_path / "empty", tmp_path / "empty2"
    empty.mkdir()
    empty2.mkdir()
    assert compare_runs.main([str(empty), str(empty2)]) == 1
    assert capsys.readouterr().out == (
        f"no CSV or report.json under {empty} or {empty2}\n")


def test_diff_pairs_relative_with_absolute():
    """A round-off column: tiny in absolute terms, large relative to cells
    near 0; text cells and a bool are incomparable in both."""
    assert compare_runs.diff(1e-17, 0.0) == (1.0, 1e-17)
    assert compare_runs.diff("nan", "nan") == (0.0, 0.0)
    assert compare_runs.diff("x", "y") == (float("inf"), float("inf"))
    assert compare_runs.diff(True, False) == (float("inf"), float("inf"))
    assert compare_runs.diff(2.0, 1.0) == (0.5, 1.0)


def test_rel_diff_text_and_nan():
    assert compare_runs.rel_diff("x", "y") == float("inf")
    assert compare_runs.rel_diff("nan", "nan") == 0.0
    assert compare_runs.rel_diff(True, False) == float("inf")
    assert compare_runs.rel_diff(2.0, 1.0) == 0.5
