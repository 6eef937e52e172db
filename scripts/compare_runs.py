#!/usr/bin/env python3
"""Compare two output trees of scripts/run_all_experiments.py.

For each CSV, prints "identical" when the bytes agree and otherwise, per
changed column, the max relative difference |a-b|/max(|a|,|b|) and beside
it the max absolute difference |a-b| (both inf where text cells differ), so
that a round-off column can be judged by its absolute size.  Each report.json is compared the same way, leaf by
leaf, after dropping `timestamp`, `wall_clock` and `config.out`, which
differ between any two runs.  Exits 1 when a file is missing from one side
or any difference exceeds 1e-12, and also when either argument is not a
directory or the two trees hold no file to compare: a comparison of
nothing proves nothing.

Usage:
    python3 scripts/compare_runs.py results_before results_after
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

TOLERANCE = 1e-12


def rel_diff(a, b):
    """Relative difference of two cells or JSON leaves (inf if incomparable)."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    if isinstance(a, bool) or isinstance(b, bool):
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def diff(a, b):
    """(relative, absolute) difference of two cells or JSON leaves; both are
    0 where rel_diff is 0 and inf where it is inf."""
    rel = rel_diff(a, b)
    return rel, rel if rel in (0.0, math.inf) else abs(float(a) - float(b))


def _split_csv(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    rows = list(csv.reader(io.StringIO(body)))
    return comments, rows


def compare_csv(text_a, text_b):
    """{column: (max relative, max absolute difference)} over the columns
    that changed."""
    comments_a, rows_a = _split_csv(text_a)
    comments_b, rows_b = _split_csv(text_b)
    if comments_a != comments_b or not rows_a or not rows_b \
            or rows_a[0] != rows_b[0]:
        return {"<header>": (math.inf, math.inf)}
    if len(rows_a) != len(rows_b):
        return {"<row count>": (math.inf, math.inf)}
    diffs = {}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            diffs["<row length>"] = (math.inf, math.inf)
            continue
        for name, a, b in zip(rows_a[0], ra, rb):
            if a != b:
                diffs[name] = tuple(map(max, diffs.get(name, (0.0, 0.0)),
                                        diff(a, b)))
    return diffs


def _leaves(doc, path=""):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, doc


def compare_report(doc_a, doc_b):
    """{leaf path: (relative, absolute difference)} over the report leaves
    that changed."""
    for doc in (doc_a, doc_b):
        doc.pop("timestamp", None)
        doc.pop("wall_clock", None)
        doc.get("config", {}).pop("out", None)
    leaves_a, leaves_b = dict(_leaves(doc_a)), dict(_leaves(doc_b))
    diffs = {}
    for key in sorted(set(leaves_a) | set(leaves_b)):
        if key not in leaves_a or key not in leaves_b:
            diffs[key] = (math.inf, math.inf)
        elif leaves_a[key] != leaves_b[key]:
            diffs[key] = diff(leaves_a[key], leaves_b[key])
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"{root}: not a directory")
            return 1
    names = sorted({p.relative_to(root).as_posix()
                    for root in (args.a, args.b)
                    for pattern in ("*.csv", "report.json")
                    for p in root.rglob(pattern)})
    if not names:
        print(f"no CSV or report.json under {args.a} or {args.b}")
        return 1
    worst = 0.0
    for name in names:
        pa, pb = args.a / name, args.b / name
        if not (pa.is_file() and pb.is_file()):
            print(f"{name}: only in {args.a if pa.is_file() else args.b}")
            worst = math.inf
            continue
        if name.endswith(".csv"):
            text_a, text_b = pa.read_text(), pb.read_text()
            diffs = {} if text_a == text_b else compare_csv(text_a, text_b)
        else:
            diffs = compare_report(json.loads(pa.read_text()),
                                   json.loads(pb.read_text()))
        if not diffs:
            print(f"{name}: identical" if name.endswith(".json")
                  or text_a == text_b else f"{name}: cells equal, bytes differ")
        for key, (rel, absolute) in diffs.items():
            print(f"{name}: {key} max rel diff {rel:.3e}, "
                  f"max abs diff {absolute:.3e}")
            worst = max(worst, rel)
    verdict = "within" if worst <= TOLERANCE else "exceeds"
    print(f"{len(names)} files, max rel diff {worst:.3e} ({verdict} {TOLERANCE:g})")
    return 0 if worst <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
