#!/usr/bin/env python3
"""Time every experiment at its defaults, each run in a fresh interpreter.

Every registered experiment runs at its defaults, and so do
counterexample case=jac_case3 at k = 8, 16, 32, 64, 128, counterexample
case=appendixOrlicz, pairing seq=ex62 and quasiaffine operator=curl_matrix_n
integrand=det2 (the default counterexample run reaches neither case, the
default pairing run, ex61, never reaches ex62's radial quadratures, and the
default quasiaffine run tests divcurl_dot on divcurl2 only).  Each run is
one new python process that imports cclab from --src, calls
cclab.cli.run once and reports the wall time of that call, its peak
resident memory (ru_maxrss) and the verdict; the parent also times the
process from spawn to exit (process_s: start-up and imports included, so
an import moved into an experiment shows in both figures).  Each
experiment runs five times; the median wall and process times, the
quartiles of the walls (so that a move can be read against the spread of
its own runs) and the largest ru_maxrss are kept.  The BLAS runs on one
thread, as in bench/run.py.

The figures go into one column of a JSON file, next to the versions of
python, numpy and scipy the runs used.  Other columns of the file are kept.
With --parent-src, a second checkout is timed into the column "parent":
each experiment's parent and change runs take turns, back to back, so that
a drift in the host's load lands on both columns alike:

    python3 scripts/bench_defaults.py --src src --parent-src ../parent/src \\
        --column change --json BENCH.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 5
JAC_CASE3 = ("counterexample:jac_case3", "counterexample",
             {"case": "jac_case3", "indices": [8, 16, 32, 64, 128]})
ORLICZ_CASE = ("counterexample:appendixOrlicz", "counterexample",
               {"case": "appendixOrlicz"})
PAIRING_EX62 = ("pairing:ex62", "pairing", {"seq": "ex62"})
QUASIAFFINE_DET2 = ("quasiaffine:det2", "quasiaffine",
                    {"operator": "curl_matrix_n", "integrand": "det2"})

# One run: the child prints a JSON line {wall_s, maxrss_mb, verdict}.
CHILD = r"""
import json, resource, sys, tempfile, time
from cclab.cli import ExperimentConfig, run
experiment, params = sys.argv[1], json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as out:
    start = time.perf_counter()
    report = run(ExperimentConfig(experiment, seed=0, out=out, params=params))
    wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "maxrss_mb": rss, "verdict": report.verdict}))
"""

ENV = r"""
import json, platform, numpy, scipy
from cclab.cli import REGISTRY
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "experiments": sorted(REGISTRY)}))
"""


def _python(src, code, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure(srcs, experiment, params):
    """Run one experiment REPEATS times under each checkout of srcs, the
    checkouts taking turns and the first to run alternating: one summary per
    checkout, in the order of srcs."""
    runs = [[] for _ in srcs]
    for i in range(REPEATS):
        turns = list(zip(srcs, runs))
        for src, done in turns if i % 2 == 0 else turns[::-1]:
            start = time.perf_counter()
            run = _python(src, CHILD, experiment, json.dumps(params))
            done.append(dict(run, process_s=time.perf_counter() - start))
    return [_summary(r) for r in runs]


def _summary(runs):
    verdicts = sorted({r["verdict"] for r in runs})
    walls = [r["wall_s"] for r in runs]
    q1, _, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return {"wall_s": statistics.median(walls), "walls_s": walls,
            "wall_q1_s": q1, "wall_q3_s": q3,
            "process_s": statistics.median(r["process_s"] for r in runs),
            "maxrss_mb": max(r["maxrss_mb"] for r in runs),
            "verdict": verdicts[0] if len(verdicts) == 1 else verdicts}


def environment(src):
    """Versions of python, numpy and scipy, the machine, and the registry
    names: (env, names)."""
    env = _python(src, ENV)
    names = env.pop("experiments")
    env.update(machine=platform.machine(), cpus=os.cpu_count(),
               blas_threads=1, repeats=REPEATS)
    return env, names


def write_column(path, name, env, results):
    """Store one column in the JSON file at path, keeping its other columns."""
    column = {"env": env, "experiments": results,
              "total_wall_s": sum(r["wall_s"] for r in results.values())}
    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("columns", {})[name] = column
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return column


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src",
                        help="directory that holds the cclab package")
    parser.add_argument("--parent-src",
                        help="cclab of a second checkout, timed in turn with "
                             "--src into the column 'parent'")
    parser.add_argument("--column", default="change")
    parser.add_argument("--json", default="BENCH.json")
    args = parser.parse_args(argv)

    columns = {args.column: args.src}
    if args.parent_src:
        if args.column == "parent":
            parser.error("--column must not be 'parent' with --parent-src")
        columns = {"parent": args.parent_src, **columns}
    envs, names = {}, None
    for column, src in columns.items():
        envs[column], found = environment(src)
        # an experiment that one checkout lacks is not timed
        names = found if names is None else [n for n in names if n in found]
    results = {column: {} for column in columns}
    runs = [(n, n, {}) for n in names] + [JAC_CASE3, ORLICZ_CASE,
                                          PAIRING_EX62, QUASIAFFINE_DET2]
    for name, experiment, params in runs:
        for column, r in zip(columns, measure(list(columns.values()),
                                              experiment, params)):
            results[column][name] = r
            print(f"{name:30s} {column:8s} {str(r['verdict']):8s} "
                  f"{r['wall_s']:8.3f} s [{r['wall_q1_s']:.3f}, "
                  f"{r['wall_q3_s']:.3f}] {r['process_s']:8.3f} s "
                  f"{r['maxrss_mb']:8.1f} MB", flush=True)

    for column in columns:
        total = write_column(args.json, column, envs[column],
                             results[column])["total_wall_s"]
        print(f"total {total:.2f} s -> {args.json} [{column}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
