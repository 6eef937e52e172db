"""Benchmark of the cclab lab, run through its public entry point.

    python3 bench/run.py --workload {grid,trig,young} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; cclab is imported from its src/.
One run measures set-up in fresh probe processes, then runs whole rounds of
the workload's operations (see workloads.py) for about S seconds, at least
one.  Its last line of output is one JSON object:

- ``--trace 0``: ``wall_rel`` (median wall time of a round, divided by the
  median time of a fixed reference loop timed before every operation of the
  same run), ``setup_s`` (median probe time from process start to ready for
  the first timed call) and ``peak_rss_mb`` (peak resident memory of this
  process);
- ``--trace 1``: the per-layer metrics of tracing.METRICS, per round.

Operation outputs and the trace go to .bench_runs/<workload>/.
"""

import os

# One BLAS thread, set before NumPy loads: the load is one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE = Path(__file__).resolve().parent / "probe.py"
# The reference loop's work: interpreted arithmetic, then NumPy element-wise
# work; about 10 ms in all on a 2-CPU box.
REFERENCE_ITERATIONS = 50_000
REFERENCE_ARRAY = np.linspace(0.0, 1.0, 1 << 18)


def measure_setup():
    """Seconds from starting a fresh interpreter until it is ready for the
    first timed call, for each of SETUP_PROBES probes run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(PROBE)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(ready - start)
    return times


def reference_loop():
    """Seconds taken by fixed Python and NumPy work that does not touch
    cclab or numpy.fft.

    The host is shared, and its speed for this one-thread load drifts by tens
    of percent over minutes.  Operations and this loop slow down together,
    so a round's time over the loop's time repeats from run to run where the
    round's time alone does not."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    float(np.sum(np.sin(REFERENCE_ARRAY) * REFERENCE_ARRAY))
    return perf_counter() - start


def run_round(ops, problems, op_s, reference_s):
    """Run every operation once, each after one reference loop; return how
    many failed and which of those did not fail as their kept fault does.
    An operation's first problems, or its first unexpected ones, are kept in
    `problems`, its seconds are appended to `op_s` and the loop's to
    `reference_s`."""
    failed, unexpected = 0, []
    for op in ops:
        reference_s.append(reference_loop())
        start = perf_counter()
        found = op.run()
        op_s.setdefault(op.name, []).append(perf_counter() - start)
        if found:
            failed += 1
            problems.setdefault(op.name, found)
        if not op.expected(found):
            unexpected.append(op.name)
            problems[op.name] = found
    return failed, unexpected


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        cc = workloads.prepare()
    except ImportError as exc:
        sys.exit(f"bench: cannot import cclab from this checkout: {exc}")
    setup = measure_setup()

    out = workloads.ROOT / ".bench_runs" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workloads.operations(cc, args.workload, args.seed, out)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()

    round_s, cpu_s, problems, unexpected = [], [], {}, set()
    op_s, reference_s = {}, []
    attempted = failed = 0
    start = perf_counter()
    try:
        while True:
            t0, c0 = perf_counter(), process_time()
            n_ref = len(reference_s)
            n_failed, bad = run_round(ops, problems, op_s, reference_s)
            loops = sum(reference_s[n_ref:])
            round_s.append(perf_counter() - t0 - loops)
            cpu_s.append(process_time() - c0 - loops)
            attempted += len(ops)
            failed += n_failed
            unexpected.update(bad)
            wall = statistics.median(round_s)
            if perf_counter() - start + wall > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()

    for name, seconds in op_s.items():
        print(f"{name}: {statistics.median(seconds):.3f} s", file=sys.stderr)
    for name, found in problems.items():
        kind = "unexpectedly" if name in unexpected else "as kept"
        print(f"{name} failed {kind}: {'; '.join(found[:3])}",
              file=sys.stderr)
    print(f"rounds: {', '.join(f'{t:.3f}' for t in round_s)} s wall, "
          f"{', '.join(f'{t:.3f}' for t in cpu_s)} s cpu", file=sys.stderr)
    reference = statistics.median(reference_s)
    print(f"median round {wall:.3f} s, median reference loop "
          f"{reference * 1e3:.2f} ms over {len(reference_s)} loops",
          file=sys.stderr)
    if tracer:
        doc = {"workload": args.workload, "seed": args.seed,
               "round_s": round_s, "layers": tracer.layers}
        (out / "trace.json").write_text(json.dumps(doc, indent=1))
        metrics = tracer.metrics(len(round_s))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_rel": {"value": wall / reference, "unit": "ratio"},
                   "setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
