#!/usr/bin/env python3
"""List every seed on which a seed-dependent experiment does not pass.

Runs truncate, quasiaffine, and quasiaffine with operator=curl_matrix_n and
integrand=det2, each at its defaults over seeds 0-149 through cli.run.  Prints
one line per run that does not pass (its verdict and failed checks, or the
error of a run that raised) and a count per experiment.  Exits nonzero if
any run does not pass.

Usage:
    python3 scripts/seed_sweep.py
"""

import sys
import tempfile

from cclab.cli import ExperimentConfig, run

SEEDS = range(150)
RUNS = (("truncate", {}),
        ("quasiaffine", {}),
        ("quasiaffine", {"operator": "curl_matrix_n", "integrand": "det2"}))


def outcome(name, params, seed, out):
    """'pass', or what went wrong on this seed."""
    try:
        report = run(ExperimentConfig(experiment=name, seed=seed, out=out,
                                      params=dict(params)))
    except Exception as exc:  # a raising run is listed, not fatal
        return f"error {type(exc).__name__}: {exc}"
    failed = [f"{c.name} {c.measured:.6g} vs {c.relation} {c.bound}"
              for c in report.checks if not c.ok]
    return "; ".join([report.verdict] + failed)


def main():
    listed = 0
    with tempfile.TemporaryDirectory() as out:
        for name, params in RUNS:
            label = " ".join([name] + [f"{k}={v}" for k, v in params.items()])
            bad = 0
            for seed in SEEDS:
                result = outcome(name, params, seed, out)
                if result != "pass":
                    bad += 1
                    print(f"{label} seed {seed}: {result}", flush=True)
            print(f"{label}: {bad} of {len(SEEDS)} seeds do not pass",
                  flush=True)
            listed += bad
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main())
