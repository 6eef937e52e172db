#!/usr/bin/env python3
"""Sweep the truncation level lambda and report the measured constants.

For each lambda: bad-set volume fraction, the measured W^{1,infty} bound
of the truncation relative to lambda, and the level-set volume constant.

Usage:
    python3 scripts/truncation_sweep.py --n 2 --shape 128 --cases 5
"""

import argparse
import math

import numpy as np

from cclab.cli import item_rng
from cclab.truncate import lipschitz_truncations, truncation_case


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2, choices=(1, 2))
    parser.add_argument("--shape", type=int, default=128)
    parser.add_argument("--cases", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lambdas", type=float, nargs="*",
                        default=(0.5, 1.0, 2.0, 5.0, 10.0, 50.0))
    args = parser.parse_args()

    # one sweep per case: each field's maximal function is built once
    by_lam = [([], [], []) for _ in args.lambdas]  # fracs, bounds, vols
    for i in range(args.cases):
        rng = item_rng(args.seed, f"truncate-sweep-{args.n}d", i)
        v = truncation_case(rng, args.shape, args.n)
        sweep = lipschitz_truncations(v, args.lambdas, k=1)
        for (fracs, bounds, vols), res in zip(by_lam, sweep):
            if res.truncated is None:
                continue  # bad set covered the box at this level
            fracs.append(float(np.mean(res.badSet)))
            bounds.append(res.measuredDerivBound)
            if math.isfinite(res.measuredVolumeConstant):
                vols.append(res.measuredVolumeConstant)

    print(f"{'lambda':>8} {'bad frac':>9} {'deriv bound':>12} "
          f"{'volume const':>13}")
    for lam, (fracs, bounds, vols) in zip(args.lambdas, by_lam):
        if not bounds:
            print(f"{lam:>8.2f}   (trivial at this level for all cases)")
            continue
        vol = max(vols) if vols else float("nan")
        print(f"{lam:>8.2f} {max(fracs):>9.4f} {max(bounds):>12.3f} "
              f"{vol:>13.4f}")


if __name__ == "__main__":
    main()
