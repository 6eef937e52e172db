#!/usr/bin/env python3
"""Refinement study for the half-space determinant pairing identity.

For a few random smooth compactly supported fields, reports the relative
error between the surface Jacobian pairing and the bulk determinant
integral across grid / quadrature refinement levels.

Usage:
    python3 scripts/extension_convergence.py --cases 3 --seed 0
"""

import argparse

from cclab.cli import item_rng
from cclab.field import random_bandlimited
from cclab.extension import pairing_identity


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--T", type=float, default=8.0)
    args = parser.parse_args()

    levels = ((64, 16), (128, 32), (256, 64))
    print(f"{'case':>4} {'grid':>5} {'t-levels':>8} {'lhs':>14} "
          f"{'rhs':>14} {'rel error':>10}")
    for i in range(args.cases):
        for N, L in levels:
            rng = item_rng(args.seed, "extension-convergence", f"{i}:{N}")
            u = random_bandlimited(rng, (N, N), 2, cutoff=True)
            phi = random_bandlimited(rng, (N, N), 1, cutoff=True)
            rep = pairing_identity(u, phi, T=args.T, tLevels=L)
            print(f"{i:>4} {N:>5} {L:>8} {rep['lhs']:>14.6e} "
                  f"{rep['rhs']:>14.6e} {rep['relError']:>10.2e}")
        print()


if __name__ == "__main__":
    main()
