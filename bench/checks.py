"""References the benchmark computes without the program, and the checks
that compare the program's outputs with them.

Every check returns a list of problems; an empty list means the output is
correct.  Nothing here imports cclab.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

# The paper's four-scenario table: (measures, L1, Hardy) per scenario.
TABLE1 = (("(i)", "fail", "fail", "fail"),
          ("(ii)", "pass", "fail", "fail"),
          ("(iii)", "pass", "fail", "pass"),
          ("(iv)", "pass", "pass", "fail"))

_NUMPY_SCALAR = re.compile(r"np\.\w+\((.*)\)\Z")


def read_csv(path):
    """(header, rows) of a cc-lab CSV, comment lines dropped, fields as text."""
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def number(text):
    """A CSV field as a float, read through a NumPy scalar repr such as
    ``np.float64(0.5)`` so that values can be checked even where the field
    itself is malformed (``non_numeric_fields`` reports that separately)."""
    match = _NUMPY_SCALAR.match(text)
    return float(match.group(1) if match else text)


def non_numeric_fields(path):
    """Fields of an all-numeric CSV that a plain float parser rejects."""
    header, rows = read_csv(path)
    problems = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            problems.append(f"row {i} has {len(row)} fields, header has "
                            f"{len(header)}")
        for name, field in zip(header, row):
            try:
                float(field)
            except ValueError:
                problems.append(f"row {i} {name}={field!r} is not a number")
    return problems


def harmonic_pairing(k):
    """jac_case3: pi^2 * sum_{l=1}^{k} 1/(l+1), the sum taken in exact
    rationals."""
    return math.pi ** 2 * float(sum(Fraction(1, ell + 1)
                                    for ell in range(1, k + 1)))


def power_pairing(k):
    """jac_case2: pi^n k^(n - alpha - n beta1).  At the registered defaults
    n = 2, alpha = 1/2, beta = 1/2 the exponent beta1 = (beta + (n - alpha)/n)
    / 2 = 5/8, so the pairing is pi^2 k^(1/4)."""
    return math.pi ** 2 * k ** 0.25


def pairings(ks, got_ks, values, reference, rtol=1e-12):
    """The pairing at each asked-for k equals reference(k) to rtol."""
    if list(got_ks) != list(ks) or len(values) != len(ks):
        return [f"asked for k={list(ks)}, got k={list(got_ks)} with "
                f"{len(values)} pairings"]
    problems = []
    for k, value in zip(ks, values):
        ref = reference(k)
        if not abs(value - ref) <= rtol * ref:
            problems.append(f"k={k}: pairing {value!r} vs {ref!r}")
    return problems


def unit_pairings(values, atol=1e-12):
    """The concentration family ex61 pairs to exactly 1 at every index."""
    if not values:
        return ["no pairings"]
    return [f"index {i}: pairing {v!r} is not 1" for i, v in
            enumerate(values) if not abs(v - 1.0) <= atol]


def table1(rows):
    """rows: (scenario, measures, L1, hardy) per scenario, in order."""
    got = tuple(tuple(r) for r in rows)
    return [] if got == TABLE1 else [f"verdict matrix {got} != {TABLE1}"]


def identity_refinement(rows, rtol=1e-3):
    """rows: (case, grid, lhs, rhs) per Gauss level.  At the finest grid the
    surface Jacobian equals the bulk determinant to rtol, and the relative
    error |lhs - rhs| / |lhs| does not grow as the grid is refined."""
    by_case = {}
    for case, grid, lhs, rhs in rows:
        by_case.setdefault(case, []).append((grid, abs(lhs - rhs) / abs(lhs)))
    if not by_case:
        return ["no identity rows"]
    problems = []
    for case, levels in sorted(by_case.items()):
        errs = [e for _, e in sorted(levels)]
        if not errs[-1] <= rtol:
            problems.append(f"case {case}: finest relative error {errs[-1]:.3e}"
                            f" > {rtol:g}")
        if any(b > a for a, b in zip(errs, errs[1:])):
            problems.append(f"case {case}: error grows under refinement {errs}")
    return problems


def helmholtz_split(v, b, a, cell_volume, tol_recon=1e-10, tol_ortho=1e-9):
    """b + a = v and <b, a> = 0 in real space, relative to ||v||^2."""
    norm2 = float(np.sum(v * v)) * cell_volume
    recon = math.sqrt(float(np.sum((b + a - v) ** 2)) * cell_volume / norm2)
    ortho = abs(float(np.sum(b * a)) * cell_volume) / norm2
    problems = []
    if not recon <= tol_recon:
        problems.append(f"reconstruction {recon:.3e} > {tol_recon:g}")
    if not ortho <= tol_ortho:
        problems.append(f"orthogonality {ortho:.3e} > {tol_ortho:g}")
    return problems


def _relative(what, values, ref, rtol=1e-8):
    err = np.abs(np.asarray(values, dtype=float) - ref) / ref
    return [] if np.all(err <= rtol) else [
        f"{what} off by {float(np.max(err)):.3e} relative"]


def cubic_conjugate(ts, values):
    """(t^3/3)* (t) = (2/3) t^(3/2)."""
    ts = np.asarray(ts, dtype=float)
    return _relative("conjugate", values, (2.0 / 3.0) * ts ** 1.5)


def cubic(ts, values):
    """A double conjugate of t^3/3 gives t^3/3 back."""
    ts = np.asarray(ts, dtype=float)
    return _relative("double conjugate", values, ts ** 3 / 3.0)


def l2_norm(values, cell_volume, got, rtol=1e-8):
    """The Luxemburg norm for t^2 is the L^2 norm."""
    ref = float(np.linalg.norm(values.ravel())) * math.sqrt(cell_volume)
    return [] if abs(got - ref) <= rtol * ref else [
        f"Luxemburg norm {got!r} vs L2 norm {ref!r}"]


def growing(masses):
    """Truncated L log L masses increase at every level."""
    if len(masses) < 2:
        return ["fewer than two masses"]
    return [] if all(b > a for a, b in zip(masses, masses[1:])) else [
        f"masses stop growing: {masses}"]
