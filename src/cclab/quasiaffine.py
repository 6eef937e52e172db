"""Quasiaffine integrands, the mean test and the pairing bank.

An integrand F is quasiaffine for the operator A when its torus average over
any A-free mean-zero perturbation equals its value at the mean.  Every
integrand here is a quadratic form F(v) = sum c v_i v_j, stored as its list
of (i, j, c).  The mean test draws random band-limited A-free trig
polynomials (amplitudes projected frequency-wise onto ker A(xi), each
distinct frequency once per test through a table local to the call) and
takes the average of F exactly from the amplitudes (Parseval), building no
product polynomial, so the verdict is a genuine identity check, not a
quadrature one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbol as sym_mod
from .field import GridField, TrigPoly, _periodic_dist2, standard_bump

__all__ = [
    "Integrand",
    "PairingReport",
    "evaluate_F",
    "quasiaffine_mean_test",
    "pairing_experiment",
    "INTEGRANDS",
    "FAMILIES",
    "make_test_function",
    "fit_exponent",
    "TOL_MEAN",
]

# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Integrand:
    """Quadratic integrand F(v) = sum over form of c v_i v_j on R^dimV.

    form = ((i, j, c), ...) gives both routes: F on value arrays (..., dimV)
    sums the terms in form order, and mean(v) is the exact torus mean of F(v)
    for a vector TrigPoly v, read from its amplitudes with no product built.
    """

    name: str
    dimV: int
    form: tuple

    def __call__(self, vals):
        (i, j, c), *rest = self.form
        out = c * vals[..., i] * vals[..., j]
        for i, j, c in rest:
            out = out + c * vals[..., i] * vals[..., j]
        return out

    def mean(self, v):
        """Exact mean of F(v): sum over form of c sum_m a_m[i] a_{-m}[j]."""
        acc = 0
        for i, j, c in self.form:
            z = 0
            for m, a in v.terms.items():
                b = v.terms.get(tuple(-x for x in m))
                if b is not None:
                    z += a[i] * b[j]
            acc += c * z
        # integral over the box, then divided by its volume: the rounding of
        # trig_integral(F(v)) / vol, so seed-0 outputs keep their bits
        vol = (2 * math.pi) ** v.n
        return float(np.real(acc) * vol) / vol


INTEGRANDS = {
    # det of a 2x2 matrix field, row-major components (v11, v12, v21, v22)
    "det2": Integrand("det2", 4, ((0, 3, 1), (1, 2, -1))),
    # v . vt on R^4 = (v1, v2, vt1, vt2)
    "divcurl_dot": Integrand("divcurl_dot", 4, ((0, 2, 1), (1, 3, 1))),
    # |v|^2: the classical non-quasiaffine control
    "sqnorm4": Integrand("sqnorm4", 4, tuple((i, i, 1) for i in range(4))),
}


def evaluate_F(F, v):
    """F(v) pointwise on a grid field, as a scalar GridField."""
    if v.dimV != F.dimV:
        raise ValueError("integrand/field dimension mismatch")
    return GridField(F(v.values)[..., None], v.period)


# ---------------------------------------------------------------------------
# quasiaffinity mean test
# ---------------------------------------------------------------------------

# the mean test's perturbations: MODES conjugate pairs per trial, each at a
# frequency drawn from [-BANDLIMIT, BANDLIMIT]^n
BANDLIMIT = 3
MODES = 4
# the worst relative deviation from the mean identity that the test accepts
TOL_MEAN = 1e-8


def _random_afree_trig(sym, rng, v0, projections):
    """v0 plus a mean-zero band-limited perturbation with every amplitude in
    ker A(xi), built as one TrigPoly.

    The terms are those of pert + TrigPoly.constant(v0): the perturbation's
    modes in the order they were placed, then v0 as the zero mode.
    projections maps a frequency m to kernel_projection(sym, m); the first
    draw of m fills its entry and later draws read it.
    """
    terms = {}
    placed = 0
    while placed < MODES:
        m = tuple(int(x) for x in rng.integers(-BANDLIMIT, BANDLIMIT + 1,
                                               size=sym.n))
        if all(x == 0 for x in m):
            continue
        P = projections.get(m)
        if P is None:
            P = projections[m] = sym_mod.kernel_projection(
                sym, np.array(m, dtype=float))
        amp = rng.standard_normal(sym.dimV) + 1j * rng.standard_normal(sym.dimV)
        amp = P @ amp
        if np.max(np.abs(amp)) < 1e-12:
            continue
        neg = tuple(-x for x in m)
        terms[m] = terms.get(m, np.zeros(sym.dimV, complex)) + amp
        terms[neg] = terms.get(neg, np.zeros(sym.dimV, complex)) + np.conj(amp)
        placed += 1
    terms[(0,) * sym.n] = np.asarray(v0, dtype=complex)
    return TrigPoly(n=sym.n, dimV=sym.dimV, terms=terms)


def quasiaffine_mean_test(F, sym, trials=100, seed=0):
    """Exact mean-identity check over random A-free perturbations.

    Each trial draws v0, then a perturbation of MODES conjugate pairs (see
    _random_afree_trig), and compares the exact mean of F(v0 + pert) with
    F(v0).  A table local to this call maps each drawn frequency to its
    kernel projection, so each distinct frequency is projected once per
    test (at most (2 BANDLIMIT + 1)^n - 1 of them); no table outlives the
    call.  Returns a verdict plus per-trial records (deviation, perturbation
    L^2 mass over volume) so callers can also verify that non-quasiaffine
    integrands are rejected with the predicted margin.  A mismatched
    integrand, fewer than one trial or a non-constant-rank operator is a
    ValueError.
    """
    if F.dimV != sym.dimV:
        raise ValueError(f"integrand {F.name} acts on R^{F.dimV} but operator "
                         f"{sym.name} on R^{sym.dimV}")
    if trials < 1:
        raise ValueError(f"mean test needs trials >= 1, got {trials!r}")
    report = sym_mod.constant_rank_check(sym, samples=100)
    if not report.is_constant:
        raise ValueError("mean test requires a constant-rank operator")
    rng = np.random.default_rng(seed)
    projections = {}
    zero = (0,) * sym.n
    records = []
    worst = 0.0
    for _ in range(trials):
        v0 = rng.standard_normal(sym.dimV)
        total = _random_afree_trig(sym, rng, v0, projections)
        mean_F = F.mean(total)
        F0 = float(F(v0[None, :])[0])
        # Parseval: mean of |pert|^2 over the box
        mass = sum(float(np.sum(np.abs(a) ** 2))
                   for m, a in total.terms.items() if m != zero)
        scale = max(1.0, abs(F0), mass)
        dev = abs(mean_F - F0)
        worst = max(worst, dev / scale)
        records.append({"deviation": dev, "scale": scale, "pert_mass": mass})
    return {"verdict": ("quasiaffine-consistent" if worst <= TOL_MEAN
                        else "rejected"),
            "worst_relative_deviation": worst, "records": records}


# ---------------------------------------------------------------------------
# sequence families and test functions (pairing bank)
# ---------------------------------------------------------------------------

def _oscillation(j, drift=True):
    """Constraint-exact div-curl family on the 2-torus, on a 256^2 grid.

    v_j = (1/j + sin(j x1), 0) is curl-free, vt_j = (1 + sin(j x2), 0) is
    divergence-free; the 1/j mean drift makes the pairing decay like
    (∫ phi)/j, a well-defined -1 rate (the pure-sine product pairs with a
    smooth test below any polynomial scale).  Packed as dimV=4 for the
    div-curl operator.
    """
    def fn(x, y):
        v1 = np.sin(j * x) + (1.0 / j if drift else 0.0)
        vt1 = np.sin(j * y) + (1.0 if drift else 0.0)
        z = np.zeros_like(x)
        return np.stack([v1, z, vt1, z], axis=-1)
    return GridField.from_function(fn, (256, 256))


FAMILIES = {
    "oscillation": lambda j: _oscillation(j, drift=True),
    "oscillation_pure": lambda j: _oscillation(j, drift=False),
}


def make_test_function(name, shape=(256, 256)):
    """Registered test-function bank on the box [0, 2 pi)^2: the smooth bump
    of radius 1, the indicators of the unit ball and of the square
    [0, 1)^2, the Holder cusp 1 - r^(1/2) and the constant 1; the radial
    ones are box-centred."""
    period = (2 * math.pi, 2 * math.pi)
    midpoint = (math.pi, math.pi)

    if name == "bump":
        def fn(*grids):
            r = np.sqrt(_periodic_dist2(grids, period, midpoint))
            return standard_bump(r) / standard_bump(np.array(0.0))
    elif name == "indicator_ball":
        def fn(*grids):
            return (_periodic_dist2(grids, period, midpoint) <= 1.0).astype(float)
    elif name == "indicator_square":
        def fn(*grids):
            m = np.ones_like(grids[0], dtype=bool)
            for g in grids:
                m &= (g >= 0.0) & (g < 1.0)
            return m.astype(float)
    elif name == "cusp":
        def fn(*grids):
            r = np.sqrt(_periodic_dist2(grids, period, midpoint))
            return np.maximum(0.0, 1.0 - r ** 0.5)
    elif name == "one":
        def fn(*grids):
            return np.ones_like(grids[0])
    else:
        raise KeyError(f"unknown test function {name!r}")
    return GridField.from_function(fn, shape, period)


@dataclass(frozen=True)
class PairingReport:
    indices: tuple
    values: tuple
    exponent: float


def fit_exponent(indices, deviations):
    """Least-squares slope of log|deviation| against log j."""
    x = np.log(np.asarray(indices, dtype=float))
    y = np.log(np.maximum(np.asarray(deviations, dtype=float), 1e-300))
    A = np.stack([x, np.ones_like(x)], axis=-1)
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(coef[0])


def pairing_experiment(family, F, phi, j_list):
    """Per-index pairings ∫ F(v_j) phi dx with the fitted decay exponent of
    their distance from the limit 0; family and F are FAMILIES and
    INTEGRANDS names, phi is a scalar GridField on the family's grid."""
    values = []
    for j in j_list:
        Fv = evaluate_F(INTEGRANDS[F], FAMILIES[family](j))
        if phi.shape != Fv.shape:
            raise ValueError("test function grid does not match the family grid")
        values.append(float(np.sum(Fv.values[..., 0] * phi.values[..., 0])
                            * Fv.cell_volume))
    return PairingReport(indices=tuple(j_list), values=tuple(values),
                         exponent=fit_exponent(j_list, [abs(v) for v in values]))

