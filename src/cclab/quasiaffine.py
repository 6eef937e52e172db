"""Quasiaffine integrands, the mean test and the pairing bank.

An integrand F is quasiaffine for the operator A when its torus average over
any A-free mean-zero perturbation equals its value at the mean.  Every
integrand here is a quadratic form F(v) = sum c v_i v_j, stored as its list
of (i, j, c).  The mean test draws random band-limited A-free trig
polynomials (amplitudes projected frequency-wise onto ker A(xi)) and takes
the average of F exactly from the amplitudes (Parseval), building no product
polynomial, so the verdict is a genuine identity check, not a quadrature one.
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
        vol = v.period**v.n
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

def _random_afree_trig(sym, rng, bandlimit=3, modes=4):
    """Mean-zero band-limited TrigPoly with every amplitude in ker A(xi)."""
    terms = {}
    placed = 0
    while placed < modes:
        m = tuple(int(x) for x in rng.integers(-bandlimit, bandlimit + 1, size=sym.n))
        if all(x == 0 for x in m):
            continue
        P = sym_mod.kernel_projection(sym, np.array(m, dtype=float))
        amp = rng.standard_normal(sym.dimV) + 1j * rng.standard_normal(sym.dimV)
        amp = P @ amp
        if np.max(np.abs(amp)) < 1e-12:
            continue
        neg = tuple(-x for x in m)
        terms[m] = terms.get(m, np.zeros(sym.dimV, complex)) + amp
        terms[neg] = terms.get(neg, np.zeros(sym.dimV, complex)) + np.conj(amp)
        placed += 1
    return TrigPoly(n=sym.n, dimV=sym.dimV, terms=terms)


def quasiaffine_mean_test(F, sym, trials=100, bandlimit=3, seed=0, tol=1e-8):
    """Exact mean-identity check over random A-free perturbations.

    Returns a verdict plus per-trial records (deviation, perturbation L^2 mass
    over volume) so callers can also verify that non-quasiaffine integrands
    are rejected with the predicted margin.
    """
    if F.dimV != sym.dimV:
        raise ValueError(f"integrand {F.name} acts on R^{F.dimV} but operator "
                         f"{sym.name} on R^{sym.dimV}")
    report = sym_mod.constant_rank_check(sym, samples=100)
    if not report.is_constant:
        raise ValueError("mean test requires a constant-rank operator")
    rng = np.random.default_rng(seed)
    records = []
    worst = 0.0
    for _ in range(trials):
        v0 = rng.standard_normal(sym.dimV)
        pert = _random_afree_trig(sym, rng, bandlimit=bandlimit)
        total = pert + TrigPoly.constant(sym.n, v0, dimV=sym.dimV)
        mean_F = F.mean(total)
        F0 = float(F(v0[None, :])[0])
        # Parseval: mean of |pert|^2 over the box
        mass = sum(float(np.sum(np.abs(a) ** 2)) for a in pert.terms.values())
        scale = max(1.0, abs(F0), mass)
        dev = abs(mean_F - F0)
        worst = max(worst, dev / scale)
        records.append({"deviation": dev, "scale": scale, "pert_mass": mass})
    return {"verdict": "quasiaffine-consistent" if worst <= tol else "rejected",
            "worst_relative_deviation": worst, "records": records}


# ---------------------------------------------------------------------------
# sequence families and test functions (pairing bank)
# ---------------------------------------------------------------------------

def _oscillation(j, shape=(256, 256), drift=True):
    """Constraint-exact div-curl family on the 2-torus.

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
    return GridField.from_function(fn, shape)


FAMILIES = {
    "oscillation": lambda j, **kw: _oscillation(j, drift=True, **kw),
    "oscillation_pure": lambda j, **kw: _oscillation(j, drift=False, **kw),
}


def make_test_function(name, shape=(256, 256), period=(2 * math.pi, 2 * math.pi),
                       radius=1.0, alpha=0.5, corner=(0.0, 0.0), side=1.0):
    """Registered test-function bank: smooth bumps, grid-aligned indicators,
    Holder cusps, and the constant 1; the radial ones are box-centred."""
    period = tuple(period)
    midpoint = tuple(p / 2 for p in period)

    if name == "bump":
        def fn(*grids):
            r = np.sqrt(_periodic_dist2(grids, period, midpoint)) / radius
            return standard_bump(r) / standard_bump(np.array(0.0))
    elif name == "indicator_ball":
        def fn(*grids):
            return (_periodic_dist2(grids, period, midpoint) <= radius**2).astype(float)
    elif name == "indicator_square":
        def fn(*grids):
            m = np.ones_like(grids[0], dtype=bool)
            for g, c in zip(grids, corner):
                m &= (g >= c) & (g < c + side)
            return m.astype(float)
    elif name == "cusp":
        def fn(*grids):
            r = np.sqrt(_periodic_dist2(grids, period, midpoint))
            return np.maximum(0.0, 1.0 - (r / radius) ** alpha)
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
    test_id: str
    limit: float
    exponent: float
    fit_residual: float


def fit_exponent(indices, deviations):
    """Least-squares slope of log|deviation| against log j."""
    x = np.log(np.asarray(indices, dtype=float))
    y = np.log(np.maximum(np.asarray(deviations, dtype=float), 1e-300))
    A = np.stack([x, np.ones_like(x)], axis=-1)
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - y) ** 2)))
    return float(coef[0]), resid


def pairing_experiment(family, F, phi, j_list, limit=0.0, test_id="",
                       **family_kwargs):
    """Per-index pairings ∫ F(v_j) phi dx with a fitted decay exponent.

    family: registered name or callable j -> GridField; phi: scalar
    GridField on the same grid.
    """
    if isinstance(family, str):
        family = FAMILIES[family]
    if isinstance(F, str):
        F = INTEGRANDS[F]
    values = []
    for j in j_list:
        Fv = evaluate_F(F, family(j, **family_kwargs))
        if phi.shape != Fv.shape:
            raise ValueError("test function grid does not match the family grid")
        values.append(float(np.sum(Fv.values[..., 0] * phi.values[..., 0])
                            * Fv.cell_volume))
    devs = [abs(v - limit) for v in values]
    expo, resid = fit_exponent(j_list, devs)
    return PairingReport(indices=tuple(j_list), values=tuple(values),
                         test_id=test_id, limit=limit, exponent=expo,
                         fit_residual=resid)

