"""Quasiaffine integrands, the mean test and the pairing bank.

An integrand F is quasiaffine for the operator A when its torus average over
any A-free mean-zero perturbation equals its value at the mean.  The mean
test draws random band-limited A-free trig polynomials (amplitudes projected
frequency-wise onto ker A(xi)) and evaluates the average exactly by sparse
trig arithmetic, so the verdict is a genuine identity check, not a quadrature
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symbol as sym_mod
from .field import (GridField, TrigPoly, standard_bump, trig_dot,
                    trig_integral, trig_product)

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
    """Polynomial integrand F: R^dimV -> R with homogeneity degree s.

    grid_eval acts on value arrays (..., dimV); trig_eval (optional) maps a
    vector TrigPoly to the exact scalar TrigPoly F(v).
    """

    name: str
    s: int
    dimV: int
    grid_eval: object
    trig_eval: object = None

    def __call__(self, v):
        return evaluate_F(self, v)


def _det2_grid(vals):
    return vals[..., 0] * vals[..., 3] - vals[..., 1] * vals[..., 2]


def _det2_trig(v):
    return (trig_product(v.component(0), v.component(3))
            - trig_product(v.component(1), v.component(2)))


def _dot_grid(vals):
    return vals[..., 0] * vals[..., 2] + vals[..., 1] * vals[..., 3]


def _dot_trig(v):
    return (trig_product(v.component(0), v.component(2))
            + trig_product(v.component(1), v.component(3)))


def _sq_grid(vals):
    return np.sum(vals**2, axis=-1)


def _sq_trig(v):
    return trig_dot(v, v)


INTEGRANDS = {
    # det of a 2x2 matrix field, row-major components (v11, v12, v21, v22)
    "det2": Integrand(name="det2", s=2, dimV=4, grid_eval=_det2_grid,
                      trig_eval=_det2_trig),
    # v . vt on R^4 = (v1, v2, vt1, vt2)
    "divcurl_dot": Integrand(name="divcurl_dot", s=2, dimV=4,
                             grid_eval=_dot_grid, trig_eval=_dot_trig),
    # |v|^2: the classical non-quasiaffine control
    "sqnorm4": Integrand(name="sqnorm4", s=2, dimV=4, grid_eval=_sq_grid,
                         trig_eval=_sq_trig),
}


def evaluate_F(F, v):
    """F(v): pointwise on grids, exact sparse arithmetic on TrigPoly."""
    if isinstance(v, GridField):
        if v.dimV != F.dimV:
            raise ValueError("integrand/field dimension mismatch")
        return GridField(F.grid_eval(v.values)[..., None], v.period)
    if isinstance(v, TrigPoly):
        if F.trig_eval is None:
            raise TypeError(f"integrand {F.name} has no exact trig route")
        if v.dimV != F.dimV:
            raise ValueError("integrand/field dimension mismatch")
        return F.trig_eval(v)
    raise TypeError("expected GridField or TrigPoly")


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
        vol = total.period**sym.n
        mean_F = float(trig_integral(evaluate_F(F, total))[0]) / vol
        F0 = float(np.asarray(F.grid_eval(v0[None, :]))[0])
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
                       center=None, radius=1.0, alpha=0.5, corner=(0.0, 0.0),
                       side=1.0):
    """Registered test-function bank: smooth bumps, grid-aligned indicators,
    Holder cusps, and the constant 1."""
    period = tuple(period)
    center = center if center is not None else [p / 2 for p in period]

    def dist2(grids):
        d2 = 0.0
        for g, c, p in zip(grids, center, period):
            d = np.abs(g - c)
            d = np.minimum(d, p - d)
            d2 = d2 + d**2
        return d2

    if name == "bump":
        def fn(*grids):
            r = np.sqrt(dist2(grids)) / radius
            return standard_bump(r) / standard_bump(np.array(0.0))
    elif name == "indicator_ball":
        def fn(*grids):
            return (dist2(grids) <= radius**2).astype(float)
    elif name == "indicator_square":
        def fn(*grids):
            m = np.ones_like(grids[0], dtype=bool)
            for g, c in zip(grids, corner):
                m &= (g >= c) & (g < c + side)
            return m.astype(float)
    elif name == "cusp":
        def fn(*grids):
            r = np.sqrt(dist2(grids))
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

    family: registered name or callable j -> field (GridField or TrigPoly);
    phi: scalar GridField (rendered on the same grid) or TrigPoly.
    """
    if isinstance(family, str):
        family = FAMILIES[family]
    if isinstance(F, str):
        F = INTEGRANDS[F]
    values = []
    for j in j_list:
        vj = family(j, **family_kwargs)
        Fv = evaluate_F(F, vj)
        if isinstance(Fv, TrigPoly):
            if not isinstance(phi, TrigPoly):
                raise TypeError("TrigPoly family needs a TrigPoly test function")
            values.append(float(trig_integral(trig_product(Fv, phi))[0]))
        else:
            if isinstance(phi, TrigPoly):
                phi_g = phi.render(Fv.shape)
            else:
                phi_g = phi
            if phi_g.shape != Fv.shape:
                raise ValueError("test function grid does not match the family grid")
            values.append(float(np.sum(Fv.values[..., 0] * phi_g.values[..., 0])
                                * Fv.cell_volume))
    devs = [abs(v - limit) for v in values]
    expo, resid = fit_exponent(j_list, devs)
    return PairingReport(indices=tuple(j_list), values=tuple(values),
                         test_id=test_id, limit=limit, exponent=expo,
                         fit_residual=resid)

