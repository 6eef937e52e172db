"""Sharpness constructions: concentration, sign-cancelling oscillation,
borderline-integrability fields, and the three Jacobian-pairing growth cases.

Each family is one `Witness` record in `WITNESSES`: its defaults, rules and
routes, its default indices, a generator (``make_sequence``), a runner
(``run_case``) and a gate that turns the runner's report into checks and a
table.  Verdicts are measured under the declared margins: "converges" when
the last-half deviation from the limit stays within 5% of the sequence
scale, "fails" at 50% or on monotone escape, anything between is reported
"inconclusive" (and treated as a loud failure by callers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .field import (GridField, TrigPoly, bump_at, jacobian, mollify,
                    standard_bump, trig_pair, trig_product)
from .norms import (YoungFunction, local_hardy_norms, besov_block_sums,
                    besov_sup, dominates)
from .params import Check, checked_params, needs, real
from .quasiaffine import fit_exponent

__all__ = ["SequenceSpec", "Table1Row", "Witness", "make_spec",
           "make_sequence", "run_case", "table1", "case3_norm_audit",
           "sequence_verdict", "truncated_llogl_masses", "llogl_divergent",
           "harmonic_tail_sum", "WITNESSES", "CASES", "LLOGL_LEVELS",
           "EXACT_TOL"]

# truncation levels M of the L log L masses (ex63 and the appendix pair)
LLOGL_LEVELS = (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
# relative error allowed against an exact target (a unit mass, a closed form)
EXACT_TOL = 1e-12
# sequence_verdict's declared margins, as fractions of the sequence scale
TOL_PASS, TOL_FAIL = 0.05, 0.5


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceSpec:
    case: str
    params: dict


@dataclass(frozen=True)
class Table1Row:
    scenario: str
    verdictM: str
    verdictL1: str
    verdictH1: str
    diagnostics: dict

    @property
    def pattern(self):
        mark = {"converges": "pass", "fails": "fail",
                "inconclusive": "inconclusive"}
        return tuple(mark[v] for v in
                     (self.verdictM, self.verdictL1, self.verdictH1))


@dataclass(frozen=True)
class Witness:
    """One 2D witness family: make_spec checks overrides of `defaults` by
    `rules` and `routes`; make_sequence(spec, index) is `build`; run_case(
    spec, indices) is `run` at the indices or `indices` (None: no index);
    gate(spec, report) gives its Checks and the CSV table; `pairings`
    reports only what the gate reads."""
    anchor: str
    defaults: dict
    build: Callable
    run: Callable
    gate: Callable
    indices: tuple | None = None
    rules: tuple = ()
    pairings: Callable | None = None
    routes: dict = field(default_factory=dict)


def make_spec(case, **overrides):
    if case not in WITNESSES:
        raise KeyError(f"unknown case {case!r} (choose from {CASES})")
    w = WITNESSES[case]
    return SequenceSpec(case, checked_params(case, w.defaults, overrides,
                                             w.rules, w.routes))


def _case1_room(p):
    return 2 / p["p"] - p["beta"] - p["alpha"] / 2


def _case1_gamma(p):
    return p["gamma"] if p["gamma"] is not None else _case1_room(p) / 2.0


def _case2_beta1(p):
    return p["beta1"] if p["beta1"] is not None else (
        p["beta"] + ((2 - p["alpha"]) / 2 - p["beta"]) / 2.0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _centered_axes(shape, period):
    """Coordinates relative to the box midpoint (construction origin)."""
    x = np.arange(shape) * (period / shape) - period / 2.0
    return np.meshgrid(x, x, indexing="ij")


def _ex61_fields(spec, j):
    p = spec.params
    N, period = p["shape"], p["period"]
    h = period / N
    side = 1.0 / j
    X, Y = _centered_axes(N, period)
    ind = ((X >= -h / 4) & (X < side - h / 4)
           & (Y >= -h / 4) & (Y < side - h / 4)).astype(float)
    # half-open square anchored at the box midpoint; the h/4 shift makes the
    # membership test robust to roundoff while keeping cell counts exact
    e = np.asarray(p["e"], dtype=float)
    vals = j * ind[..., None] * e[None, None, :]
    v = GridField(vals, (period, period))
    return {"v": v, "vtilde": v, "F": GridField((j * ind * j * ind
                                                 * float(e @ e))[..., None],
                                                (period, period))}


def _ex62_side(j, r, e):
    """One side of ex62's signed radial profile, e j (2r)^{2ej} / r^2, with
    e = 1 inside r = 1/2 and e = -1 outside; r is an array or one float."""
    return e * j * np.exp(e * 2 * j * np.log(2 * r)) / (r * r)


def _ex62_radial_F(j, r):
    """Signed radial profile of the dot product on the radius array r:
    + inside r=1/2, - outside, 0 at r = 0."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inner = (r > 0) & (r <= 0.5)
    outer = r > 0.5
    with np.errstate(divide="ignore"):
        out[inner] = _ex62_side(j, r[inner], 1)
        out[outer] = _ex62_side(j, r[outer], -1)
    return out


def _ex62_radial_F_at(j, r):
    """_ex62_radial_F at one float r, with its bits, picking the side by a
    plain if (the quadratures call it once per node)."""
    if r > 0.5:
        return _ex62_side(j, r, -1)
    return _ex62_side(j, r, 1) if r > 0 else 0.0


def _ex62_polar(spec):
    """Z = X + iY about the box midpoint, and r = |Z|, on the ex62 grid."""
    p = spec.params
    X, Y = _centered_axes(p["shape"], p["period"])
    Z = X + 1j * Y
    return Z, np.abs(Z)


def _ex62_F(spec, j, r):
    """The ex62 density F = v . vtilde sampled on the radius grid r."""
    period = spec.params["period"]
    return GridField(_ex62_radial_F(j, r)[..., None], (period, period))


def _ex62_fields(spec, j):
    """Glued harmonic pair: v is exactly divergence-free, vtilde exactly
    curl-free, and F = v . vtilde carries cancelling +/- masses of size pi
    concentrating on the circle r = 1/2."""
    period = spec.params["period"]
    Z, r = _ex62_polar(spec)
    inner = r < 0.5
    c = j ** -0.5 * 2.0**j
    grad_in = np.zeros(Z.shape + (2,))
    W = c * j * np.where(inner, Z, 0.0) ** max(j - 1, 0)
    grad_in[..., 0] = np.imag(W)
    grad_in[..., 1] = np.real(W)
    Zsafe = np.where(inner, 1.0, Z)
    Wout = (c * 0.25**j * j) * Zsafe ** -(j + 1)
    grad_out = np.zeros(Z.shape + (2,))
    grad_out[..., 0] = np.where(inner, 0.0, np.imag(Wout))
    grad_out[..., 1] = np.where(inner, 0.0, np.real(Wout))
    v = np.where(inner[..., None], grad_in, grad_out)          # sign-flipped
    vtilde = np.where(inner[..., None], grad_in, -grad_out)    # gradient
    return {"v": GridField(v, (period, period)),
            "vtilde": GridField(vtilde, (period, period)),
            "F": _ex62_F(spec, j, r)}


def ex63_profile(spec):
    """1D profile w(t) = t^{-1/r} log(1+1/t)^{-(beta+1+gamma)/r} on (0,1).

    w and F take one float in and are 0 off (0,1); NumPy's ufuncs, unlike
    math's, give them the bits of NumPy's array loops."""
    p = spec.params
    r, beta, gamma = p["r"], p["beta"], p["gamma"]
    ex = (beta + 1.0 + gamma) / r

    def w(t):
        if not 0 < t < 1:
            return 0.0
        return (np.power(t, -1.0 / r)
                * np.power(np.log1p(1.0 / max(t, 1e-300)), -ex))

    def F(t):
        if not 0 < t < 1:
            return 0.0
        wt = w(t)
        psi = np.power(wt, r) * np.power(np.log1p(wt), beta)
        return wt * np.sqrt(psi)

    return {"w": w, "F": F, "r": r, "beta": beta}


def _jac1_bump_bank():
    """Divergence-form field g = (y2 b, b): det(Dg) = -d1(b^2/2), so the
    Jacobian has zero mass and first moment a1 = ||b||_2^2 / 2 > 0."""
    def b(Y1, Y2):
        r2 = Y1**2 + Y2**2
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    def g(Y1, Y2):
        bb = b(Y1, Y2)
        return np.stack([Y2 * bb, bb], axis=-1)

    return {"b": b, "g": g}


def _case1_fields(spec, k):
    p = spec.params
    alpha = p["alpha"]
    gamma = _case1_gamma(p)
    N = p["shape"]
    period = 2.0
    X, Y = _centered_axes(N, period)
    bank = _jac1_bump_bank()
    eps = 1.0 / k
    g_eps = eps ** (-1.0 / 2) * bank["g"](X / eps, Y / eps)
    u = k ** ((alpha - 1.0) / 2 + gamma) * g_eps
    # test function: mollified one-sided power x1^alpha times a plateau bump
    plateau = np.zeros_like(X)
    r2 = X**2 + Y**2
    inside = r2 < (0.9) ** 2
    plateau[inside] = np.exp(1.0) * np.exp(-1.0 / (1.0 - r2[inside] / 0.81))
    phi_raw = np.where(X >= 0, np.power(np.maximum(X, 0.0), alpha), 0.0) * plateau
    phi = mollify(GridField(phi_raw[..., None], (period, period)), max(eps, 4.0 / N))
    return {"u": GridField(u, (period, period)), "phi": phi,
            "gamma": gamma, "eps": eps}


def _case2_torus(spec, k):
    p = spec.params
    beta1, alpha = _case2_beta1(p), p["alpha"]
    u1 = TrigPoly.wave(2, (k, 0), "sin", k ** -beta1)
    u2 = TrigPoly.wave(2, (0, k), "cos", -(k ** -beta1))
    phi = trig_product(TrigPoly.wave(2, (0, k), "sin", k ** -alpha),
                       TrigPoly.wave(2, (k, 0), "cos"))
    return {"u1": u1, "u2": u2, "phi": phi, "beta1": beta1}


def _smooth_step(r, r0, r1):
    """C-infinity transition 1 -> 0 over (r0, r1)."""
    t = np.clip((np.asarray(r, dtype=float) - r0) / (r1 - r0), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        bb = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return bb / (a + bb)


def _case2_grid(spec, k):
    p = spec.params
    beta1, alpha = _case2_beta1(p), p["alpha"]
    N = p["shape"]
    period = 2 * math.pi
    x = np.arange(N) * (period / N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(X - math.pi, Y - math.pi)
    cutoff = _smooth_step(r, 1.0, 2.0)
    u = np.stack([k ** -beta1 * np.sin(k * X),
                  -(k ** -beta1) * np.cos(k * Y) * cutoff], axis=-1)
    phi = k ** -alpha * np.sin(k * Y) * np.cos(k * X)
    return {"u": GridField(u, (period, period)),
            "phi": GridField(phi[..., None], (period, period)),
            "beta1": beta1}


def case3_frequencies(spec, k):
    """Exact integer frequencies n_l = k^(n^2/alpha) * 8^l, n = 2 (ints)."""
    exponent = 2 * 2 / spec.params["alpha"]
    if abs(exponent - round(exponent)) > 1e-12:
        base = int(math.ceil(k ** exponent))
    else:
        base = k ** int(round(exponent))
    return [base * 8**ell for ell in range(1, k + 1)]


def _case3_trigs(spec, k):
    alpha = spec.params["alpha"]
    freqs = case3_frequencies(spec, k)
    # the layer index ell runs 1..k, so the weight is (ell+1)^{-1/n}, n = 2
    amps = [float(f) ** (-(2 - alpha) / 2) * (ell + 1.0) ** (-1.0 / 2)
            for ell, f in zip(range(1, k + 1), freqs)]
    # the layers have pairwise disjoint frequencies, so each sum is the
    # layers' keys and amplitudes one after another
    layers = [(TrigPoly.wave(2, (f, 0), "sin", a),
               TrigPoly.wave(2, (0, f), "cos", -a),
               trig_product(TrigPoly.wave(2, (0, f), "sin", float(f) ** (-alpha)),
                            TrigPoly.wave(2, (f, 0), "cos")))
              for f, a in zip(freqs, amps)]
    u1, u2, phi = map(TrigPoly.concat, zip(*layers))
    return {"u1": u1, "u2": u2, "phi": phi, "freqs": freqs}


def _orlicz_fields(spec):
    """The appendix pair g(t) t = phi^{-1}(psi(t)), phi = t^2 and psi =
    t^2 log(1+t): f, ftilde and F take one float in and are 0 off (0,1)."""
    c = spec.params["c"]
    phi = YoungFunction.power(2)
    psi = YoungFunction.zygmund(2, 1)

    def f(t):
        if not 0 < t < 1:
            return 0.0
        return (np.power(t, -0.5)
                * np.power(np.log1p(1.0 / max(t, 1e-300)), -c))

    def ftilde_of(ft):
        if not ft > 0:
            return 0.0
        # g(t) t = phi^{-1}(psi(t)), bracketed from sqrt(y) since phi = t^2
        y = float(psi(ft))
        return phi.inverse(y, hi0=max(1.0, math.sqrt(y)))

    def F(t):
        if not 0 < t < 1:
            return 0.0
        ft = f(t)
        return ft * ftilde_of(ft)

    return {"f": f, "ftilde": lambda t: ftilde_of(f(t)), "phi": phi,
            "psi": psi, "F": F}


def make_sequence(spec, index):
    """Concrete fields for the given case at one index value."""
    if index < 1:
        raise ValueError("index must be >= 1")
    return WITNESSES[spec.case].build(spec, index)


# ---------------------------------------------------------------------------
# verdict machinery
# ---------------------------------------------------------------------------

def sequence_verdict(values, limit=0.0):
    """Declared-margin verdict for 'pairings converge to the limit':
    "converges", "fails" or "inconclusive"."""
    arr = np.asarray(values, dtype=float)
    dev = np.abs(arr - limit)
    scale = max(float(np.max(np.abs(arr))), abs(limit), 1e-300)
    half = arr.size // 2
    tail = dev[half:]
    worst = float(np.max(tail))
    escaped = (np.all(np.diff(tail) > 0)
               and tail[-1] - tail[0] >= TOL_PASS * scale)
    if worst <= TOL_PASS * scale and not escaped:
        return "converges"
    if worst >= TOL_FAIL * scale or escaped:
        return "fails"
    return "inconclusive"


def bounded_verdict(values):
    """Monotone-escape test for 'norms stay uniformly bounded': "fails" or
    "converges"."""
    arr = np.asarray(values, dtype=float)
    scale = max(float(np.max(np.abs(arr))), 1e-300)
    half = arr.size // 2
    tail = arr[half:]
    escaped = (np.all(np.diff(tail) > 0)
               and tail[-1] - tail[0] >= TOL_PASS * scale)
    return "fails" if escaped else "converges"


def _log_substituted_quad(fn):
    """Integral over (0,1) of fn(t) dt via t = e^{-s} (handles the t->0
    borderline singularities of the profile family)."""
    from scipy import integrate

    def integrand(s):
        t = np.exp(-s)
        return fn(t) * t
    return integrate.quad(integrand, 0.0, 700.0, limit=400)[0]


def truncated_llogl_masses(F, levels=LLOGL_LEVELS):
    """Integrals of min(F,M) log(1+min(F,M)) on (0,1) per truncation level.

    F must be pure: it runs once per distinct node float(t) across levels."""
    seen = {}
    out = []
    for M in levels:
        def fn(t, M=M):
            key = float(t)
            if key not in seen:
                seen[key] = F(t)
            val = np.minimum(seen[key], M)
            return val * np.log1p(val)
        with np.errstate(over="ignore"):
            out.append(_log_substituted_quad(fn))
    return out


def llogl_divergent(masses, per_decade=1.10):
    arr = np.asarray(masses, dtype=float)
    ratios = arr[1:] / arr[:-1]
    return bool(np.all(ratios >= per_decade) and ratios[-1] >= 1.01)


def harmonic_tail_sum(k):
    """sum_{l=1}^{k} 1/(l+1), exact in float."""
    return float(sum(1.0 / (ell + 1.0) for ell in range(1, k + 1)))


# ---------------------------------------------------------------------------
# pairing diagnostics per scenario
# ---------------------------------------------------------------------------

def _ex62_pairing(j, test):
    """Halves r < 1/2, r > 1/2 of 2 pi int F_j(r) test(r) r dr (quadrature);
    test takes one float."""
    from scipy import integrate

    def fn(r):
        return _ex62_radial_F_at(j, r) * test(r) * 2.0 * math.pi * r

    inner, _ = integrate.quad(fn, 0.0, 0.5, limit=300,
                              points=[0.5 - 1.0 / (2 * j)])
    outer, _ = integrate.quad(fn, 0.5, 1.0, limit=300,
                              points=[0.5 + 1.0 / (2 * j)])
    return inner, outer


def _ex62_masses(j_list):
    """ex62's M_j: F_j against the annular bump, one quadrature per j."""
    halves = (_ex62_pairing(j, lambda r: bump_at((r - 0.5) / 0.3))
              for j in j_list)
    return [inner + outer for inner, outer in halves]


def _unit_masses(spec, j_list):
    """`cc-lab pairing --seq ex61`'s report: each F_j's integral, limit 1."""
    return {"j": list(j_list),
            "pairings": [float(make_sequence(spec, j)["F"].integral()[0])
                         for j in j_list], "limit": 1.0}


def _converging_masses(spec, j_list):
    """`cc-lab pairing --seq ex62`'s report: the M_j, and their verdict."""
    masses = _ex62_masses(j_list)
    return {"j": list(j_list), "pairings": masses,
            "verdict": sequence_verdict(masses, 0.0)}


def _scenario_concentration(spec, j_list):
    """All three modes fail: unit masses (the pairings) concentrate."""
    rows = {"j": list(j_list), "M": [], "L1": [], "H1": [], "pairings": [],
            "limit": 1.0}
    r = np.hypot(*_centered_axes(spec.params["shape"], spec.params["period"]))
    test, ball = standard_bump(r / 0.75), (r <= 0.75).astype(float)
    del r  # the sweeps below hold only test and ball

    def densities():  # one F alive at a time, each measured as it comes
        for j in j_list:
            F = make_sequence(spec, j)["F"]
            cell = F.cell_volume
            rows["M"].append(float(np.sum(F.values[..., 0] * test) * cell))
            rows["L1"].append(float(np.sum(F.values[..., 0] * ball) * cell))
            rows["pairings"].append(float(F.integral()[0]))
            yield F

    rows["H1"] = local_hardy_norms(densities(), R=1.0)
    return rows


def _scenario_oscillation(spec, j_list, hardy_j=None):
    """Cancelling oscillation: measures pass, L1 fails, Hardy stays bounded.
    M is _converging_masses's pairings."""
    rows = _converging_masses(spec, j_list)
    halves = [_ex62_pairing(j, lambda r: 1.0) for j in j_list]
    # indicator of the ball r <= 1/2 captures only the + mass
    rows.update(M=rows["pairings"], M_flat=[a + b for a, b in halves],
                L1=[a for a, _ in halves],
                hardy_j=list(hardy_j if hardy_j is not None else j_list))
    r = _ex62_polar(spec)[1]
    rows["H1"] = local_hardy_norms((_ex62_F(spec, j, r)
                                    for j in rows["hardy_j"]), R=0.9)
    return rows


def _scenario_borderline(spec):
    """Constant sequence whose density is integrable but not L log L."""
    prof = ex63_profile(spec)
    masses = truncated_llogl_masses(prof["F"])
    r, beta, w = prof["r"], prof["beta"], prof["w"]

    def zyg_density(t):
        wt = w(t)  # once per node
        return np.power(wt, r) * np.power(np.log1p(wt), beta)

    # finite constraint budget: the lifted constraint is the profile itself
    zyg_mass = _log_substituted_quad(zyg_density)
    l1_mass = _log_substituted_quad(prof["F"])
    return {"llogl_masses": masses, "levels": list(LLOGL_LEVELS),
            "constraint_mass": zyg_mass, "l1_mass": l1_mass,
            "divergent": llogl_divergent(masses)}


def run_case(spec, indices=None):
    """The family's report at the indices, or at its default indices."""
    witness = WITNESSES[spec.case]
    return witness.run(spec, indices or witness.indices)


# -- Jacobian cases ---------------------------------------------------------

def _grid_det_pairing(u, phi):
    return float(np.sum(jacobian(u) * phi.values[..., 0]) * u.cell_volume)


def _run_case1(spec, ks):
    p = spec.params
    gamma = _case1_gamma(p)
    vals = [_grid_det_pairing(f["u"], f["phi"])
            for f in (_case1_fields(spec, k) for k in ks)]
    # moment audit of the registered bump: a1 = ||b||_2^2 / 2
    N = p["shape"]
    X, Y = _centered_axes(N, 2.0)
    bank = _jac1_bump_bank()
    cell = (2.0 / N) ** 2
    a1 = 0.5 * float(np.sum(bank["b"](X, Y) ** 2) * cell)
    # Richardson check of the moment property with a fixed smooth test
    test = np.sin(X) * standard_bump((np.hypot(X, Y) - 0.0) / 0.9)
    # d/dx1 [sin(x1) bump(r)] at 0 = bump(0) = e^{-1}
    d1_at_0 = math.exp(-1.0)
    ie = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        g_eps = eps ** (-0.5) * bank["g"](X / eps, Y / eps)
        ge = GridField(g_eps, (2.0, 2.0))
        ie.append(_grid_det_pairing(ge, GridField(test[..., None], (2.0, 2.0))))
    richardson = 2 * ie[-1] - ie[-2]
    return {"k": list(ks), "pairings": vals, "gamma": gamma,
            "expected_exponent": 2 * gamma,
            "fitted_exponent": fit_exponent(ks, np.abs(vals)),
            "a1": a1, "moment_target": a1 * d1_at_0,
            "moment_richardson": richardson}


def _torus_det_pairing(u1, u2, phi):
    """Exact integral of det(Du) phi for u = (u1(x1-heavy), u2) by a sparse
    product and a sparse pairing; u1 depends only on x1 and u2 only on x2
    (up to cutoff-free torus variants), so det(Du) = d1(u1) d2(u2) exactly."""
    det = trig_product(u1.derivative(0), u2.derivative(1))
    return trig_pair(det, phi)


def _run_case2(spec, ks):
    p = spec.params
    beta1 = _case2_beta1(p)
    expected = 2 - p["alpha"] - 2 * beta1
    if p["mode"] == "torus":
        vals = [_torus_det_pairing(f["u1"], f["u2"], f["phi"])
                for f in (_case2_torus(spec, k) for k in ks)]
        closed = [math.pi ** 2 * k ** expected for k in ks]
        return {"k": list(ks), "pairings": vals, "closed_form": closed,
                "beta1": beta1,
                "max_rel_err": max(abs(v - c) / c for v, c in zip(vals, closed))}
    vals = [_grid_det_pairing(f["u"], f["phi"])
            for f in (_case2_grid(spec, k) for k in ks)]
    return {"k": list(ks), "pairings": vals, "beta1": beta1,
            "expected_exponent": expected,
            "fitted_exponent": fit_exponent(ks, np.abs(vals))}


def _run_case3(spec, ks):
    vals = [_torus_det_pairing(f["u1"], f["u2"], f["phi"])
            for f in (_case3_trigs(spec, k) for k in ks)]
    exact = [math.pi ** 2 * harmonic_tail_sum(k) for k in ks]
    ratios = [v / math.log(k) for v, k in zip(vals, ks)]
    return {"k": list(ks), "pairings": vals, "exact": exact,
            "log_ratios": ratios,
            "max_rel_err": max(abs(v - e) / e for v, e in zip(vals, exact))}


def _run_orlicz(spec):
    f = _orlicz_fields(spec)
    masses = truncated_llogl_masses(f["F"])
    psi_mass = _log_substituted_quad(lambda t: f["psi"](f["f"](t)))
    ordering = dominates(f["phi"], f["psi"])
    # this density diverges like (log M)^{1/4}: slower than the profile
    # family, so the certificate uses a 2%-per-decade floor
    return {"llogl_masses": masses, "levels": list(LLOGL_LEVELS),
            "divergent": llogl_divergent(masses, per_decade=1.02),
            "psi_mass_of_f": psi_mass, "phi_dominated_by_psi": ordering}


def case3_norm_audit(spec, k):
    """Exact sparse Besov-block surrogates and the frequency-gap audit."""
    f = _case3_trigs(spec, k)
    freqs = f["freqs"]
    alpha = spec.params["alpha"]
    beta = (2 - alpha) / 2
    u_blocks = besov_block_sums(f["u1"])
    u_surrogate = sum((2.0 ** (beta * j) * s) ** 2
                      for j, s in u_blocks.items()) ** (1.0 / 2)
    gaps = [abs(a - b) for i, a in enumerate(freqs)
            for b in freqs[i + 1:]]
    base = freqs[0] // 8
    gap_ok = min(gaps) >= base
    spacing_ok = all(freqs[i + 1] >= 4 * freqs[i] for i in range(len(freqs) - 1))
    one_per_annulus = len({(fr - 1).bit_length() for fr in freqs}) == len(freqs)
    return {"holder_surrogate": besov_sup(f["phi"], alpha),
            "besov_surrogate": u_surrogate,
            "min_gap_ok": bool(gap_ok), "spacing_ok": bool(spacing_ok),
            "one_freq_per_annulus": bool(one_per_annulus),
            "min_gap": min(gaps), "required_gap": base}


# ---------------------------------------------------------------------------
# the four-scenario matrix
# ---------------------------------------------------------------------------

def table1(shape_oscillation=512):
    """Measured verdict matrix for the four failure scenarios.

    (i)  concentration: nothing survives;
    (ii) oscillation + borderline density on disjoint supports: only the
         measure-topology pairings settle;
    (iii) oscillation alone: measures settle and the Hardy diagnostic stays
         bounded, but the + mass trapped by the indicator never leaves;
    (iv) the constant borderline sequence: every pairing is constant, but the
         density is not L log L so the Hardy bound fails.
    """
    d1 = _scenario_concentration(make_spec("ex61"),
                                 WITNESSES["ex61"].indices)
    d3 = _scenario_oscillation(make_spec("ex62", shape=shape_oscillation),
                               WITNESSES["ex62"].indices,
                               hardy_j=(2, 4, 8, 16, 24, 32))
    d4 = _scenario_borderline(make_spec("ex63"))
    l1_verdict = sequence_verdict(d3["L1"], 0.0)
    llogl_verdict = "fails" if d4["divergent"] else "converges"
    # (ii): disjoint-support sum of the oscillation and borderline pieces.
    # With disjoint supports the sum converges in a given topology iff both
    # parts do; the borderline part is a constant sequence and converges
    # trivially in M and L1, so there the oscillation's verdicts decide
    const_M = d4["l1_mass"]
    constant = sequence_verdict([const_M] * 6, const_M)
    return [
        Table1Row("(i)", sequence_verdict(d1["M"], 0.0),
                  sequence_verdict(d1["L1"], 0.0),
                  bounded_verdict(d1["H1"]), d1),
        Table1Row("(ii)", d3["verdict"], l1_verdict, llogl_verdict,
                  {"M": [v + const_M for v in d3["M"]],
                   "L1": [v + const_M for v in d3["L1"]],
                   "llogl": d4["llogl_masses"]}),
        Table1Row("(iii)", d3["verdict"], l1_verdict,
                  bounded_verdict(d3["H1"]), d3),
        Table1Row("(iv)", constant, constant, llogl_verdict, d4)]


# ---------------------------------------------------------------------------
# gates and the witness records
# ---------------------------------------------------------------------------

def _table(columns, *values):
    """A CSV table: its (name, tag) columns, and rows zipped from values."""
    return {"columns": columns, "rows": [list(row) for row in zip(*values)]}


def _unit_mass_gate(spec, rep):
    devs = [abs(v - rep["limit"]) for v in rep["pairings"]]
    return [Check("deviation", max(devs), EXACT_TOL, "<=", len(devs))], \
        _table([("j", "exact"), ("pairing", "measured"),
                ("deviation", "measured")], rep["j"], rep["pairings"], devs)


def _converging_masses_gate(spec, rep):
    j = rep["j"]
    return [Check("M_verdict", rep["verdict"], "converges", "==", len(j))], \
        _table([("j", "exact"), ("pairing", "measured")], j, rep["pairings"])


def _divergent_gate(spec, rep):
    masses = rep["llogl_masses"]
    return [Check("divergent", rep["divergent"], True, "==", len(masses))], \
        _table([("level", "exact"), ("llogl_mass", "measured")],
               rep["levels"], masses)


def _borderline_gate(spec, rep):
    checks, table = _divergent_gate(spec, rep)
    finite = Check("constraint_mass_finite",
                   math.isfinite(rep["constraint_mass"]), True, "==")
    return checks + [finite], table


def _no_gate(spec, rep):
    """jac_case1's run checks nothing (inconclusive): its fitted exponent,
    0.297 at k = 4, 8, 16 against n gamma = 0.25, awaits a decided rule."""
    return [], {"columns": [("key", "exact"), ("value", "measured")],
                "rows": [[k, v] for k, v in sorted(rep.items())
                         if isinstance(v, (int, float, str))]}


def _case2_gate(spec, rep):
    ks, cols = rep["k"], [("k", "exact"), ("pairing", "measured")]
    if spec.params["mode"] == "torus":
        table = _table(cols + [("closed_form", "reference")], ks,
                       rep["pairings"], rep["closed_form"])
        return [Check("max_rel_err", rep["max_rel_err"], EXACT_TOL, "<=",
                      len(ks))], table
    expected = rep["expected_exponent"]
    error = abs(rep["fitted_exponent"] - expected)
    return [Check("exponent_error", error, 0.15 * abs(expected), "<=",
                  len(ks))], _table(cols, ks, rep["pairings"])


def _case3_gate(spec, rep):
    pi_n, ratios, ks = math.pi ** 2, rep["log_ratios"], rep["k"]
    return [Check("max_rel_err", rep["max_rel_err"], EXACT_TOL, "<=", len(ks)),
            Check("log_ratio_low", min(ratios), 0.5 * pi_n, ">=", len(ratios)),
            Check("log_ratio_high", max(ratios), 2.0 * pi_n, "<=",
                  len(ratios))], \
        _table([("k", "exact"), ("pairing", "measured"),
                ("exact", "reference")], ks, rep["pairings"], rep["exact"])


WITNESSES = {
    "ex61": Witness(
        anchor="v_j = j 1_{(0,1/j)^2} e, pairing = 1 for all j",
        defaults=dict(period=4.0, shape=256, e=(2 ** -0.5, 2 ** -0.5)),
        rules=(needs("period", ">", 0), needs("shape", ">=", 2),
               (lambda p: len(p["e"]) == 2 and all(map(real, p["e"])),
                "needs e to hold n=2 numbers, got e={e!r}")),
        build=_ex61_fields, run=_scenario_concentration,
        gate=_unit_mass_gate, indices=(2, 4, 8, 16, 32, 64),
        pairings=_unit_masses),
    "ex62": Witness(
        anchor="glued harmonic gradients, masses +pi / -pi at r = 1/2",
        defaults=dict(period=2.0, shape=512),
        rules=(needs("period", ">", 0), needs("shape", ">=", 2)),
        build=_ex62_fields, run=_scenario_oscillation,
        gate=_converging_masses_gate, indices=(2, 4, 8, 16, 32, 64),
        pairings=_converging_masses),
    "ex63": Witness(
        anchor="w(t) = t^(-1/r) log(1+1/t)^(-(beta+1+gamma)/r), F = w^2",
        defaults=dict(r=2.0, beta=0.0, gamma=0.25),
        # F = w sqrt(psi(w)) ~ t^(-1/r - 1/2) is integrable only for r >= 2
        rules=(needs("r", ">=", 2), needs("gamma", ">", 0)),
        build=lambda spec, index: ex63_profile(spec),
        run=lambda spec, indices: _scenario_borderline(spec),
        gate=_borderline_gate),
    "jac_case1": Witness(
        anchor="u^(k) = k^((alpha-1)/n + gamma) g(k x), det moment a_1",
        defaults=dict(alpha=0.5, p=2.0, beta=0.5, gamma=None, shape=512),
        rules=((lambda p: 0 < p["p"] <= 2,
                "needs an integrability exponent 0 < p <= n, got p={p!r}"),
               (lambda p: 0 < p["alpha"] <= 1,
                "needs 0 < alpha <= 1, got alpha={alpha!r}"),
               (lambda p: _case1_room(p) > 0, "needs beta + alpha/n < n/p"),
               (lambda p: p["gamma"] is None or real(p["gamma"])
                and 0 < p["gamma"] < _case1_room(p),
                "gamma must lie in (0, n/p - beta - alpha/n)"),
               # the test function is mollified at scale 4/shape <= 1
               needs("shape", ">=", 4)),
        build=_case1_fields, run=_run_case1, gate=_no_gate,
        indices=(4, 8, 16)),
    "jac_case2": Witness(
        anchor="pairing = pi^n k^(n - alpha - n beta1)",
        defaults=dict(alpha=0.5, beta=0.5, beta1=None, mode="torus",
                      shape=1024),
        rules=(needs("mode", "in", ("torus", "grid")),
               (lambda p: p["beta"] + p["alpha"] / 2 < 1,
                "needs beta + alpha/n < 1"),
               (lambda p: p["beta1"] is None or real(p["beta1"])
                and p["beta"] < p["beta1"] < (2 - p["alpha"]) / 2,
                "beta1 must lie in (beta, (n-alpha)/n)"),
               needs("shape", ">=", 2)),
        build=lambda spec, k: (_case2_torus if spec.params["mode"] == "torus"
                               else _case2_grid)(spec, k),
        run=_run_case2, gate=_case2_gate, indices=(8, 16, 32, 64, 128),
        routes={"mode": {"torus": ("shape",)}}),
    "jac_case3": Witness(
        anchor="n_l = k^(n^2/alpha) * 8^l, pairing = pi^n sum 1/(l+1)",
        defaults=dict(alpha=0.5),
        rules=((lambda p: 0 < p["alpha"] < 1, "alpha must lie in (0,1)"),),
        build=_case3_trigs, run=_run_case3, gate=_case3_gate,
        indices=(8, 16, 32, 64)),
    "appendixOrlicz": Witness(
        anchor="g(t) t = phi^{-1}(psi(t)), phi = t^2, psi = t^2 log(1+t)",
        defaults=dict(c=9.0 / 8.0),
        # psi(f) ~ t^-1 log(1/t)^(1 - 2c) is integrable only for c > 1
        rules=(needs("c", ">", 1),),
        build=lambda spec, index: _orlicz_fields(spec),
        run=lambda spec, indices: _run_orlicz(spec),
        gate=_divergent_gate),
}

CASES = tuple(WITNESSES)
