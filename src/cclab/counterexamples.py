"""Sharpness constructions: concentration, sign-cancelling oscillation,
borderline-integrability fields, and the three Jacobian-pairing growth cases.

Each case is a generator (``make_sequence``) plus a runner (``run_case``)
producing measured verdicts under the declared margins: "converges" when the
last-half deviation from the limit stays within 5% of the sequence scale,
"fails" at 50% or on monotone escape, anything between is reported
"inconclusive" (and treated as a loud failure by callers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import integrate

from .field import GridField, TrigPoly, trig_pair, trig_product, mollify
from .norms import (YoungFunction, MaximalConfig, local_hardy_norm,
                    besov_block_sums, dominates)

__all__ = ["SequenceSpec", "Table1Row", "make_spec", "make_sequence",
           "run_case", "table1", "case3_norm_audit", "sequence_verdict",
           "truncated_llogl_masses", "llogl_divergent", "harmonic_tail_sum",
           "CASES"]


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "ex61": dict(n=2, period=4.0, shape=256, e=(2 ** -0.5, 2 ** -0.5)),
    "ex62": dict(n=2, period=2.0, shape=512),
    "ex63": dict(n=2, r=2.0, beta=0.0, gamma=0.25),
    "jac_case1": dict(n=2, alpha=0.5, p=2.0, beta=0.5, gamma=None, shape=512),
    "jac_case2": dict(n=2, alpha=0.5, p=4.0, beta=0.5, beta1=None,
                      mode="torus", shape=1024),
    "jac_case3": dict(n=2, alpha=0.5, mode="torus", term_cap=10**7),
    "appendixOrlicz": dict(s=2, c=9.0 / 8.0),
}

CASES = tuple(_DEFAULTS)


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
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def pattern(self):
        mark = {"converges": "pass", "fails": "fail",
                "inconclusive": "inconclusive"}
        return tuple(mark[v] for v in
                     (self.verdictM, self.verdictL1, self.verdictH1))


def make_spec(case, **overrides):
    if case not in _DEFAULTS:
        raise KeyError(f"unknown case {case!r} (choose from {CASES})")
    params = dict(_DEFAULTS[case])
    unknown = set(overrides) - set(params)
    if unknown:
        raise KeyError(f"unknown parameters for {case}: {sorted(unknown)}")
    params.update(overrides)
    _validate(case, params)
    return SequenceSpec(case=case, params=params)


def _validate(case, p):
    if case == "jac_case1":
        # p <= n and beta + alpha/n < n/p
        n, alpha = p["n"], p["alpha"]
        if p["p"] > n:
            raise ValueError("case 1 requires an integrability exponent <= n")
        room = n / p["p"] - p["beta"] - alpha / n
        if room <= 0:
            raise ValueError("case 1 needs beta + alpha/n < n/p")
        if p["gamma"] is not None and not 0 < p["gamma"] < room:
            raise ValueError(f"gamma must lie in (0, {room})")
    elif case == "jac_case2":
        n, alpha = p["n"], p["alpha"]
        if p["p"] <= n:
            raise ValueError("case 2 requires an integrability exponent > n")
        if p["beta"] + alpha / n >= 1:
            raise ValueError("case 2 needs beta + alpha/n < 1")
        b1 = p["beta1"]
        if b1 is not None and not p["beta"] < b1 < (n - alpha) / n:
            raise ValueError("beta1 must lie in (beta, (n-alpha)/n)")
    elif case == "jac_case3":
        if not 0 < p["alpha"] < 1:
            raise ValueError("alpha must lie in (0,1)")
    elif case == "ex63":
        if p["gamma"] <= 0:
            raise ValueError("gamma must be positive")


def _case1_gamma(p):
    room = p["n"] / p["p"] - p["beta"] - p["alpha"] / p["n"]
    return p["gamma"] if p["gamma"] is not None else room / 2.0


def _case2_beta1(p):
    if p["beta1"] is not None:
        return p["beta1"]
    return p["beta"] + ((p["n"] - p["alpha"]) / p["n"] - p["beta"]) / 2.0


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


def _ex62_radial_F(j):
    """Signed radial profile of the dot product: + inside r=1/2, - outside."""
    def F(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inner = (r > 0) & (r <= 0.5)
        outer = r > 0.5
        with np.errstate(divide="ignore"):
            out[inner] = j * np.exp(2 * j * np.log(2 * r[inner])) / r[inner] ** 2
            out[outer] = -j * np.exp(-2 * j * np.log(2 * r[outer])) / r[outer] ** 2
        return out
    return F


def _ex62_fields(spec, j):
    """Glued harmonic pair: v is exactly divergence-free, vtilde exactly
    curl-free, and F = v . vtilde carries cancelling +/- masses of size pi
    concentrating on the circle r = 1/2."""
    p = spec.params
    N, period = p["shape"], p["period"]
    X, Y = _centered_axes(N, period)
    Z = X + 1j * Y
    r = np.abs(Z)
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
    Fgrid = _ex62_radial_F(j)(r)
    return {"v": GridField(v, (period, period)),
            "vtilde": GridField(vtilde, (period, period)),
            "F": GridField(Fgrid[..., None], (period, period)),
            "F_radial": _ex62_radial_F(j)}


def ex63_profile(spec):
    """1D profile w(t) = t^{-1/r} log(1+1/t)^{-(beta+1+gamma)/r} on (0,1)."""
    p = spec.params
    r, beta, gamma = p["r"], p["beta"], p["gamma"]
    ex = (beta + 1.0 + gamma) / r

    def w(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.where((t > 0) & (t < 1),
                           np.power(t, -1.0 / r)
                           * np.power(np.log1p(1.0 / np.maximum(t, 1e-300)), -ex),
                           0.0)
        return out

    def F(t):
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
    n, alpha = p["n"], p["alpha"]
    gamma = _case1_gamma(p)
    N = p["shape"]
    period = 2.0
    X, Y = _centered_axes(N, period)
    bank = _jac1_bump_bank()
    eps = 1.0 / k
    g_eps = eps ** (-1.0 / n) * bank["g"](X / eps, Y / eps)
    u = k ** ((alpha - 1.0) / n + gamma) * g_eps
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
    """Exact integer frequencies n_l = k^(n^2/alpha) * 8^l (Python ints)."""
    p = spec.params
    n, alpha = p["n"], p["alpha"]
    exponent = n * n / alpha
    if abs(exponent - round(exponent)) > 1e-12:
        base = int(math.ceil(k ** exponent))
    else:
        base = k ** int(round(exponent))
    return [base * 8**ell for ell in range(1, k + 1)]


def _case3_trigs(spec, k):
    p = spec.params
    n, alpha = p["n"], p["alpha"]
    if n != 2:
        raise ValueError("the sparse-sum variant is implemented for n=2")
    freqs = case3_frequencies(spec, k)
    # the layer index ell runs 1..k, so the weight is (ell+1)^{-1/n}
    amps = [float(f) ** (-(n - alpha) / n) * (ell + 1.0) ** (-1.0 / n)
            for ell, f in zip(range(1, k + 1), freqs)]
    # the layers have pairwise disjoint frequencies, so each sum is the
    # union of the layers' term dicts, validated once
    u1, u2, phi = {}, {}, {}
    for f, a in zip(freqs, amps):
        u1.update(TrigPoly.wave(2, (f, 0), "sin", a).terms)
        u2.update(TrigPoly.wave(2, (0, f), "cos", -a).terms)
        phi.update(trig_product(
            TrigPoly.wave(2, (0, f), "sin", float(f) ** (-alpha)),
            TrigPoly.wave(2, (f, 0), "cos")).terms)
    return {"u1": TrigPoly(2, 1, u1), "u2": TrigPoly(2, 1, u2),
            "phi": TrigPoly(2, 1, phi), "freqs": freqs}


def _orlicz_fields(spec):
    p = spec.params
    if p["s"] != 2:
        raise ValueError("the registered pair is for homogeneity 2")
    c = p["c"]
    phi = YoungFunction.named("t2")
    psi = YoungFunction.zygmund(2, 1)

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((t > 0) & (t < 1),
                            np.power(t, -0.5)
                            * np.power(np.log1p(1.0 / np.maximum(t, 1e-300)), -c),
                            0.0)

    def ftilde(t):
        ft = f(t)
        out = np.zeros_like(ft)
        nz = ft > 0
        # g(t) t = phi^{-1}(psi(t))
        with np.errstate(over="ignore"):
            out[nz] = np.array([phi.inverse(float(y), hi0=max(1.0, float(y)))
                                for y in psi(ft[nz])])
        return out

    return {"f": f, "ftilde": ftilde, "phi": phi, "psi": psi,
            "F": lambda t: f(t) * ftilde(t)}


def make_sequence(spec, index):
    """Concrete fields for the given case at one index value."""
    if index < 1:
        raise ValueError("index must be >= 1")
    case = spec.case
    if case == "ex61":
        return _ex61_fields(spec, index)
    if case == "ex62":
        return _ex62_fields(spec, index)
    if case == "ex63":
        return ex63_profile(spec)
    if case == "jac_case1":
        return _case1_fields(spec, index)
    if case == "jac_case2":
        if spec.params["mode"] == "torus":
            return _case2_torus(spec, index)
        return _case2_grid(spec, index)
    if case == "jac_case3":
        return _case3_trigs(spec, index)
    if case == "appendixOrlicz":
        return _orlicz_fields(spec)
    raise KeyError(case)


# ---------------------------------------------------------------------------
# verdict machinery
# ---------------------------------------------------------------------------

def sequence_verdict(values, limit=0.0, tol_pass=0.05, tol_fail=0.5):
    """Declared-margin verdict for 'pairings converge to the limit'."""
    arr = np.asarray(values, dtype=float)
    dev = np.abs(arr - limit)
    scale = max(float(np.max(np.abs(arr))), abs(limit), 1e-300)
    half = arr.size // 2
    tail = dev[half:]
    worst = float(np.max(tail))
    escaped = (np.all(np.diff(tail) > 0)
               and tail[-1] - tail[0] >= tol_pass * scale)
    if worst <= tol_pass * scale and not escaped:
        verdict = "converges"
    elif worst >= tol_fail * scale or escaped:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return {"verdict": verdict, "values": arr.tolist(), "limit": limit,
            "worst_tail_deviation": worst, "scale": scale,
            "monotone_escape": bool(escaped)}


def bounded_verdict(values, tol_pass=0.05):
    """Monotone-escape test for 'norms stay uniformly bounded'."""
    arr = np.asarray(values, dtype=float)
    scale = max(float(np.max(np.abs(arr))), 1e-300)
    half = arr.size // 2
    tail = arr[half:]
    escaped = (np.all(np.diff(tail) > 0)
               and tail[-1] - tail[0] >= tol_pass * scale)
    return {"verdict": "fails" if escaped else "converges",
            "values": arr.tolist(), "monotone_escape": bool(escaped)}


def _log_substituted_quad(fn, s_max=700.0):
    """Integral over (0,1) of fn(t) dt via t = e^{-s} (handles the t->0
    borderline singularities of the profile family)."""
    val, _ = integrate.quad(lambda s: fn(np.exp(-s)) * np.exp(-s), 0.0, s_max,
                            limit=400)
    return val


def truncated_llogl_masses(F, levels=(10.0, 1e2, 1e3, 1e4, 1e5, 1e6)):
    """Integrals of min(F,M) log(1+min(F,M)) on (0,1) per truncation level."""
    out = []
    for M in levels:
        def fn(t, M=M):
            with np.errstate(over="ignore"):
                val = np.minimum(F(t), M)
            return val * np.log1p(val)
        out.append(_log_substituted_quad(fn))
    return out


def llogl_divergent(masses, per_decade=1.10, plateau_tol=1.01):
    arr = np.asarray(masses, dtype=float)
    ratios = arr[1:] / arr[:-1]
    return bool(np.all(ratios >= per_decade) and ratios[-1] >= plateau_tol)


def harmonic_tail_sum(k):
    """sum_{l=1}^{k} 1/(l+1), exact in float."""
    return float(sum(1.0 / (ell + 1.0) for ell in range(1, k + 1)))


# ---------------------------------------------------------------------------
# pairing diagnostics per scenario
# ---------------------------------------------------------------------------

def _bump_profile(r, center, width):
    t = (np.asarray(r, dtype=float) - center) / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _ex62_pairing(j, test):
    """2 pi int F_j(r) test(r) r dr by adaptive radial quadrature."""
    F = _ex62_radial_F(j)

    def fn(r):
        return F(np.array([r]))[0] * test(r) * 2.0 * math.pi * r

    inner, _ = integrate.quad(fn, 0.0, 0.5, limit=300,
                              points=[0.5 - 1.0 / (2 * j)])
    outer, _ = integrate.quad(fn, 0.5, 1.0, limit=300,
                              points=[0.5 + 1.0 / (2 * j)])
    return inner + outer


def _scenario_concentration(spec, j_list):
    """All three modes fail: unit masses concentrate at a point."""
    rows = {"j": list(j_list), "M": [], "L1": [], "H1": []}
    period = spec.params["period"]
    N = spec.params["shape"]
    for j in j_list:
        fields = make_sequence(spec, j)
        F = fields["F"]
        X, Y = _centered_axes(N, period)
        test = _bump_profile(np.hypot(X, Y), 0.0, 0.75)
        cell = F.cell_volume
        rows["M"].append(float(np.sum(F.values[..., 0] * test) * cell))
        ball = (np.hypot(X, Y) <= 0.75).astype(float)
        rows["L1"].append(float(np.sum(F.values[..., 0] * ball) * cell))
        rows["H1"].append(local_hardy_norm(F, R=1.0))
    return rows


def _scenario_oscillation(spec, j_list, hardy_j=None):
    """Cancelling oscillation: measures pass, L1 fails, Hardy stays bounded."""
    rows = {"j": list(j_list), "M": [], "M_flat": [], "L1": [], "H1": [],
            "hardy_j": []}
    for j in j_list:
        rows["M"].append(_ex62_pairing(j, lambda r: _bump_profile(r, 0.5, 0.3)))
        rows["M_flat"].append(_ex62_pairing(j, lambda r: 1.0))
        # indicator of the ball r <= 1/2 captures only the + mass
        F = _ex62_radial_F(j)
        val, _ = integrate.quad(
            lambda r: F(np.array([r]))[0] * 2 * math.pi * r, 0.0, 0.5,
            limit=300, points=[0.5 - 1.0 / (2 * j)])
        rows["L1"].append(val)
    for j in (hardy_j if hardy_j is not None else j_list):
        fields = make_sequence(spec, j)
        rows["hardy_j"].append(j)
        rows["H1"].append(local_hardy_norm(fields["F"], R=0.9))
    return rows


def _scenario_borderline(spec, levels=(10.0, 1e2, 1e3, 1e4, 1e5, 1e6)):
    """Constant sequence whose density is integrable but not L log L."""
    prof = ex63_profile(spec)
    masses = truncated_llogl_masses(prof["F"], levels)
    r, beta = prof["r"], prof["beta"]
    # finite constraint budget: the lifted constraint is the profile itself
    zyg_mass = _log_substituted_quad(
        lambda t: np.power(prof["w"](t), r)
        * np.power(np.log1p(prof["w"](t)), beta))
    l1_mass = _log_substituted_quad(prof["F"])
    return {"llogl_masses": masses, "levels": list(levels),
            "constraint_mass": zyg_mass, "l1_mass": l1_mass,
            "divergent": llogl_divergent(masses)}


def run_case(spec, indices=None, **kwargs):
    """Case-specific measured report (see table1 for the scenario matrix)."""
    case = spec.case
    if case == "ex61":
        return _scenario_concentration(spec, indices or (2, 4, 8, 16, 32, 64))
    if case == "ex62":
        return _scenario_oscillation(spec, indices or (2, 4, 8, 16, 32, 64),
                                     hardy_j=kwargs.get("hardy_j"))
    if case == "ex63":
        return _scenario_borderline(spec, **kwargs)
    if case == "jac_case1":
        return _run_case1(spec, indices or (4, 8, 16))
    if case == "jac_case2":
        return _run_case2(spec, indices or (8, 16, 32, 64, 128))
    if case == "jac_case3":
        return _run_case3(spec, indices or (8, 16, 32, 64))
    if case == "appendixOrlicz":
        return _run_orlicz(spec)
    raise KeyError(case)


# -- Jacobian cases ---------------------------------------------------------

def _spectral_grad(values, period):
    N = values.shape[0]
    freq = np.fft.fftfreq(N, d=1.0 / N)
    hat = np.fft.fftn(values, axes=(0, 1))
    scale = 2 * math.pi / period
    gx = np.real(np.fft.ifftn(hat * (1j * freq * scale)[:, None], axes=(0, 1)))
    gy = np.real(np.fft.ifftn(hat * (1j * freq * scale)[None, :], axes=(0, 1)))
    return gx, gy


def _grid_det_pairing(u, phi):
    period = u.period[0]
    u1x, u1y = _spectral_grad(u.values[..., 0], period)
    u2x, u2y = _spectral_grad(u.values[..., 1], period)
    det = u1x * u2y - u1y * u2x
    return float(np.sum(det * phi.values[..., 0]) * u.cell_volume)


def _fit_exponent(ks, vals):
    logs = np.log(np.asarray(ks, dtype=float))
    logv = np.log(np.abs(np.asarray(vals, dtype=float)))
    A = np.stack([logs, np.ones_like(logs)], axis=-1)
    coef, res, *_ = np.linalg.lstsq(A, logv, rcond=None)
    return float(coef[0])


def _run_case1(spec, ks):
    p = spec.params
    gamma = _case1_gamma(p)
    vals = []
    for k in ks:
        fields = _case1_fields(spec, k)
        vals.append(_grid_det_pairing(fields["u"], fields["phi"]))
    # moment audit of the registered bump: a1 = ||b||_2^2 / 2
    N = p["shape"]
    X, Y = _centered_axes(N, 2.0)
    bank = _jac1_bump_bank()
    cell = (2.0 / N) ** 2
    a1 = 0.5 * float(np.sum(bank["b"](X, Y) ** 2) * cell)
    # Richardson check of the moment property with a fixed smooth test
    test = np.sin(X) * _bump_profile(np.hypot(X, Y), 0.0, 0.9)
    # d/dx1 [sin(x1) bump(r)] at 0 = bump(0) = e^{-1}
    d1_at_0 = math.exp(-1.0)
    ie = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        g_eps = eps ** (-0.5) * bank["g"](X / eps, Y / eps)
        ge = GridField(g_eps, (2.0, 2.0))
        ie.append(_grid_det_pairing(ge, GridField(test[..., None], (2.0, 2.0))))
    richardson = 2 * ie[-1] - ie[-2]
    return {"k": list(ks), "pairings": vals, "gamma": gamma,
            "expected_exponent": p["n"] * gamma,
            "fitted_exponent": _fit_exponent(ks, vals),
            "a1": a1, "moment_target": a1 * d1_at_0,
            "moment_richardson": richardson}


def _torus_det_pairing(u1, u2, phi, cap):
    """Exact integral of det(Du) phi for u = (u1(x1-heavy), u2) by a sparse
    product and a sparse pairing; u1 depends only on x1 and u2 only on x2
    (up to cutoff-free torus variants), so det(Du) = d1(u1) d2(u2) exactly."""
    det = trig_product(u1.derivative(0), u2.derivative(1), cap)
    return trig_pair(det, phi)


def _run_case2(spec, ks):
    p = spec.params
    if p["mode"] == "torus":
        beta1 = _case2_beta1(p)
        vals, closed = [], []
        for k in ks:
            f = _case2_torus(spec, k)
            vals.append(_torus_det_pairing(f["u1"], f["u2"], f["phi"], 10**7))
            closed.append(math.pi ** p["n"]
                          * k ** (p["n"] - p["alpha"] - p["n"] * beta1))
        return {"k": list(ks), "pairings": vals, "closed_form": closed,
                "beta1": beta1,
                "max_rel_err": max(abs(v - c) / c for v, c in zip(vals, closed))}
    vals = []
    for k in ks:
        f = _case2_grid(spec, k)
        vals.append(_grid_det_pairing(f["u"], f["phi"]))
    beta1 = _case2_beta1(p)
    expected = p["n"] - p["alpha"] - p["n"] * beta1
    return {"k": list(ks), "pairings": vals, "beta1": beta1,
            "expected_exponent": expected,
            "fitted_exponent": _fit_exponent(ks, vals)}


def _run_case3(spec, ks):
    cap = spec.params["term_cap"]
    vals, exact = [], []
    for k in ks:
        f = _case3_trigs(spec, k)
        vals.append(_torus_det_pairing(f["u1"], f["u2"], f["phi"], cap))
        exact.append(math.pi ** spec.params["n"] * harmonic_tail_sum(k))
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
    return {"llogl_masses": masses,
            "divergent": llogl_divergent(masses, per_decade=1.02),
            "psi_mass_of_f": psi_mass, "phi_dominated_by_psi": ordering}


def case3_norm_audit(spec, k):
    """Exact sparse Besov-block surrogates and the frequency-gap audit."""
    f = _case3_trigs(spec, k)
    freqs = f["freqs"]
    alpha = spec.params["alpha"]
    n = spec.params["n"]
    beta = (n - alpha) / n
    phi_blocks = besov_block_sums(f["phi"])
    holder_sup = max(2.0 ** (alpha * j) * s for j, s in phi_blocks.items())
    u_blocks = besov_block_sums(f["u1"])
    u_surrogate = sum((2.0 ** (beta * j) * s) ** n
                      for j, s in u_blocks.items()) ** (1.0 / n)
    gaps = [abs(a - b) for i, a in enumerate(freqs)
            for b in freqs[i + 1:]]
    base = freqs[0] // 8
    gap_ok = min(gaps) >= base
    spacing_ok = all(freqs[i + 1] >= 4 * freqs[i] for i in range(len(freqs) - 1))
    one_per_annulus = len({(fr - 1).bit_length() for fr in freqs}) == len(freqs)
    return {"holder_surrogate": holder_sup, "besov_surrogate": u_surrogate,
            "min_gap_ok": bool(gap_ok), "spacing_ok": bool(spacing_ok),
            "one_freq_per_annulus": bool(one_per_annulus),
            "min_gap": min(gaps), "required_gap": base}


# ---------------------------------------------------------------------------
# the four-scenario matrix
# ---------------------------------------------------------------------------

def table1(j_concentration=(2, 4, 8, 16, 32, 64),
           j_oscillation=(2, 4, 8, 16, 32, 64),
           hardy_j_oscillation=(2, 4, 8, 16, 24, 32),
           shape_oscillation=512):
    """Measured verdict matrix for the four failure scenarios.

    (i)  concentration: nothing survives;
    (ii) oscillation + borderline density on disjoint supports: only the
         measure-topology pairings settle;
    (iii) oscillation alone: measures settle and the Hardy diagnostic stays
         bounded, but the + mass trapped by the indicator never leaves;
    (iv) the constant borderline sequence: every pairing is constant, but the
         density is not L log L so the Hardy bound fails.
    """
    rows = []
    spec61 = make_spec("ex61")
    d1 = _scenario_concentration(spec61, j_concentration)
    rows.append(Table1Row(
        scenario="(i)",
        verdictM=sequence_verdict(d1["M"], 0.0)["verdict"],
        verdictL1=sequence_verdict(d1["L1"], 0.0)["verdict"],
        verdictH1=bounded_verdict(d1["H1"])["verdict"],
        diagnostics=d1))

    spec62 = make_spec("ex62", shape=shape_oscillation)
    d3 = _scenario_oscillation(spec62, j_oscillation,
                               hardy_j=hardy_j_oscillation)
    spec63 = make_spec("ex63")
    d4 = _scenario_borderline(spec63)

    # (ii): disjoint-support sum of the oscillation and borderline pieces.
    # With disjoint supports the sum converges in a given topology iff both
    # parts do, so the verdicts combine logically (the borderline part is a
    # constant sequence and converges trivially in M and L1)
    const_M = d4["l1_mass"]

    def _combine(*verdicts):
        if "fails" in verdicts:
            return "fails"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "converges"

    m_ii = [v + const_M for v in d3["M"]]
    l1_ii = [v + const_M for v in d3["L1"]]
    rows.append(Table1Row(
        scenario="(ii)",
        verdictM=_combine(sequence_verdict(d3["M"], 0.0)["verdict"]),
        verdictL1=_combine(sequence_verdict(d3["L1"], 0.0)["verdict"]),
        verdictH1="fails" if d4["divergent"] else "converges",
        diagnostics={"M": m_ii, "L1": l1_ii, "llogl": d4["llogl_masses"]}))

    vH1 = bounded_verdict(d3["H1"])
    rows.append(Table1Row(
        scenario="(iii)",
        verdictM=sequence_verdict(d3["M"], 0.0)["verdict"],
        verdictL1=sequence_verdict(d3["L1"], 0.0)["verdict"],
        verdictH1=vH1["verdict"],
        diagnostics=d3))

    rows.append(Table1Row(
        scenario="(iv)",
        verdictM=sequence_verdict([const_M] * 6, const_M)["verdict"],
        verdictL1=sequence_verdict([d4["l1_mass"]] * 6,
                                   d4["l1_mass"])["verdict"],
        verdictH1="fails" if d4["divergent"] else "converges",
        diagnostics=d4))
    return rows
