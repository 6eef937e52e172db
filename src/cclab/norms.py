"""Norms and the Orlicz-function toolbox.

Covers Lebesgue, Zygmund L^p log^a L, general Orlicz (Luxemburg), negative
Sobolev via Riesz multipliers, Gagliardo fractional seminorms, Holder/Besov
seminorms, the local maximal function and the local Hardy norm, plus Young
conjugation, the Delta_2 doubling check, and domination between Young
functions.

Desk-scale caveat recorded once here: asymptotic properties (Delta_2 failure,
non-domination) are certified by monotone-trend diagnostics over declared
sample ranges, since any finite range alone cannot decide them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (GridField, Spectrum, TrigPoly, _midpoint_dist2, fft,
                    mollified, standard_bump)

__all__ = [
    "YoungFunction",
    "NormTag",
    "MaximalConfig",
    "lebesgue_norm",
    "zygmund_norm",
    "luxemburg_norm",
    "young_conjugate",
    "delta2_check",
    "dominates",
    "hardy_bracket_check",
    "neg_sobolev_norm",
    "gagliardo_seminorm",
    "holder_seminorm",
    "besov_sup",
    "local_maximal",
    "local_hardy_norm",
    "local_hardy_norms",
    "parse_norm_tag",
    "evaluate_norm",
]


# ---------------------------------------------------------------------------
# Young functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YoungFunction:
    """Orlicz/Young function descriptor.

    phi: vectorized callable on nonnegative arguments, phi(0)=0, increasing,
    phi(t) -> infinity.  dphi (optional): derivative, used for conjugation.
    """

    phi: object
    dphi: object = None
    label: str = "custom"

    def __call__(self, t):
        return self.phi(np.asarray(t, dtype=float))

    def derivative(self, s):
        s = np.asarray(s, dtype=float)
        if self.dphi is not None:
            return self.dphi(s)
        eps = 1e-6
        h = np.maximum(np.abs(s), 1e-12) * eps
        return (self.phi(s + h) - self.phi(np.maximum(s - h, 0.0))) / (
            h + np.minimum(s, h))

    def inverse(self, y, hi0=1.0):
        """phi^{-1}(y) by doubling bracket + bisection (phi increasing)."""
        y = float(y)
        if y <= 0:
            return 0.0
        lo, hi = 0.0, hi0
        # 2,100 doublings or halvings span every float (2^-1074 to 2^1024)
        for _ in range(2100):
            if float(self.phi(hi)) >= y:
                break
            hi *= 2.0
        else:
            raise ValueError("could not bracket phi inverse")
        for _ in range(2100):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # no later step changes (lo+hi)/2, the result
            if float(self.phi(mid)) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def is_convex(self, grid=None, tol=1e-9):
        """Midpoint convexity test on a log grid (numerical certificate)."""
        grid = grid if grid is not None else np.geomspace(1e-6, 1e6, 200)
        a, b = grid[:-1], grid[1:]
        mid = 0.5 * (a + b)
        lhs = self(mid)
        rhs = 0.5 * (self(a) + self(b))
        scale = np.maximum(np.abs(rhs), 1e-300)
        return bool(np.all(lhs <= rhs * (1 + tol) + tol * scale))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def power(p, coeff=1.0):
        p, coeff = float(p), float(coeff)
        return YoungFunction(
            phi=lambda t: coeff * np.power(t, p),
            dphi=lambda t: coeff * p * np.power(t, p - 1.0),
            label=f"{coeff:g}*t^{p:g}" if coeff != 1.0 else f"t^{p:g}",
        )

    @staticmethod
    def zygmund(p, alpha):
        """phi(t) = t^p log^alpha(1+t)."""
        p, alpha = float(p), float(alpha)

        def phi(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                lg = np.log1p(t)
                out = np.where(t > 0, np.power(t, p) * np.power(lg, alpha), 0.0)
            return out

        def dphi(t):
            t = np.asarray(t, dtype=float)
            lg = np.log1p(t)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(
                    t > 0,
                    np.power(t, p - 1) * np.power(lg, alpha - 1)
                    * (p * lg + alpha * t / (1.0 + t)),
                    0.0,
                )
            return out

        return YoungFunction(phi=phi, dphi=dphi, label=f"t^{p:g}log^{alpha:g}(1+t)")

    @staticmethod
    def exp_minus_one():
        return YoungFunction(phi=lambda t: np.expm1(t), dphi=lambda t: np.exp(t),
                             label="e^t-1")

    @staticmethod
    def named(name):
        table = {
            "tlogt": lambda: YoungFunction.zygmund(1, 1),
            "t2": lambda: YoungFunction.power(2),
            "t2log2": lambda: YoungFunction.zygmund(2, 2),
            "exp": YoungFunction.exp_minus_one,
        }
        if name not in table:
            raise KeyError(f"unknown Young function {name!r}")
        return table[name]()


def _conjugate_argmax(phi, t, s_floor=1e-14):
    """s*(t) maximizing t*s - phi(s): solves phi'(s) = t (phi convex)."""
    t = float(t)
    if t <= 0:
        return 0.0
    if float(phi.derivative(s_floor)) >= t:
        return 0.0
    hi = 1.0
    for _ in range(300):
        if float(phi.derivative(hi)) >= t:
            break
        hi *= 2.0
    else:
        raise OverflowError("phi' stays below t; conjugate is infinite there")
    lo = s_floor
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # no later step changes (lo+hi)/2, the result
        if float(phi.derivative(mid)) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def young_conjugate(phi, check_convex=True, check_young=True):
    """phi*(t) = max_{s>=0} (t s - phi(s)) via the monotone-slope solve.

    Postcondition (checked): Young's inequality st <= phi(s) + phi*(t) on a
    sample grid.  Conjugating twice recovers phi on convex inputs.
    """
    if check_convex and not phi.is_convex():
        raise ValueError("young_conjugate requires a (numerically) convex phi")

    def star_scalar(t):
        s = _conjugate_argmax(phi, t)
        return t * s - float(phi(s))

    def star(t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.float64(star_scalar(float(t)))
        return np.array([star_scalar(x) for x in t.ravel()]).reshape(t.shape)

    def dstar(t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.float64(_conjugate_argmax(phi, float(t)))
        return np.array([_conjugate_argmax(phi, x) for x in t.ravel()]).reshape(t.shape)

    out = YoungFunction(phi=star, dphi=dstar, label=f"({phi.label})*")
    if check_young:
        ss = np.geomspace(1e-3, 1e3, 13)
        tt = np.geomspace(1e-3, 1e3, 13)
        # each value is computed once, not once per (s, t) pair
        out_tt = [float(out(t)) for t in tt]
        for s in ss:
            phi_s = float(phi(s))
            for t, out_t in zip(tt, out_tt):
                lhs = s * t
                rhs = phi_s + out_t
                if lhs > rhs * (1 + 1e-8) + 1e-10:
                    raise AssertionError("Young inequality violated by conjugate")
    return out


def delta2_check(phi, s_range=(1e-3, 1e6), samples=121):
    """Doubling check phi(2s) <= k phi(s) over a log grid.

    Returns {"delta2": bool, "k": max ratio, "escape": trend flag}.  Failure
    is certified by monotone escape of the ratio across the top decade (a raw
    max is always finite on a finite range).
    """
    ss = np.geomspace(s_range[0], s_range[1], samples)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = np.asarray(phi(2 * ss), dtype=float) / np.asarray(phi(ss), dtype=float)
    ratios = ratios[np.isfinite(ratios)]
    top = ratios[-max(8, samples // 10):]
    escape = bool(np.all(np.diff(top) > 0) and top[-1] >= 1.10 * top[0])
    huge = bool(np.any(~np.isfinite(np.asarray(phi(2 * ss), dtype=float))))
    delta2 = not (escape or huge)
    return {"delta2": delta2, "k": float(np.max(ratios)), "escape": escape or huge,
            "ratios": ratios}


def dominates(phi1, phi2, mode="near-infinity", k_grid=None, samples=161):
    """Desk-scale certificate for phi1(s) <= phi2(k s).

    Verdict: True iff some k in the grid satisfies the inequality on the
    sampled range AND the tail ratio phi1(s)/phi2(ks) is non-increasing over
    the last two decades (1% slack).  The trend condition is what separates
    true domination from the spurious finite-range kind.
    """
    if mode == "near-infinity":
        ss = np.geomspace(1.0, 1e8, samples)
    elif mode == "global":
        ss = np.geomspace(1e-6, 1e8, samples)
    else:
        raise ValueError("mode must be 'near-infinity' or 'global'")
    k_grid = k_grid if k_grid is not None else np.geomspace(1e-2, 1e3, 26)
    decades = (math.log10(ss[-1]) - math.log10(ss[0]))
    tail_len = max(4, int(round(2 * (samples - 1) / decades)))
    for k in k_grid:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            v1 = np.asarray(phi1(ss), dtype=float)
            v2 = np.asarray(phi2(k * ss), dtype=float)
        if not np.all(np.isfinite(v2)):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = v1 / v2
        ok = np.all(v1 <= v2 * (1 + 1e-12))
        if not ok:
            continue
        tail = ratio[-tail_len:]
        tail = tail[np.isfinite(tail)]
        # aggregate trend: per-step slack would let slowly growing (log-like)
        # ratios through, so the whole tail must stay within 1% of its start
        # and of its midpoint
        if tail.size >= 2:
            ceiling = (1 + 1e-2) * min(tail[0], tail[tail.size // 2])
            if tail[-1] <= ceiling and np.max(tail) <= (1 + 1e-2) * tail[0]:
                return {"dominates": True, "k": float(k)}
    return {"dominates": False, "k": None}


def hardy_bracket_check(phi, s):
    """Check the bracket t^s <= phi (near infinity, up to scaling) <= t^s log(1+t).

    The two-sided condition under which the Orlicz Hardy-type bound operates.
    """
    lower = dominates(YoungFunction.power(s), phi, mode="near-infinity")
    upper = dominates(phi, YoungFunction.zygmund(s, 1), mode="near-infinity")
    return {"ok": lower["dominates"] and upper["dominates"],
            "lower": lower, "upper": upper}


# ---------------------------------------------------------------------------
# integral norms on grid fields
# ---------------------------------------------------------------------------

def _magnitude(f):
    if isinstance(f, GridField):
        return np.sqrt(np.sum(f.values**2, axis=-1)), f.cell_volume
    raise TypeError("expected a GridField")


def lebesgue_norm(f, p):
    if p < 1:
        raise ValueError("p must be >= 1")
    mag, cv = _magnitude(f)
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * cv) ** (1.0 / p))


def zygmund_norm(f, p, alpha):
    """(∫ |f|^p log^alpha(1 + |f|/||f||_p))^{1/p} by grid quadrature.

    alpha = 0 collapses bit-for-bit to lebesgue_norm (log^0 = 1.0 exactly).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1 and alpha < 0:
        raise ValueError("p = 1 requires alpha >= 0")
    mag, cv = _magnitude(f)
    base = float((np.sum(mag**p) * cv) ** (1.0 / p))
    if base == 0.0:
        return 0.0
    weight = np.log1p(mag / base) ** alpha if alpha != 0 else 1.0
    with np.errstate(invalid="ignore"):
        integrand = mag**p * weight
    integrand = np.where(mag > 0, integrand, 0.0)
    return float((np.sum(integrand) * cv) ** (1.0 / p))


def luxemburg_norm(f, phi, tol=1e-8):
    """Smallest lam with ∫ phi(|f|/lam) <= 1, by bracketing + bisection.

    The integral is monotone decreasing in lam, so the bracket
    [||f||_1/(vol phi^{-1}(1)), ||f||_inf/phi^{-1}(1/vol)] (geometrically
    expanded on failure) always contains the root.
    """
    mag, cv = _magnitude(f)
    if not np.all(np.isfinite(mag)):
        raise ValueError("field has non-finite values")
    if np.max(mag) == 0.0:
        return 0.0
    vol = cv * mag.size

    def G(lam):
        with np.errstate(over="ignore"):
            vals = np.asarray(phi(mag / lam), dtype=float)
        if not np.all(np.isfinite(vals)):
            return math.inf
        return float(np.sum(vals) * cv)

    l1 = float(np.sum(mag) * cv)
    linf = float(np.max(mag))
    lo = l1 / (vol * phi.inverse(1.0)) if l1 > 0 else 1e-300
    hi = linf / phi.inverse(1.0 / vol)
    for _ in range(200):
        if G(lo) >= 1.0:
            break
        lo /= 2.0
    for _ in range(200):
        if G(hi) <= 1.0:
            break
        hi *= 2.0
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if G(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# negative Sobolev / fractional / Holder
# ---------------------------------------------------------------------------

def neg_sobolev_norm(f, l, inner, strict=True):
    """|xi|^{-l} multiplier then the inner norm (NormTag or callable).

    strict: error on non-mean-zero input; lenient subtracts the mean.
    """
    mean = f.integral() / f.volume
    scale = lebesgue_norm(f, 2) / math.sqrt(f.volume) + 1e-300
    if np.max(np.abs(mean)) > 1e-10 * scale:
        if strict:
            raise ValueError("neg_sobolev_norm (strict): field has nonzero mean")
        f = GridField(f.values - mean, f.period)
    rec = Spectrum(f)
    with np.errstate(divide="ignore"):
        lift = np.where(rec.mag > 0, rec.mag ** -l, 0.0)
    lifted = GridField(rec.inverse(lift), f.period)
    if callable(inner) and not isinstance(inner, NormTag):
        return inner(lifted)
    return evaluate_norm(lifted, inner)


def _flat_points(f):
    grids = f.meshgrid()
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    vals = f.values.reshape(-1, f.dimV)
    return pts, vals


def _periodic_dist2(px, py, period):
    d = np.abs(px[:, None, :] - py[None, :, :])
    for i, p in enumerate(period):
        d[:, :, i] = np.minimum(d[:, :, i], p - d[:, :, i])
    return np.sum(d**2, axis=-1)


def gagliardo_seminorm(f, beta, p, method="double-sum", tile=2048):
    """Fractional seminorm (∬ |f(x)-f(y)|^p / d(x,y)^{n+beta p})^{1/p}.

    double-sum: tiled O(N^2) over grid pairs with the periodic distance,
    coincident points excluded.  fourier (p=2 only): exact per-mode periodic
    kernel in 1D, asymptotic |xi|^{2 beta} weight in higher dimensions
    (equivalent seminorm; used where the double sum is infeasible).
    """
    if not (0 < beta < 1):
        raise ValueError("beta must lie in (0,1)")
    if method == "fourier":
        return _gagliardo_fourier(f, beta, p)
    pts, vals = _flat_points(f)
    n = f.n
    cv = f.cell_volume
    npts = pts.shape[0]
    total = 0.0
    expo = n + beta * p
    for i0 in range(0, npts, tile):
        px = pts[i0 : i0 + tile]
        vx = vals[i0 : i0 + tile]
        for j0 in range(0, npts, tile):
            py = pts[j0 : j0 + tile]
            vy = vals[j0 : j0 + tile]
            d2 = _periodic_dist2(px, py, f.period)
            diff = np.sqrt(np.sum((vx[:, None, :] - vy[None, :, :]) ** 2, axis=-1))
            with np.errstate(divide="ignore", invalid="ignore"):
                contrib = diff**p / d2 ** (expo / 2.0)
            contrib[d2 == 0.0] = 0.0
            total += float(np.sum(contrib))
    return (total * cv * cv) ** (1.0 / p)


def _periodic_frac_kernel(m, beta, period):
    """K(m) = ∫_{-P/2}^{P/2} |e^{i 2pi m h/P} - 1|^2 / |h|^{1+2 beta} dh."""
    from scipy.integrate import quad
    w = 2 * math.pi * m / period

    def integrand(h):
        return (2.0 - 2.0 * math.cos(w * h)) / h ** (1.0 + 2.0 * beta)

    val, _ = quad(integrand, 0.0, period / 2.0, limit=200)
    return 2.0 * val


def _gagliardo_fourier(f, beta, p):
    if p != 2:
        raise ValueError("fourier method requires p = 2")
    fhat = fft(f) / np.prod(f.shape)
    if f.n == 1:
        ms = np.fft.fftfreq(f.shape[0], d=1.0 / f.shape[0]).astype(int)
        kernel = np.array([0.0 if m == 0 else _periodic_frac_kernel(abs(m), beta, f.period[0])
                           for m in ms])
        total = f.period[0] * np.sum(kernel[:, None] * np.abs(fhat) ** 2)
        return float(math.sqrt(total))
    # higher dimensions: asymptotic weight c(n,beta)|xi|^{2 beta}
    weight = Spectrum(f).mag ** (2 * beta)
    total = f.volume * np.sum(weight[..., None] * np.abs(fhat) ** 2)
    return float(math.sqrt(total))


def _annulus_index(m):
    """Dyadic annulus j with 2^{j-1} < |m|_inf <= 2^j (exact on big ints)."""
    mag = max(abs(int(x)) for x in m)
    if mag == 0:
        return -1
    return (mag - 1).bit_length()


def besov_block_sums(f):
    """Amplitude l^1 sums per dyadic annulus: {j: sum of |amplitudes|}."""
    blocks = {}
    for m, amp in f.terms.items():
        j = _annulus_index(m)
        if j < 0:
            continue
        blocks[j] = blocks.get(j, 0.0) + float(np.sum(np.abs(amp)))
    return blocks


def besov_sup(f, alpha):
    """Besov-block Holder surrogate of a TrigPoly: max over dyadic annuli j
    of 2^{alpha j} times the block's amplitude sum (0.0 for a constant)."""
    blocks = besov_block_sums(f)
    if not blocks:
        return 0.0
    return max(2.0 ** (alpha * j) * s for j, s in blocks.items())


def holder_seminorm(f, alpha):
    """C^{0,alpha} seminorm of a TrigPoly by the Besov-block surrogate
    (besov_sup); exact on single-product blocks, an upper bound in general.
    alpha lies in (0,1): the dyadic-block route does not see alpha = 1."""
    if not (0 < alpha < 1):
        raise ValueError("alpha must lie in (0,1)")
    if not isinstance(f, TrigPoly):
        raise TypeError("holder_seminorm expects a TrigPoly")
    return besov_sup(f, alpha)


# ---------------------------------------------------------------------------
# local maximal function / local Hardy norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaximalConfig:
    kernel: object = standard_bump
    tLevels: int = 24
    tMax: float = 1.0

    def t_grid(self, f):
        h = max(p / s for p, s in zip(f.period, f.shape))
        t_hi = min(self.tMax, min(f.period) / 2.0)
        t_lo = min(h, t_hi / 2.0)
        return np.geomspace(t_lo, t_hi, self.tLevels)


def local_maximal(f, cfg=MaximalConfig(), kernel_hats=None):
    """M_loc f = sup over the scale grid of |f * kernel_t| (pointwise).

    kernel_hats: a kernel set shared across fields on one grid (see
    field.mollified)."""
    if f.dimV != 1:
        raise ValueError("local maximal function acts on scalar fields")
    rec = Spectrum(f)
    if not kernel_hats:
        # the radius grid that the kernels read, built before the
        # accumulator is allocated, so that its meshgrid temporaries are
        # gone by then
        _radius = rec.radius
    out = np.abs(f.values[..., 0])  # the t -> 0 member of the sup
    for sm in mollified(rec, cfg.t_grid(f), cfg.kernel, kernel_hats):
        np.maximum(out, np.abs(sm[..., 0]), out=out)
    return GridField(out[..., None], f.period)


def _ball_mask(f, R):
    """The grid points within periodic distance R of the box midpoint."""
    return _midpoint_dist2(f.meshgrid(), f.period) <= R * R


def local_hardy_norms(fields, R, cfg=MaximalConfig()):
    """[local_hardy_norm(f, R, cfg) for f in fields], taking the
    fields one at a time from any iterable.

    Consecutive fields on one grid share the ball and the set of
    cfg.tLevels kernel half-spectra: the first field's sweep builds the
    set, and the next fields only read it.  A field on another grid starts
    a new set (the old one is dropped first), and the set is freed on
    return, so no kernel outlives the call.
    """
    norms, grid = [], None
    for f in fields:
        if (f.shape, f.period) != grid:
            grid, kernel_hats = (f.shape, f.period), []
            mask = _ball_mask(f, R)
        mf = local_maximal(f, cfg, kernel_hats).values[..., 0]
        norms.append(float(np.sum(mf[mask]) * f.cell_volume))
        del mf  # not held through the next field's sweep
    return norms


def local_hardy_norm(f, R, cfg=MaximalConfig()):
    """∫_{B_R(c)} M_loc f dx, c the box midpoint."""
    return local_hardy_norms([f], R, cfg)[0]


# ---------------------------------------------------------------------------
# NormTag parsing / evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormTag:
    variant: str
    params: dict = dc_field(default_factory=dict)
    inner: object = None  # nested NormTag for negsob

    def __str__(self):
        parts = [f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in self.params.items()]
        if self.inner is not None:
            parts.append(f"inner={self.inner}")
        return self.variant + (":" + ",".join(parts) if parts else "")


_PARAM_KEYS = {"p": "p", "a": "alpha", "b": "beta", "l": "l", "R": "R"}


def parse_norm_tag(text):
    """Parse CLI norm strings like 'zygmund:p=2,a=2' or
    'negsob:l=1,inner=zygmund:p=2,a=2'."""
    text = text.strip()
    variant, _, rest = text.partition(":")
    variant = variant.lower()
    params, inner = {}, None
    if rest:
        if "inner=" in rest:
            head, _, inner_text = rest.partition("inner=")
            inner = parse_norm_tag(inner_text)
            rest = head.rstrip(",")
        for part in filter(None, rest.split(",")):
            k, _, v = part.partition("=")
            k = _PARAM_KEYS.get(k.strip(), k.strip())
            try:
                params[k] = float(v)
            except ValueError:
                params[k] = v.strip()
    known = {"lebesgue", "zygmund", "orlicz", "negsob", "gagliardo", "holder", "hardy"}
    if variant not in known:
        raise ValueError(f"unknown norm variant {variant!r}")
    if variant == "negsob" and inner is None:
        raise ValueError("negsob requires inner=<tag>")
    return NormTag(variant=variant, params=params, inner=inner)


def evaluate_norm(f, tag):
    if isinstance(tag, str):
        tag = parse_norm_tag(tag)
    v, p = tag.variant, tag.params
    if v == "lebesgue":
        return lebesgue_norm(f, p.get("p", 2))
    if v == "zygmund":
        return zygmund_norm(f, p.get("p", 2), p.get("alpha", 0))
    if v == "orlicz":
        phi = p.get("phi")
        phi = YoungFunction.named(phi) if isinstance(phi, str) else phi
        return luxemburg_norm(f, phi)
    if v == "negsob":
        return neg_sobolev_norm(f, int(p.get("l", 1)), tag.inner,
                                strict=bool(p.get("strict", 0)))
    if v == "gagliardo":
        return gagliardo_seminorm(f, p.get("beta", 0.5), p.get("p", 2),
                                  method=p.get("method", "double-sum"))
    if v == "holder":
        return holder_seminorm(f, p.get("alpha", 0.5))
    if v == "hardy":
        return local_hardy_norm(f, p.get("R", 1.0))
    raise ValueError(f"unknown norm variant {v!r}")
