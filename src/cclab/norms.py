"""Norms and the Orlicz-function toolbox.

Covers Young functions (the Zygmund scale t^p log^alpha(1+t) among them)
with their inverses and conjugates, the Delta_2 doubling check and
domination between Young functions; Lebesgue and Orlicz (Luxemburg) norms
of grid fields; the Besov-block Holder surrogate of a TrigPoly; and the
local maximal function with the local Hardy norm.

Desk-scale caveat recorded once here: asymptotic properties (Delta_2 failure,
non-domination) are certified by monotone-trend diagnostics over declared
sample ranges, since any finite range alone cannot decide them.
"""

from __future__ import annotations

import functools
import math
import queue
import struct
from dataclasses import dataclass

import numpy as np

from .field import (GridField, Spectrum, _helper, _periodic_dist2,
                    kernel_hat, mollify_into)

__all__ = [
    "YoungFunction",
    "lebesgue_norm",
    "luxemburg_norm",
    "young_conjugate",
    "delta2_check",
    "dominates",
    "hardy_bracket_check",
    "besov_sup",
    "local_maximal",
    "local_hardy_norm",
    "local_hardy_norms",
]


# ---------------------------------------------------------------------------
# Young functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YoungFunction:
    """Orlicz/Young function descriptor.

    phi: vectorized callable on nonnegative arguments, phi(0)=0, increasing,
    phi(t) -> infinity.  dphi: its derivative, used for conjugation.
    """

    phi: object
    dphi: object
    label: str = "custom"

    def __call__(self, t):
        return self.phi(np.asarray(t, dtype=float))

    def derivative(self, s):
        return self.dphi(np.asarray(s, dtype=float))

    def inverse(self, y, hi0=1.0):
        """phi^{-1}(y): a doubling bracket from hi0, then the bisection's
        root on it for phi(s) >= y, reached in a few evaluations of phi
        (_first_crossing; phi increasing)."""
        y = float(y)
        if y <= 0:
            return 0.0
        # phi(0) = 0 places the first secant point; 0 is never evaluated
        below, hi = (0.0, 0.0), hi0
        # 2,100 doublings or halvings span every float (2^-1074 to 2^1024)
        for _ in range(2100):
            f_hi = float(self.phi(hi))
            if f_hi >= y:
                break
            below = (hi, f_hi)
            hi *= 2.0
        else:
            raise ValueError("could not bracket phi inverse")
        return _first_crossing(self.phi, y, 0.0, hi, f_hi, below, 2100)

    def is_convex(self):
        """Midpoint convexity test on a log grid (numerical certificate)."""
        grid = np.geomspace(1e-6, 1e6, 200)
        # phi once on the grid and once on the midpoints
        values = self(grid)
        lhs = self(0.5 * (grid[:-1] + grid[1:]))
        rhs = 0.5 * (values[:-1] + values[1:])
        scale = np.maximum(np.abs(rhs), 1e-300)
        return bool(np.all(lhs <= rhs * (1 + 1e-9) + 1e-9 * scale))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def power(p):
        p = float(p)
        return YoungFunction(phi=lambda t: np.power(t, p),
                             dphi=lambda t: p * np.power(t, p - 1.0),
                             label=f"t^{p:g}")

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


# -- the bisection's root in few evaluations ---------------------------------

_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")
# Floats on each side of the secant steps' crossing at whose midpoints the
# bisection still evaluates f: there a rounded formula for f, such as
# log1p(s) + s/(1 + s), can step back by an ulp and make the bisection pick
# another crossing.
_NEAR = 4
# Steps the secant phase may take beyond a bisection of the float ordinals.
_SLACK = 5


def _ordinal(x):
    """Index of a float x >= 0 in the ordered floats: 0.0 is 0 and
    adjacent floats differ by 1 (the bit pattern read as an integer)."""
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _from_ordinal(i):
    return _DOUBLE.unpack(_INT64.pack(i))[0]


_INF_ORDINAL = _ordinal(math.inf)


def _secant_point(lo, f_lo, hi, f_hi, y, w_lo, w_hi):
    """Where the secant through (lo, w_lo (f_lo - y)) and (hi, w_hi (f_hi -
    y)) meets 0: on log-log axes where the logs exist (exact for powers
    t^p), else on linear axes; nan where neither applies (f_hi infinite or
    nan).  Needs f_lo < y <= f_hi and positive weights."""
    if not f_hi < math.inf:
        return math.nan
    if lo > 0 and f_lo > 0:
        ratio, r_lo = hi / lo, f_lo / y
        if ratio < math.inf and r_lo > 0:
            g_lo, g_hi = w_lo * math.log(r_lo), w_hi * math.log(f_hi / y)
            return lo * ratio ** (g_lo / (g_lo - g_hi))
    g_lo, g_hi = w_lo * (f_lo - y), w_hi * (f_hi - y)
    d = g_hi - g_lo  # 0 where a weighted residual underflows
    return lo - g_lo * ((hi - lo) / d) if d > 0 else math.nan


def _secant_crossing(f, y, lo, f_lo, hi, f_hi, seen):
    """Adjacent floats lo < hi with f(lo) < y <= f(hi), from a bracket
    [lo, hi] of floats >= 0 with f(lo) = f_lo < y <= f(hi) = f_hi.

    Each step evaluates the secant point of the bracket (_secant_point) with
    the Illinois weights (the residual of an end kept twice in a row is
    halved), moved one float inside the bracket if it falls on an end.  The
    point is then held within a radius of the middle of the bracket's float
    ordinals that shrinks as ITP's projection does (Oliveira & Takahashi,
    ACM TOMS 2020), so that the bracket is never wider than a bisection of
    the ordinals leaves it after _SLACK fewer steps: at most 63 + _SLACK
    evaluations, whatever f does.  Each evaluation goes into seen.
    """
    a, b = _ordinal(lo), _ordinal(hi)
    steps = (b - a - 1).bit_length() + _SLACK
    w_lo = w_hi = 1.0  # Illinois weights of f_lo - y and f_hi - y
    kept = 0  # +1 after a step that moved lo, -1 after one that moved hi
    for n in range(steps):
        if b - a <= 1:
            break
        x = _secant_point(lo, f_lo, hi, f_hi, y, w_lo, w_hi)
        if math.isnan(x):
            i = (a + b) // 2
        elif x <= lo:
            i = a + 1
        elif x >= hi:
            i = b - 1
        else:
            i = _ordinal(x)
        # twice the radius: the width after this step is at most
        # 2^(steps - n - 1), which reaches 1 by the last step
        r2 = (1 << (steps - n)) - (b - a)
        i = min(max(i, (a + b - r2 + 1) // 2), (a + b + r2) // 2)
        x = _from_ordinal(i)
        fx = seen[x] = float(f(x))
        if fx < y:
            lo, a, f_lo, w_lo = x, i, fx, 1.0
            if kept == 1:
                w_hi *= 0.5
            kept = 1
        else:
            hi, b, f_hi, w_hi = x, i, fx, 1.0
            if kept == -1:
                w_lo *= 0.5
            kept = -1
    return lo, hi


def _first_crossing(f, y, lo, hi, f_hi, below, steps):
    """The root that bisection of [lo, hi] for f(s) >= y returns.

    The bisection: mid = 0.5 * (lo + hi) replaces lo if f(mid) < y and hi
    otherwise, until mid equals lo or hi (adjacent floats, or an overflowed
    mid) or for at most `steps` steps; it returns 0.5 * (lo + hi).  f(lo)
    is never evaluated; f_hi = f(hi) >= y.

    Secant steps (_secant_crossing) first find the crossing: adjacent
    floats c0 < c1 with f(c0) < y <= f(c1), starting from below = (s,
    f(s)), a point of [lo, hi) with f(s) < y.  The
    bisection then evaluates f only at midpoints within _NEAR floats of the
    crossing; a midpoint farther off lies below y iff it is below c0, and
    a midpoint the secant steps evaluated is not evaluated again.

    Contract: the returned bits are the bisection's own whenever f(s) < y
    holds on the floats of (lo, hi] up to some point and fails after it,
    except within _NEAR floats of c0 and c1 (f non-decreasing on floats,
    give or take a few ulp-sized steps back).  Such a crossing is unique,
    so every path to it ends on the same pair of floats.
    """
    near_lo, near_hi, seen = -math.inf, math.inf, {}
    # below[0] and hi non-negative (not -0.0), in order, and hi finite
    if 0 <= _ordinal(below[0]) < _ordinal(hi) < _INF_ORDINAL:
        c0, c1 = _secant_crossing(f, y, *below, hi, f_hi, seen)
        near_lo = _from_ordinal(max(_ordinal(c0) - _NEAR, 0))
        near_hi = _from_ordinal(min(_ordinal(c1) + _NEAR, _INF_ORDINAL))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # no later step changes (lo+hi)/2, the result
        if mid < near_lo:
            lo = mid
        elif mid > near_hi:
            hi = mid
        else:
            f_mid = seen.get(mid)
            if (float(f(mid)) if f_mid is None else f_mid) < y:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _conjugate_argmax(phi, t):
    """s*(t) maximizing t*s - phi(s): the bisection's root of phi'(s) >= t
    on a doubling bracket (phi convex), reached in a few evaluations of
    phi' (_first_crossing)."""
    s_floor = 1e-14
    t = float(t)
    if t <= 0:
        return 0.0
    below = (s_floor, float(phi.derivative(s_floor)))
    if below[1] >= t:
        return 0.0
    hi = 1.0
    for _ in range(300):
        f_hi = float(phi.derivative(hi))
        if f_hi >= t:
            break
        below = (hi, f_hi)
        hi *= 2.0
    else:
        raise OverflowError("phi' stays below t; conjugate is infinite there")
    return _first_crossing(phi.derivative, t, s_floor, hi, f_hi, below, 200)


def young_conjugate(phi, check_young=True):
    """phi*(t) = max_{s>=0} (t s - phi(s)) via the monotone-slope solve.

    Postcondition (checked): Young's inequality st <= phi(s) + phi*(t) on a
    sample grid.  Conjugating twice recovers phi on convex inputs.
    """
    if not phi.is_convex():
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


DELTA2_TREND = 12  # the top finite ratios whose trend decides Delta_2


def delta2_check(phi):
    """Doubling check phi(2s) <= k phi(s) over a log grid.

    Returns {"delta2", "k", "finite"}: the verdict, the max of the finite
    ratios phi(2s)/phi(s) on the grid and their count.  Failure is certified
    by monotone escape of the last DELTA2_TREND of them (a raw max is always
    finite on a finite range); fewer decide nothing (delta2 None, k nan).
    """
    ss = np.geomspace(1e-3, 1e6, 121)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = np.asarray(phi(2 * ss), dtype=float) / np.asarray(phi(ss), dtype=float)
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < DELTA2_TREND:
        return {"delta2": None, "k": math.nan, "finite": ratios.size}
    top = ratios[-DELTA2_TREND:]
    escape = bool(np.all(np.diff(top) > 0) and top[-1] >= 1.10 * top[0])
    return {"delta2": not escape, "k": float(np.max(ratios)),
            "finite": ratios.size}


def dominates(phi1, phi2):
    """Desk-scale certificate for phi1(s) <= phi2(k s) near infinity.

    Verdict: True iff some k in the grid satisfies the inequality on s in
    [1, 1e8] AND the tail ratio phi1(s)/phi2(ks) is non-increasing over the
    last two decades (1% slack).  The trend condition is what separates
    true domination from the spurious finite-range kind.
    """
    samples = 161
    ss = np.geomspace(1.0, 1e8, samples)
    decades = (math.log10(ss[-1]) - math.log10(ss[0]))
    tail_len = max(4, int(round(2 * (samples - 1) / decades)))
    for k in np.geomspace(1e-2, 1e3, 26):
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
    lower = dominates(YoungFunction.power(s), phi)
    upper = dominates(phi, YoungFunction.zygmund(s, 1))
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
    return _lp_norm(*_magnitude(f), p)


def _lp_norm(mag, cv, p):
    """L^p norm from the pointwise magnitude and the cell volume."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * cv) ** (1.0 / p))


def luxemburg_norm(f, phi):
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
        if hi - lo <= 1e-8 * hi:
            break
    return 0.5 * (lo + hi)


def _annulus_index(m):
    """Dyadic annulus j with 2^{j-1} < |m|_inf <= 2^j (exact on big ints)."""
    mag = max(abs(int(x)) for x in m)
    if mag == 0:
        return -1
    return (mag - 1).bit_length()


def besov_block_sums(f):
    """Amplitude l^1 sums per dyadic annulus: {j: sum of |amplitudes|}."""
    blocks = {}
    for m, amp in zip(f.keys, f.amps):
        j = _annulus_index(m)
        if j < 0:
            continue
        blocks[j] = blocks.get(j, 0.0) + float(np.sum(np.abs(amp)))
    return blocks


def besov_sup(f, alpha):
    """Besov-block Holder surrogate of a TrigPoly: max over dyadic annuli j
    of 2^{alpha j} times the block's amplitude sum (0.0 for a constant)."""
    return max((2.0 ** (alpha * j) * s
                for j, s in besov_block_sums(f).items()), default=0.0)


# ---------------------------------------------------------------------------
# local maximal function / local Hardy norm
# ---------------------------------------------------------------------------

# local_maximal's scales: T_LEVELS of them, up to T_MAX (see t_grid)
T_LEVELS = 24
T_MAX = 1.0


def t_grid(f):
    """The scales of local_maximal on f's grid, from one cell (or half the
    top scale, if less) up to the top scale."""
    h = max(p / s for p, s in zip(f.period, f.shape))
    t_hi = min(T_MAX, min(f.period) / 2.0)
    t_lo = min(h, t_hi / 2.0)
    return np.geomspace(t_lo, t_hi, T_LEVELS)


def _max_into(acc, rec, todo, buf, vals, rows):
    """Fold |f * kernel| into one half's running max acc, kernel by kernel
    as they come in on todo, the queue.SimpleQueue that both halves share,
    up to its None: the half that takes None puts it back for the other.
    Each scale is field.mollify_into into the half's own buf and vals,
    whose values take abs in place; every write goes through out=."""
    while (khat := todo.get()) is not None:
        np.abs(mollify_into(rec, khat, buf, vals, rows), out=vals)
        np.maximum(acc, vals[..., 0], out=acc)
    todo.put(None)


def local_maximal(f, kernel_hats=None, rows=None):
    """M_loc f = sup over the scale grid (t_grid) of |f * kernel_t|
    (pointwise), as a GridField.

    kernel_hats, a list, holds a kernel set shared across fields on one
    grid: field.kernel_hat at each scale of t_grid, in scale order.  An
    empty list is filled here, once every kernel is built; a filled one is
    only read.  rows, a slice of the first axis (two or more axes),
    computes M_loc f on those rows alone and returns it as an array of
    the rows' shape; each value keeps the bits of the whole grid's.

    The sweep runs in two halves, on the caller's thread and on the one
    helper thread (field._helper, a job of functools.partial(_max_into,
    ...)), which take the kernels in turn from one queue.  The caller's
    thread allocates everything: the transform and the helper's
    product buffer, inverse output and running max; then the kernels, in
    scale order, each queued as it is built, so that the helper sweeps
    while the set is being built; then its own buffer, output and max, and
    it sweeps what is left.  A bad scale raises once the helper has
    stopped, before the caller sweeps.  The halves only write into their
    own arrays, through out=, and read the shared transform and kernels.
    Once both have stopped, their maxima are merged with np.maximum: max
    is exact and order-free, so every value keeps the bits of one sweep in
    scale order, whichever half took each scale.  np.maximum keeps a nan,
    so a non-finite value at any scale reaches the merged max, which raises
    then."""
    if f.dimV != 1:
        raise ValueError("local maximal function acts on scalar fields")
    rec = Spectrum(f)
    band = slice(None) if rows is None else rows
    shape = f.values[band].shape
    acc = np.zeros(shape[:-1])
    todo, reply = queue.SimpleQueue(), queue.SimpleQueue()
    _helper().put((functools.partial(_max_into, acc, rec, todo,
                                     np.empty_like(rec.hat), np.empty(shape),
                                     band), reply))
    try:
        try:
            built = []
            for khat in kernel_hats or (kernel_hat(rec, t) for t in t_grid(f)):
                built.append(khat)
                todo.put(khat)
            if kernel_hats is not None:
                kernel_hats[:] = built
        finally:
            todo.put(None)  # no kernel follows
        out = np.abs(f.values[band, ..., 0])  # the t -> 0 member of the sup
        _max_into(out, rec, todo, np.empty_like(rec.hat), np.empty(shape),
                  band)
    finally:
        error = reply.get()  # the helper's half has stopped
    if error is not None:
        raise error
    np.maximum(out, acc, out=out)
    if not np.all(np.isfinite(out)):
        raise ValueError("field values must be finite")
    return GridField(out[..., None], f.period) if rows is None else out


def _ball_mask(f, R):
    """The grid points within periodic distance R of the box midpoint."""
    midpoint = tuple(p / 2 for p in f.period)
    grids = np.meshgrid(*f.axes(), indexing="ij", sparse=True)
    return _periodic_dist2(grids, f.period, midpoint) <= R * R


def _ball_band(f, R):
    """The first-axis rows that meet _ball_mask(f, R), as a slice (every
    row of a 1-D grid, whose one transform cannot be cut), and the mask
    cut to them: it holds the ball's points in the mask's order."""
    mask = _ball_mask(f, R)
    if f.n == 1:
        return slice(None), mask
    hit = np.flatnonzero(mask.any(axis=tuple(range(1, f.n))))
    band = slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0)
    return band, mask[band]


def local_hardy_norms(fields, R):
    """[local_hardy_norm(f, R) for f in fields], taking the
    fields one at a time from any iterable.

    R must be positive and finite.  Each sweep runs on the band of
    first-axis rows that meets the ball (local_maximal's rows), whose ball
    points are the whole grid's in the same order: every norm keeps its
    bits.

    Consecutive fields on one grid share the ball and the set of
    T_LEVELS kernel half-spectra: the first field's sweep builds the
    set, and the next fields only read it.  A field on another grid starts
    a new set (the old one is dropped first), and the set is freed on
    return, so no kernel outlives the call.

    Each sweep is local_maximal's two halves, on the caller's thread and
    the helper thread, which share the scales and are merged exactly by
    np.maximum; the helper sweeps the first field's kernels as they are
    built.  The caller's thread builds the set and allocates each half's
    product buffer, inverse output and running max once per field; the
    helper allocates nothing.
    """
    if not (R > 0 and math.isfinite(R)):
        raise ValueError("ball radius R must be positive and finite, "
                         f"got {R!r}")
    norms, grid = [], None
    for f in fields:
        if (f.shape, f.period) != grid:
            grid, kernel_hats = (f.shape, f.period), []
            band, mask = _ball_band(f, R)
        mf = local_maximal(f, kernel_hats, band)
        norms.append(float(np.sum(mf[mask]) * f.cell_volume))
        del mf  # not held through the next field's sweep
    return norms


def local_hardy_norm(f, R):
    """∫_{B_R(c)} M_loc f dx, c the box midpoint."""
    return local_hardy_norms([f], R)[0]
