import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cclab import norms
from cclab.field import GridField, TrigPoly, random_bandlimited, standard_bump
from cclab.norms import (YoungFunction, _conjugate_argmax, lebesgue_norm,
                         luxemburg_norm, young_conjugate, delta2_check,
                         dominates, hardy_bracket_check, besov_sup,
                         besov_block_sums, local_maximal, local_hardy_norm,
                         local_hardy_norms, MaximalConfig)


def sine_field(N=128):
    x = np.arange(N) * 2 * math.pi / N
    return GridField(np.sin(x)[..., None], (2 * math.pi,))


def test_lebesgue_analytic_values():
    f = sine_field()
    # ||sin||_2 on (0, 2pi) = sqrt(pi); ||sin||_4 = (3 pi / 4)^{1/4}
    assert abs(lebesgue_norm(f, 2) - math.sqrt(math.pi)) < 1e-12
    assert abs(lebesgue_norm(f, 4) - (0.75 * math.pi) ** 0.25) < 1e-12
    assert abs(lebesgue_norm(f, math.inf) - 1.0) < 1e-12


def test_luxemburg_power_matches_lebesgue(rng):
    f = random_bandlimited(rng, (32, 32), 1, bandlimit=4)
    for p in (1.5, 2.0, 3.0):
        lux = luxemburg_norm(f, YoungFunction.power(p))
        assert abs(lux - lebesgue_norm(f, p)) < 1e-7 * max(1.0, lux)


@given(scale=st.floats(0.1, 10.0))
def test_luxemburg_homogeneous(scale):
    rng = np.random.default_rng(7)
    f = random_bandlimited(rng, (16, 16), 1, bandlimit=4)
    phi = YoungFunction.zygmund(2, 1)
    a = luxemburg_norm(f, phi)
    b = luxemburg_norm(GridField(scale * f.values, f.period), phi)
    assert abs(b - scale * a) < 1e-6 * max(1.0, scale * a)


def test_luxemburg_triangle(rng):
    phi = YoungFunction.zygmund(2, 1)
    f = random_bandlimited(rng, (16, 16), 1, bandlimit=4)
    g = random_bandlimited(rng, (16, 16), 1, bandlimit=4)
    s = GridField(f.values + g.values, f.period)
    assert luxemburg_norm(s, phi) <= (luxemburg_norm(f, phi)
                                      + luxemburg_norm(g, phi)) * (1 + 1e-6)


def test_young_conjugate_of_square():
    # (t^2/2)* = t^2/2 (self-conjugate up to the classical normalization)
    phi = YoungFunction(phi=lambda t: 0.5 * t**2, dphi=lambda t: t,
                        label="t^2/2")
    star = young_conjugate(phi)
    ts = np.geomspace(1e-2, 1e2, 25)
    assert np.max(np.abs(star(ts) - 0.5 * ts**2) / (0.5 * ts**2)) < 1e-6


# -- the bisections' fixed-point exit -------------------------------------------
# Reference copies of the solvers as they were before they stopped at their
# fixed point: every bisection ran all of its steps.  The inverse took 400
# doublings and 200 halvings at most until its caps were raised to 2,100.

def _inverse_all_steps(young, y, hi0=1.0, doublings=2100, halvings=2100):
    y = float(y)
    if y <= 0:
        return 0.0
    lo, hi = 0.0, hi0
    for _ in range(doublings):
        if float(young.phi(hi)) >= y:
            break
        hi *= 2.0
    else:
        raise ValueError("could not bracket phi inverse")
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if float(young.phi(mid)) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _conjugate_argmax_200(phi, t, s_floor=1e-14):
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
        if float(phi.derivative(mid)) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bits(solve, *args):
    """The result's exact bits (float.hex keeps the sign of zero), or the
    exception type."""
    try:
        with np.errstate(all="ignore"):
            return float(solve(*args)).hex()
    except (ValueError, OverflowError) as e:
        return type(e).__name__


_YOUNG = {
    "t2": YoungFunction.power(2),
    "t3/3": YoungFunction.power(3, 1 / 3),
    "t": YoungFunction.power(1),
    "tlogt": YoungFunction.zygmund(1, 1),
    "t2log": YoungFunction.zygmund(2, 1),
    "exp": YoungFunction.exp_minus_one(),
    # not Young functions: a bracket that doubles to inf, a jump to inf,
    # a nan above a threshold, and a finite-difference derivative
    "log1p": YoungFunction(phi=np.log1p, dphi=lambda t: 1.0 / (1.0 + t)),
    "inf-jump": YoungFunction(phi=lambda t: np.where(t < 1e3, t * t, np.inf)),
    "nan-jump": YoungFunction(phi=lambda t: np.where(t < 1e3, t * t, np.nan)),
}
_VALUES = (st.floats(allow_nan=True, allow_infinity=True)
           | st.floats(1e-300, 1e300)
           | st.sampled_from([1e-300, 5e-324, 1.0, 1e300, 1.7e308]))


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_YOUNG)), y=_VALUES,
       hi0=st.sampled_from([1.0, 1e-300, 0.5, 1e300, 1.7e308]))
@example(name="t2", y=1e300, hi0=1e300)  # past the old 200-step cap
@example(name="t", y=1.7e308, hi0=1.79e308)  # lo + hi overflows to inf
@example(name="log1p", y=1e3, hi0=1e300)  # the bracket doubles to inf
@example(name="inf-jump", y=1e300, hi0=1.0)
@example(name="nan-jump", y=2e6, hi0=1.0)
@example(name="t", y=1e-300, hi0=1.7e308)  # a secant fraction underflows
def test_inverse_exit_keeps_bits(name, y, hi0):
    young = _YOUNG[name]
    assert (_bits(young.inverse, y, hi0)
            == _bits(_inverse_all_steps, young, y, hi0))


@settings(max_examples=200)
@given(name=st.sampled_from(["t2", "t3/3", "t", "tlogt", "t2log", "exp"]),
       y=st.floats(1e-20, 1e20), hi0=st.sampled_from([1.0, 0.5]))
def test_inverse_keeps_bits_within_old_caps(name, y, hi0):
    # where 400 doublings and 200 halvings reached the root, the raised caps
    # change nothing
    young = _YOUNG[name]
    assert (_bits(young.inverse, y, hi0)
            == _bits(_inverse_all_steps, young, y, hi0, 400, 200))


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(_YOUNG)), t=_VALUES)
@example(name="t2", t=1e-300)
@example(name="exp", t=1e300)
@example(name="inf-jump", t=5.0)
@example(name="exp", t=1.8858053666315656e+185)  # slow for unguarded Illinois
@example(name="tlogt", t=3.0618515360839478)  # phi' steps back an ulp near s*
def test_conjugate_argmax_exit_keeps_bits(name, t):
    phi = _YOUNG[name]
    assert (_bits(_conjugate_argmax, phi, t)
            == _bits(_conjugate_argmax_200, phi, t))


@settings(max_examples=300)
@given(name=st.sampled_from(["t2", "tlogt"]), y=st.floats(1e-300, 1e300),
       hi0=st.sampled_from([1.0, 1e-300, 1e300]))
@example(name="t2", y=1e-300, hi0=1.0)  # 200 halvings stopped at 3.1e-61
@example(name="t2", y=1e300, hi0=1.0)  # 400 doublings stopped at 2.6e120
@example(name="t2", y=1e300, hi0=1e300)  # 200 halvings stopped short
def test_inverse_round_trip(name, y, hi0):
    young = _YOUNG[name]
    with np.errstate(over="ignore"):
        t = young.inverse(y, hi0)
    assert abs(float(young.phi(t)) - y) <= 1e-12 * y


@settings(max_examples=200)
@given(y=st.floats(1e-300, 1e300))
def test_inverse_of_square_ignores_the_bracket(y):
    # the bisection stops at the one pair of adjacent floats around the root
    # of a monotone phi, so no bracket a caller passes moves a bit
    young = _YOUNG["t2"]
    with np.errstate(over="ignore"):
        roots = {young.inverse(y, hi0) for hi0 in
                 (1.0, 1e-300, max(1.0, y), max(1.0, math.sqrt(y)))}
    assert len(roots) == 1


def _counted(young, attr):
    """young with its phi or dphi wrapped to count calls, and the count."""
    calls = [0]
    inner = getattr(young, attr)

    def counting(t):
        calls[0] += 1
        return inner(t)

    kwargs = {"phi": young.phi, "dphi": young.dphi, attr: counting}
    return YoungFunction(label=young.label, **kwargs), calls


# plain bisection takes 54 (inverse) and 58 (argmax) calls per solve here
def test_inverse_takes_few_evaluations():
    psi = YoungFunction.zygmund(2, 1)
    t2, calls = _counted(YoungFunction.power(2), "phi")
    # appendixOrlicz's inverses: y = psi(f(t)), f(t) = t^-1/2 log(1 + 1/t)^-c
    ts = np.geomspace(1e-300, 0.99, 400)
    ys = psi(ts ** -0.5 * np.log1p(1.0 / ts) ** (-9.0 / 8.0))
    with np.errstate(over="ignore"):
        for y in ys.tolist():
            t2.inverse(y, hi0=max(1.0, math.sqrt(y)))
    assert calls[0] / ys.size <= 16


def test_conjugate_argmax_takes_few_evaluations():
    cubic, calls = _counted(YoungFunction(phi=lambda t: t**3 / 3.0,
                                          dphi=lambda t: t**2), "dphi")
    ts = np.geomspace(1e-4, 1e4, 400)
    for t in ts:
        _conjugate_argmax(cubic, t)
    assert calls[0] / ts.size <= 16


def test_young_conjugate_of_square_keeps_bits():
    phi = YoungFunction(phi=lambda t: 0.5 * t**2, dphi=lambda t: t,
                        label="t^2/2")
    ts = np.geomspace(1e-3, 1e3, 41)
    want = []
    for t in ts:
        s = _conjugate_argmax_200(phi, t)
        want.append(t * s - float(phi(s)))
    assert young_conjugate(phi)(ts).tobytes() == np.array(want).tobytes()


def test_young_conjugate_round_trip_cubic():
    cubic = YoungFunction(phi=lambda t: t**3 / 3.0, dphi=lambda t: t**2,
                          label="t^3/3")
    star2 = young_conjugate(young_conjugate(cubic))
    ts = np.geomspace(1e-2, 1e2, 25)
    assert np.max(np.abs(star2(ts) - cubic(ts)) / cubic(ts)) < 1e-5


def test_delta2_verdicts():
    with np.errstate(over="ignore"):
        assert delta2_check(YoungFunction.zygmund(2, 1))["delta2"]
        assert delta2_check(YoungFunction.power(3))["delta2"]
        assert not delta2_check(YoungFunction.exp_minus_one())["delta2"]


def test_dominates_orders_zygmund_scale():
    t2 = YoungFunction.power(2)
    t2log = YoungFunction.zygmund(2, 1)
    assert dominates(t2, t2log)["dominates"]
    assert not dominates(t2log, t2)["dominates"]


def test_hardy_bracket_accepts_and_rejects():
    assert hardy_bracket_check(YoungFunction.zygmund(2, 0.5), 2.0)["ok"]
    assert not hardy_bracket_check(YoungFunction.zygmund(2, 2.0), 2.0)["ok"]


def test_besov_blocks_single_mode():
    tp = TrigPoly.wave(2, (8, 0), "cos", 2.0)
    blocks = besov_block_sums(tp)
    # |m|_inf = 8 lives in annulus j = 3; amplitude halves sum to 2
    assert set(blocks) == {3}
    assert abs(blocks[3] - 2.0) < 1e-14
    assert abs(besov_sup(tp, 0.5)
               - 2.0 ** (0.5 * 3) * 2.0) < 1e-12


def test_local_maximal_dominates_smooth_average(rng):
    f = random_bandlimited(rng, (64, 64), 1, bandlimit=4)
    mf = local_maximal(f)
    assert np.all(mf.values >= np.abs(f.values) - 1e-12)


def test_local_hardy_norm_constant():
    # constant c: every mollification returns c, so the norm is c |B_R|
    f = GridField(np.full((64, 64, 1), 2.0), (2 * math.pi, 2 * math.pi))
    val = local_hardy_norm(f, R=1.0)
    assert abs(val - 2.0 * math.pi) < 0.02 * 2.0 * math.pi


class _CountingBump:
    """standard_bump that counts its evaluations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, r):
        self.calls += 1
        return standard_bump(r)


def _hardy_fields(rng, shape, k, period=2 * math.pi):
    return [GridField(rng.normal(size=shape + (1,)), (period, period))
            for _ in range(k)]


@pytest.mark.parametrize("shape", [(32, 32), (33, 27)])
def test_local_hardy_norms_match_separate_calls_bitwise(rng, shape):
    fields = _hardy_fields(rng, shape, 4)
    cfg = MaximalConfig()
    separate = [local_hardy_norm(f, 1.0, cfg) for f in fields]
    shared = local_hardy_norms(iter(fields), 1.0, cfg)
    assert [x.hex() for x in shared] == [x.hex() for x in separate]
    assert local_hardy_norms([], 1.0) == []


def test_local_hardy_norms_build_each_kernel_once_per_grid(rng):
    kernel = _CountingBump()
    cfg = MaximalConfig(kernel=kernel)
    local_hardy_norms(_hardy_fields(rng, (32, 32), 5), 1.0, cfg)
    assert kernel.calls == cfg.tLevels  # not 5 * tLevels
    # a new grid (shape or period) starts a new set
    kernel.calls = 0
    a, b = _hardy_fields(rng, (32, 32), 2), _hardy_fields(rng, (24, 24), 2)
    c = _hardy_fields(rng, (32, 32), 1, period=5.0)
    fields = [a[0], a[1], b[0], b[1], c[0], a[0]]
    vals = local_hardy_norms(fields, 1.0, cfg)
    assert kernel.calls == 4 * cfg.tLevels
    assert [x.hex() for x in vals] == [
        local_hardy_norm(f, 1.0).hex() for f in fields]


def test_local_hardy_norms_keep_no_kernel_after_return(rng, monkeypatch):
    """Every kernel half-spectrum of the set dies with the call."""
    refs, original = [], norms.local_maximal

    def spy(f, cfg, kernel_hats=None):
        out = original(f, cfg, kernel_hats)
        refs.extend(weakref.ref(k) for k in kernel_hats)
        return out

    monkeypatch.setattr(norms, "local_maximal", spy)
    cfg = MaximalConfig()
    local_hardy_norms(_hardy_fields(rng, (32, 32), 3), 1.0, cfg)
    assert len(refs) == 3 * cfg.tLevels
    assert all(ref() is None for ref in refs)


def test_local_hardy_norms_raise_where_the_sweep_does():
    """A scale below grid resolution raises on the first field's sweep."""
    f = GridField(np.ones((8, 8, 1)), (2 * math.pi, 2 * math.pi))
    cfg = MaximalConfig(kernel=lambda r: np.zeros_like(r))
    with pytest.raises(ValueError, match="below grid resolution"):
        local_hardy_norms([f, f], 1.0, cfg)
