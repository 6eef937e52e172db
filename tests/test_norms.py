import collections
import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cclab import field as field_mod
from cclab import norms
from cclab.field import (GridField, Spectrum, TrigPoly, random_bandlimited,
                         standard_bump)
from cclab.norms import (YoungFunction, _conjugate_argmax, lebesgue_norm,
                         luxemburg_norm, young_conjugate, delta2_check,
                         dominates, hardy_bracket_check, besov_sup,
                         besov_block_sums, local_maximal, local_hardy_norm,
                         local_hardy_norms)


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
    f = random_bandlimited(rng, (32, 32), 1)
    for p in (1.5, 2.0, 3.0):
        lux = luxemburg_norm(f, YoungFunction.power(p))
        assert abs(lux - lebesgue_norm(f, p)) < 1e-7 * max(1.0, lux)


@given(scale=st.floats(0.1, 10.0))
def test_luxemburg_homogeneous(scale):
    rng = np.random.default_rng(7)
    f = random_bandlimited(rng, (16, 16), 1)
    phi = YoungFunction.zygmund(2, 1)
    a = luxemburg_norm(f, phi)
    b = luxemburg_norm(GridField(scale * f.values, f.period), phi)
    assert abs(b - scale * a) < 1e-6 * max(1.0, scale * a)


def test_luxemburg_triangle(rng):
    phi = YoungFunction.zygmund(2, 1)
    f = random_bandlimited(rng, (16, 16), 1)
    g = random_bandlimited(rng, (16, 16), 1)
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
    "t3/3": YoungFunction(phi=lambda t: t**3 / 3.0, dphi=lambda t: t**2),
    "t": YoungFunction.power(1),
    "tlogt": YoungFunction.zygmund(1, 1),
    "t2log": YoungFunction.zygmund(2, 1),
    "exp": YoungFunction.exp_minus_one(),
    # not Young functions: a bracket that doubles to inf, a jump to inf
    # and a nan above a threshold (phi and phi' alike)
    "log1p": YoungFunction(phi=np.log1p, dphi=lambda t: 1.0 / (1.0 + t)),
    "inf-jump": YoungFunction(phi=lambda t: np.where(t < 1e3, t * t, np.inf),
                              dphi=lambda t: np.where(t < 1e3, 2 * t, np.inf)),
    "nan-jump": YoungFunction(phi=lambda t: np.where(t < 1e3, t * t, np.nan),
                              dphi=lambda t: np.where(t < 1e3, 2 * t, np.nan)),
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
    """Where phi(2s) overflows decides nothing: t^50 log(1+t) overflows on
    the top of the sample range, and its finite ratios stay near 2^50.
    Fewer finite ratios than the trend window decide nothing at all."""
    with np.errstate(over="ignore"):
        assert delta2_check(YoungFunction.zygmund(2, 1))["delta2"]
        assert delta2_check(YoungFunction.power(3))["delta2"]
        assert not delta2_check(YoungFunction.exp_minus_one())["delta2"]
        big = delta2_check(YoungFunction.zygmund(50, 1))
        none = delta2_check(YoungFunction.zygmund(1e6, 1))
        few = delta2_check(YoungFunction.zygmund(1000, 1))
    assert big["delta2"] and norms.DELTA2_TREND <= big["finite"] < 121
    assert 2.0**50 < big["k"] < 2.0**52
    assert none["delta2"] is None and none["finite"] == 0
    assert few["delta2"] is None and 0 < few["finite"] < norms.DELTA2_TREND
    assert math.isnan(none["k"]) and math.isnan(few["k"])


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
    f = random_bandlimited(rng, (64, 64), 1)
    mf = local_maximal(f)
    assert np.all(mf.values >= np.abs(f.values) - 1e-12)


def test_local_hardy_norm_constant():
    # constant c: every mollification returns c, so the norm is c |B_R|
    f = GridField(np.full((64, 64, 1), 2.0), (2 * math.pi, 2 * math.pi))
    val = local_hardy_norm(f, R=1.0)
    assert abs(val - 2.0 * math.pi) < 0.02 * 2.0 * math.pi


class _CountingBump:
    """standard_bump that counts its evaluations, planted in place of the
    mollifier's kernel."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(field_mod, "standard_bump", self)

    def __call__(self, r):
        self.calls += 1
        return standard_bump(r)


def _hardy_fields(rng, shape, k, period=2 * math.pi):
    return [GridField(rng.normal(size=shape + (1,)), (period, period))
            for _ in range(k)]


@pytest.mark.parametrize("shape", [(32, 32), (33, 27)])
def test_local_hardy_norms_match_separate_calls_bitwise(rng, shape):
    fields = _hardy_fields(rng, shape, 4)
    separate = [local_hardy_norm(f, 1.0) for f in fields]
    shared = local_hardy_norms(iter(fields), 1.0)
    assert [x.hex() for x in shared] == [x.hex() for x in separate]
    assert local_hardy_norms([], 1.0) == []


def test_local_hardy_norms_build_each_kernel_once_per_grid(rng, monkeypatch):
    kernel = _CountingBump(monkeypatch)
    local_hardy_norms(_hardy_fields(rng, (32, 32), 5), 1.0)
    assert kernel.calls == norms.T_LEVELS  # not 5 * T_LEVELS
    # a new grid (shape or period) starts a new set
    kernel.calls = 0
    a, b = _hardy_fields(rng, (32, 32), 2), _hardy_fields(rng, (24, 24), 2)
    c = _hardy_fields(rng, (32, 32), 1, period=5.0)
    fields = [a[0], a[1], b[0], b[1], c[0], a[0]]
    vals = local_hardy_norms(fields, 1.0)
    assert kernel.calls == 4 * norms.T_LEVELS
    assert [x.hex() for x in vals] == [
        local_hardy_norm(f, 1.0).hex() for f in fields]


def test_local_hardy_norms_keep_no_kernel_after_return(rng, monkeypatch):
    """Every kernel half-spectrum of the set dies with the call."""
    refs, original = [], norms.local_maximal

    def spy(f, kernel_hats=None, rows=None):
        out = original(f, kernel_hats, rows)
        refs.extend(weakref.ref(k) for k in kernel_hats)
        return out

    monkeypatch.setattr(norms, "local_maximal", spy)
    local_hardy_norms(_hardy_fields(rng, (32, 32), 3), 1.0)
    assert len(refs) == 3 * norms.T_LEVELS
    assert all(ref() is None for ref in refs)


def test_local_hardy_norms_raise_where_the_sweep_does(monkeypatch):
    """A scale below grid resolution (a kernel with no mass on the grid,
    planted) raises on the first field's sweep."""
    f = GridField(np.ones((8, 8, 1)), (2 * math.pi, 2 * math.pi))
    monkeypatch.setattr(field_mod, "standard_bump", np.zeros_like)
    with pytest.raises(ValueError, match="below grid resolution"):
        local_hardy_norms([f, f], 1.0)


class _Transforms:
    """field.fft and field.ifft, planted, logging each call from either
    thread: ("field", i) for the transform of fields[i], ("kernel", j) for
    the j-th other forward transform, and ("inverse", rows, thread,
    poisoned) for each inverse, poisoned if its product holds a nan.
    Kernel transform number nan_at comes back as nan; every transform on
    the `slow` thread ("caller", the test's, or "helper") takes `pause`
    seconds longer; running counts the inverses in flight."""

    def __init__(self, monkeypatch, fields, nan_at=None, slow=None,
                 pause=0.0):
        self.fields, self.nan_at, self.slow, self.pause = (fields, nan_at,
                                                           slow, pause)
        self.log, self.running, self.caller = [], 0, threading.get_ident()
        self._lock = threading.Lock()
        self._fft, self._ifft = field_mod.fft, field_mod.ifft
        monkeypatch.setattr(field_mod, "fft", self.fft)
        monkeypatch.setattr(field_mod, "ifft", self.ifft)

    def _pause(self):
        if (threading.get_ident() == self.caller) == (self.slow == "caller"):
            time.sleep(self.pause)

    def fft(self, f):
        self._pause()
        out = self._fft(f)
        hit = [i for i, g in enumerate(self.fields) if g is f]
        with self._lock:
            if hit:
                self.log.append(("field", hit[0]))
                return out
            j = sum(entry[0] == "kernel" for entry in self.log)
            self.log.append(("kernel", j))
        if j == self.nan_at:
            out[...] = math.nan
        return out

    def inverses(self, on=None):
        """The logged inverses, on the caller's thread or the helper's."""
        return [e for e in self.log if e[0] == "inverse" and (
            on is None or (e[2] == self.caller) == (on == "caller"))]

    def ifft(self, buf, out, rows=slice(None)):
        thread, poisoned = threading.get_ident(), bool(np.isnan(buf).any())
        with self._lock:
            self.running += 1
        try:
            self._pause()
            return self._ifft(buf, out, rows)
        finally:
            with self._lock:
                self.running -= 1
                self.log.append(("inverse", rows, thread, poisoned))


@pytest.mark.parametrize("k", [1, 3])
def test_local_hardy_norms_transform_once_per_kernel_field_and_scale(
        rng, monkeypatch, k):
    """Over k fields on one grid: T_LEVELS kernel transforms, k field
    transforms and k * T_LEVELS inverses on the ball's band of rows, so the
    two halves of the sweep neither repeat nor add a transform."""
    fields = _hardy_fields(rng, (32, 32), k)
    band = norms._ball_band(fields[0], 1.0)[0]
    calls = _Transforms(monkeypatch, fields)
    local_hardy_norms(fields, 1.0)
    assert collections.Counter(entry[0] for entry in calls.log) == {
        "kernel": norms.T_LEVELS, "field": k, "inverse": k * norms.T_LEVELS}
    assert [e[1] for e in calls.log if e[0] == "field"] == list(range(k))
    assert all(e[1] == band for e in calls.inverses())


def test_local_maximal_helper_takes_what_a_slow_caller_leaves(rng,
                                                              monkeypatch):
    """With the caller's transforms slowed, the helper thread sweeps most
    scales, as they are built, and the values keep the bits of an
    unhindered call."""
    f = _hardy_fields(rng, (32, 32), 1)[0]
    want = local_maximal(f).values
    with monkeypatch.context() as mp:
        calls = _Transforms(mp, [f], slow="caller", pause=0.005)
        got = local_maximal(f).values
    assert np.array_equal(got, want)
    assert len(calls.inverses()) == norms.T_LEVELS
    assert len(calls.inverses("helper")) >= norms.T_LEVELS // 2


@pytest.mark.parametrize("slow", ["caller", "helper"])
def test_local_hardy_norms_raise_once_the_helper_half_stops(rng, monkeypatch,
                                                            slow):
    """A non-finite kernel at an odd scale raises the field's error in the
    caller only once the helper's half has stopped: every inverse is done
    and none is running, even with the helper's transforms slowed.  With
    the caller's slowed, the helper sweeps the bad scale while the caller
    builds the next kernels.  The helper is kept, and the next call gives a
    fresh call's bits."""
    fields = _hardy_fields(rng, (32, 32), 2)
    want = [x.hex() for x in local_hardy_norms(fields, 1.0)]
    with monkeypatch.context() as mp:
        calls = _Transforms(mp, fields, nan_at=1, slow=slow, pause=0.005)
        with pytest.raises(ValueError, match="field values must be finite"):
            local_hardy_norms(fields, 1.0)
        assert calls.running == 0
        assert len(calls.inverses()) == norms.T_LEVELS
        poisoned = [e for e in calls.inverses() if e[3]]
        assert len(poisoned) == 1
        if slow == "caller":
            assert poisoned == [e for e in calls.inverses("helper") if e[3]]
    assert [x.hex() for x in local_hardy_norms(fields, 1.0)] == want


def test_local_hardy_norms_traced_peak():
    """The traced peak of local_hardy_norms over six 256^2 fields (period 2,
    R = 0.9), both threads' allocations included, is at most 10.7 MiB.
    The kernel set is 6.3 MB of it; the caller allocates each half's
    buffers once per field, where a buffer per scale or a kernel set per
    thread would not fit."""
    rng = np.random.default_rng(0)
    fields = [GridField(rng.normal(size=(256, 256, 1)), (2.0, 2.0))
              for _ in range(6)]
    local_hardy_norms(fields[:1], 0.9)  # first-call costs, the thread's too
    tracemalloc.start()
    try:
        local_hardy_norms(fields, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.7 * 2**20


def test_local_hardy_norms_from_many_threads_keep_bits(rng):
    """Four caller threads share the one helper thread, with the switch
    interval cut to 1 us: every call keeps the bits of a call made alone."""
    groups = [_hardy_fields(rng, (24, 24), 2) for _ in range(4)]
    want = [[x.hex() for x in local_hardy_norms(g, 1.0)] for g in groups]
    got = [[] for _ in groups]

    def run(i):
        for _ in range(3):
            got[i].append([x.hex() for x in local_hardy_norms(groups[i], 1.0)])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


def _full_grid_maximal(f):
    """M_loc f on every grid point, as it was before the ball's band: each
    scale by one library irfftn of the whole half-spectrum (kept
    reference)."""
    rec, axes = Spectrum(f), tuple(range(f.n))
    fhat = np.fft.rfftn(f.values, axes=axes)
    out = np.abs(f.values[..., 0])
    for t in norms.t_grid(f):
        ker = standard_bump(rec.radius / t)
        khat = np.fft.rfftn(ker / (ker.sum() * f.cell_volume)).real
        buf = khat[..., None] * fhat
        buf *= f.cell_volume
        sm = np.fft.irfftn(buf, s=f.shape, axes=axes)
        out = np.maximum(out, np.abs(sm[..., 0]))
    return out


def _full_grid_hardy_norm(f, R):
    """∫_{B_R(c)} M_loc f dx summed over the whole grid's ball, the ball
    from dense coordinate grids (kept reference)."""
    d2 = 0.0
    for g, p in zip(np.meshgrid(*f.axes(), indexing="ij"), f.period):
        d = np.abs(g - p / 2)
        d2 = d2 + np.minimum(d, p - d) ** 2
    mask = d2 <= R * R
    assert np.array_equal(norms._ball_mask(f, R), mask)
    return float(np.sum(_full_grid_maximal(f)[mask]) * f.cell_volume)


# even, odd, unequal (shape and period), 3-D and 1-D grids
BAND_GRIDS = [((32, 32), (2 * math.pi,) * 2), ((33, 27), (2 * math.pi,) * 2),
              ((40, 24), (3.0, 5.0)), ((25, 32), (4.0, 2.0)),
              ((12, 10, 9), (2.0, 3.0, 2.5)), ((48,), (2 * math.pi,))]
# R as a fraction of the first period: below one cell (an odd grid's ball
# may hold no point), one cell, a quarter and a half period, and more than
# half a period (the band is then every row)
BAND_RADII = [0.25, 1.0, 8.0, 0.25, 0.5, 0.6, 2.0]


@pytest.mark.parametrize("shape, period", BAND_GRIDS)
def test_band_hardy_norms_keep_full_grid_bits(shape, period):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    fields = [GridField(rng.normal(size=shape + (1,)), period)
              for _ in range(2)]
    h = period[0] / shape[0]
    radii = [frac * h for frac in BAND_RADII[:3]]
    radii += [frac * period[0] for frac in BAND_RADII[3:]]
    for R in radii:
        want = [_full_grid_hardy_norm(f, R).hex() for f in fields]
        assert [x.hex() for x in local_hardy_norms(fields, R)] == want, R
    band, mask = norms._ball_band(fields[0], radii[-1])
    assert np.all(mask) and band.indices(shape[0])[:2] == (0, shape[0])


@pytest.mark.parametrize("shape, period", BAND_GRIDS)
def test_local_maximal_default_keeps_full_grid_bits(shape, period):
    f = GridField(np.random.default_rng(7).normal(size=shape + (1,)), period)
    mf = local_maximal(f)
    assert isinstance(mf, GridField) and mf.period == f.period
    assert np.array_equal(mf.values[..., 0], _full_grid_maximal(f))
    if len(shape) > 1:  # a band of rows holds the same values
        rows = slice(shape[0] // 3, shape[0] // 3 + 2)
        assert np.array_equal(local_maximal(f, rows=rows),
                              mf.values[rows, ..., 0])


def test_ball_band_holds_the_ball_rows_only():
    """The hardy run's ball (R = 1 on a 256^2 grid of period 2 pi) meets 81
    of the 256 first-axis rows, about the midpoint row 128."""
    f = GridField(np.zeros((256, 256, 1)), (2 * math.pi,) * 2)
    band, mask = norms._ball_band(f, 1.0)
    assert band == slice(88, 169)
    full = norms._ball_mask(f, 1.0)
    assert not full[:88].any() and not full[169:].any()
    assert np.array_equal(mask, full[band])


@pytest.mark.parametrize("R", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_local_hardy_norms_reject_a_radius_that_is_no_ball(R):
    f = GridField(np.ones((8, 8, 1)), (2 * math.pi, 2 * math.pi))
    with pytest.raises(ValueError, match="radius R must be positive"):
        local_hardy_norms([f], R)
    with pytest.raises(ValueError, match="radius R must be positive"):
        local_hardy_norms([], R)
