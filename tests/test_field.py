import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclab.field import (GridField, TrigPoly, fft, ifft, apply_symbol,
                         random_bandlimited, trig_product,
                         trig_integral, trig_pair, mollified, mollify,
                         standard_bump)
from cclab import field as field_mod
from cclab.symbol import make_operator


def test_fft_round_trip(rng):
    """fft gives the half-spectrum, and ifft inverts it: a band-limited
    field, then white noise on odd, 3-D and 1-D grids."""
    fields = [random_bandlimited(rng, (32, 32), 3)]
    fields += [GridField(rng.normal(size=shape + (3,)))
               for shape in [(32, 33), (9, 8, 7), (17,)]]
    for f in fields:
        hat = fft(f)
        assert hat.shape == f.shape[:-1] + (f.shape[-1] // 2 + 1, 3)
        back = ifft(hat, np.empty(f.values.shape))
        assert np.max(np.abs(back - f.values)) < 1e-13


def _random_bandlimited_full(rng, shape, dimV):
    """random_bandlimited on a 2D grid as it was built before: both scatters
    into the full (N1, N2, dimV) spectrum, then a copy of its half for
    ifft."""
    modes, coef = field_mod._band_coefficients(rng, dimV)
    N1, N2 = shape
    amp = (coef[..., 0] - 1j * coef[..., 1]).T * (N1 * N2 / 2)
    spec = np.zeros((N1, N2, dimV), dtype=complex)
    np.add.at(spec, (modes[:, 0] % N1, modes[:, 1] % N2), amp)
    np.add.at(spec, (-modes[:, 0] % N1, -modes[:, 1] % N2), amp.conj())
    return ifft(spec[:, : N2 // 2 + 1].copy(), np.empty((N1, N2, dimV)))


@pytest.mark.parametrize("shape", [(8, 8), (9, 9), (8, 9), (9, 8), (32, 32)])
@pytest.mark.parametrize("dimV", [1, 3])
def test_random_bandlimited_half_spectrum_keeps_bits(shape, dimV):
    """Scattering only into the half-spectrum sums each kept cell in the
    same order: bit for bit the full construction, also where the band
    (|m| <= 6) aliases on an 8^2 or 9^2 grid."""
    got = random_bandlimited(np.random.default_rng(5), shape, dimV)
    want = _random_bandlimited_full(np.random.default_rng(5), shape, dimV)
    assert got.values.tobytes() == want.tobytes()


def test_parseval(rng):
    """On the half-spectrum, each column whose conjugate column is cut off
    (1 ... (N - 1) // 2) stands for two and is weighted 2; the column 0 and,
    on an even axis, the column N/2 are their own conjugates."""
    for N in (64, 63):
        f = random_bandlimited(rng, (N, N), 1)
        hat = fft(f) / (N * N)
        weight = np.full(N // 2 + 1, 2.0)
        weight[0] = 1.0
        if N % 2 == 0:
            weight[-1] = 1.0
        lhs = np.sum(f.values**2) * f.cell_volume
        rhs = (np.sum(weight[:, None] * np.abs(hat) ** 2)
               * float(np.prod(f.period)))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)


def test_apply_symbol_divergence_of_gradient():
    # v = (sin x1, cos x2): div v = cos x1 + sin x2 (sign via i^l A(xi))
    N = 64
    x = np.arange(N) * 2 * math.pi / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    v = GridField(np.stack([np.sin(X), np.cos(Y)], axis=-1))
    div = apply_symbol(make_operator("div2"), v)
    assert np.max(np.abs(div.values[..., 0] - (np.cos(X) - np.sin(Y)))) < 1e-12


# -- TrigPoly ---------------------------------------------------------------

def test_wave_product_exact():
    a = TrigPoly.wave(2, (3, 0), "cos")
    b = TrigPoly.wave(2, (0, 5), "sin")
    prod = trig_product(a, b)
    # cos(3x) sin(5y) integrates to zero; squared integrates to pi^2
    assert np.allclose(trig_integral(prod), 0.0)
    sq = trig_product(prod, prod)
    assert abs(trig_integral(sq)[0] - math.pi**2) < 1e-14


def test_trig_derivative_exact():
    a = TrigPoly.wave(2, (7, 0), "sin", 2.0)
    d = a.derivative(0)
    grid = d.render((64, 64))
    x = np.arange(64) * 2 * math.pi / 64
    expected = 14.0 * np.cos(7 * x)[:, None] * np.ones(64)[None, :]
    assert np.max(np.abs(grid.values[..., 0] - expected)) < 1e-12


def test_big_integer_frequencies_exact():
    m = 10**40 + 1
    a = TrigPoly.wave(1, (m,), "cos")
    b = TrigPoly.wave(1, (-m,), "cos")
    prod = trig_product(a, b)
    # cos(mx)^2 has mean 1/2 regardless of m; frequencies stay exact ints
    assert abs(trig_integral(prod)[0] - math.pi) < 1e-15
    assert 2 * m in [abs(k[0]) for k in prod.terms if k[0] != 0]


def test_term_cap_enforced():
    """4001^2 = 16,008,001 products are over TRIG_TERM_CAP (10^7): refused
    before any is formed."""
    big = TrigPoly(n=1, dimV=1,
                   terms={(k,): [1.0] for k in range(-2000, 2001)})
    assert len(big.terms) ** 2 > field_mod.TRIG_TERM_CAP
    with pytest.raises(OverflowError, match="16008001 terms"):
        trig_product(big, big)


def test_hermitian_symmetry_enforced():
    with pytest.raises(ValueError):
        TrigPoly(n=1, dimV=1, terms={(1,): [1.0 + 0j]})


@given(m1=st.integers(-5, 5), m2=st.integers(-5, 5),
       amp=st.floats(-3, 3, allow_nan=False))
def test_render_integral_consistency(m1, m2, amp):
    tp = TrigPoly.wave(2, (m1, m2), "cos", amp)
    grid = tp.render((16, 16))
    exact = trig_integral(tp)[0]
    quad = float(np.sum(grid.values) * grid.cell_volume)
    assert abs(exact - quad) < 1e-10 * (1 + abs(exact))


def test_mollify_preserves_mass(rng):
    f = random_bandlimited(rng, (64, 64), 1)
    f = GridField(f.values + 2.0, f.period)
    sm = mollify(f, 0.4)
    assert abs(float(np.sum(sm.values) - np.sum(f.values))
               * f.cell_volume) < 1e-10


def _direct_mollify(f, t):
    """sum_y f(x - y) k_t(y) h^n over the periodic grid, with the sampled
    bump renormalised to unit discrete integral: no transform involved."""
    disp = []
    for s, p in zip(f.shape, f.period):
        x = np.arange(s) * (p / s)
        disp.append(np.where(x > p / 2, x - p, x))
    r = np.sqrt(sum(g**2 for g in np.meshgrid(*disp, indexing="ij")))
    ker = standard_bump(r / t)
    ker = ker / (ker.sum() * f.cell_volume)
    out = np.zeros_like(f.values)
    for y in np.ndindex(*f.shape):
        # np.roll by y along the space axes reads f at x - y
        out += np.roll(f.values, y, axis=tuple(range(f.n))) * ker[y]
    return out * f.cell_volume


@pytest.mark.parametrize("shape, period", [
    ((8, 8), (2 * math.pi, 1.0)),
    ((9, 7), (3.0, 5.5)),
    ((6, 5, 4), (1.0, 2.0, 0.7)),
])
@pytest.mark.parametrize("dimV", [1, 2])
def test_mollified_matches_direct_periodic_sum(shape, period, dimV):
    """The half-spectrum mollifier against the real-space convolution, on
    even, odd and 3-D grids with unequal periods."""
    rng = np.random.default_rng(sum(shape) + dimV)
    f = GridField(rng.normal(size=shape + (dimV,)), period)
    ts = [frac * min(period) / 2 for frac in (0.1, 0.35, 0.7, 1.0)]
    bound = 1e-13 * np.max(np.abs(f.values))
    for t, vals in zip(ts, mollified(f, ts), strict=True):
        assert vals.shape == f.values.shape
        assert np.max(np.abs(vals - _direct_mollify(f, t))) <= bound


def test_mollify_scale_validation(rng):
    f = random_bandlimited(rng, (16, 16), 1)
    with pytest.raises(ValueError):
        mollify(f, 0.0)
    with pytest.raises(ValueError):
        mollify(f, 10.0)


# -- TrigPoly validation and sparse pairing ---------------------------------

def _per_term_check(terms):
    """The per-term Hermitian check of the validated terms, one np.allclose
    per frequency in insertion order: the reference for the vectorised one."""
    for m, amp in terms.items():
        neg = tuple(-x for x in m)
        other = terms.get(neg)
        if other is None:
            return f"missing conjugate frequency {neg} for {m}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ok = np.allclose(np.conj(other), amp, rtol=0,
                             atol=1e-12 * (1 + np.max(np.abs(amp))))
        if not ok:
            return f"Hermitian symmetry violated at {m}"
    return None


def _check_message(terms, dimV):
    try:
        TrigPoly(n=1, dimV=dimV, terms=terms)
    except ValueError as e:
        return str(e)
    return None


def test_hermitian_first_offender_in_insertion_order():
    missing_first = {(5,): [1.0], (3,): [1.0], (-3,): [2.0]}
    assert _check_message(missing_first, 1) == \
        "missing conjugate frequency (-5,) for (5,)"
    violated_first = {(3,): [1.0], (-3,): [2.0], (5,): [1.0]}
    assert _check_message(violated_first, 1) == \
        "Hermitian symmetry violated at (3,)"
    # the conjugate of a later key is checked after the earlier keys
    later = {(1,): [1.0], (-1,): [1.0], (-2,): [1j], (2,): [1j]}
    assert _check_message(later, 1) == "Hermitian symmetry violated at (-2,)"


def test_hermitian_tolerance_scales_with_amplitude():
    a = 1e3
    inside = {(1,): [a + 0.9e-12 * (1 + a)], (-1,): [a]}
    outside = {(1,): [a + 2e-12 * (1 + a)], (-1,): [a]}
    assert _check_message(inside, 1) is None
    assert _check_message(outside, 1) == "Hermitian symmetry violated at (1,)"


_SPECIAL = [0.0, 1.0, -1.0, 1j, 1.0 + 1e-13, math.nan, math.inf, -math.inf,
            complex(math.inf, 1.0), complex(1.0, math.nan),
            complex(math.inf, math.nan)]


@given(st.lists(st.tuples(st.sampled_from([1, 2, -1, -2]),
                          st.sampled_from(_SPECIAL),
                          st.sampled_from(_SPECIAL)),
                min_size=1, max_size=5))
def test_hermitian_decision_matches_per_term_allclose(entries):
    # NaN and inf amplitudes (and a non-finite tolerance) get the decision
    # and the message of one np.allclose per term
    terms = {(m,): [x, y] for m, x, y in entries}
    kept = {m: np.asarray(a, dtype=complex) for m, a in terms.items()
            if np.any(np.asarray(a, dtype=complex) != 0)}
    assert _check_message(terms, 2) == _per_term_check(kept)


def test_exact_zero_amplitudes_are_dropped():
    tp = TrigPoly(n=1, dimV=1, terms={(0,): [1.0], (2,): [0.0], (-2,): [0j],
                                      (3,): [-0.0]})
    assert list(tp.terms) == [(0,)]
    # dropping one side of a pair leaves the other without its conjugate
    with pytest.raises(ValueError, match=r"missing conjugate frequency \(-4,\) for \(4,\)"):
        TrigPoly(n=1, dimV=1, terms={(4,): [1e-300], (-4,): [0.0]})


def test_keys_colliding_after_int_are_summed():
    # 2.5 and 1.9 are distinct dict keys that int() maps onto 2 and 1
    tp = TrigPoly(n=1, dimV=1, terms={(np.int64(2),): [0.5], (2.5,): [0.25],
                                      (-2,): [0.75], (1.9,): [1.0],
                                      (-1,): [1.0]})
    assert list(tp.terms) == [(2,), (-2,), (1,), (-1,)]
    assert all(type(m[0]) is int for m in tp.terms)
    assert tp.terms[(2,)][0] == 0.75
    assert tp.terms[(1,)][0] == 1.0


def test_terms_hold_one_amplitude_vector_per_frequency():
    tp = TrigPoly(n=2, dimV=2, terms={(1, 0): np.array([[1.0, 2j]]),
                                      (-1, 0): [1.0, -2j], (0, 0): (3.0, 0)})
    for a in tp.terms.values():
        assert a.shape == (2,) and a.dtype == complex
    with pytest.raises(ValueError):
        TrigPoly(n=1, dimV=2, terms={(0,): [1.0]})
    with pytest.raises(ValueError, match="wrong length"):
        TrigPoly(n=2, dimV=1, terms={(0,): [1.0]})


_FREQ = st.one_of(st.integers(-3, 3), st.integers(8**20, 8**22),
                  st.integers(-(8**22), -(8**20)))
_AMP = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                          allow_infinity=False)


@st.composite
def _hermitian_pair(draw):
    pool = draw(st.lists(st.tuples(_FREQ, _FREQ), min_size=1, max_size=6))

    def poly():
        terms = {}
        for m in draw(st.lists(st.sampled_from(pool), max_size=6)):
            neg = tuple(-x for x in m)
            a = draw(_AMP)
            if m == neg:
                a = complex(a.real, 0.0)
            terms[m], terms[neg] = a, a.conjugate()
        return TrigPoly(n=2, dimV=1, terms={m: [a] for m, a in terms.items()})

    return poly(), poly()


@given(_hermitian_pair())
def test_trig_pair_matches_product_zero_mode(pair):
    a, b = pair
    via_product = trig_integral(trig_product(a, b))[0]
    scale = (2 * math.pi) ** 2 * sum(
        abs(amp[0]) * abs(b.terms.get(tuple(-x for x in m), [0])[0])
        for m, amp in a.terms.items())
    assert abs(trig_pair(a, b) - via_product) <= 1e-12 * scale
    assert abs(trig_pair(b, a) - via_product) <= 1e-12 * scale


def test_trig_pair_rejects_vectors():
    v = TrigPoly.wave(2, (1, 0), "cos", phase_vector=[1.0, 1.0])
    with pytest.raises(ValueError):
        trig_pair(v, v)
