"""TrigPoly held as keys plus one amplitude array, validated where amplitudes
come in.

The array routes are checked against a kept copy of the dict-based
arithmetic (key order and amplitude bytes); the operations that run no
Hermitian check against the exact mirror they promise; the scalar operands
against one rule; and the trig experiments against the number of Hermitian
checks they run.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cclab import counterexamples as cex
from cclab import field as field_mod
from cclab.extension import thmD_ensemble
from cclab.field import TrigPoly, trig_pair, trig_product
from cclab.quasiaffine import INTEGRANDS, quasiaffine_mean_test
from cclab.symbol import make_operator


# -- the dict-based arithmetic, kept as the reference for bits ---------------
# Each builds its terms as a dict and validates them with the public
# constructor, as every result was built before the arrays.

def _old_trig_product(a, b):
    bs = [(m2, a2[0]) for m2, a2 in b.terms.items()]
    terms = {}
    for m1, a1 in a.terms.items():
        c1 = a1[0]
        for m2, c2 in bs:
            m = tuple(map(operator.add, m1, m2))
            terms[m] = terms.get(m, 0.0) + c1 * c2
    return TrigPoly(n=a.n, dimV=1, terms=terms)


def _old_add(a, b):
    terms = dict(a.terms)
    for m, amp in b.terms.items():
        cur = terms.get(m)
        terms[m] = amp if cur is None else cur + amp
    return TrigPoly(n=a.n, dimV=a.dimV, terms=terms)


def _old_trig_pair(a, b):
    vol = (2 * math.pi) ** a.n
    if len(b.terms) < len(a.terms):
        a, b = b, a
    total = 0.0
    for m, am in a.terms.items():
        bm = b.terms.get(tuple(-x for x in m))
        if bm is not None:
            total += am[0] * bm[0]
    return float(np.real(total) * vol)


def _outcome(op, *args):
    """The keys in order and the amplitude bytes of op(*args), or the
    message of the ValueError it raises."""
    try:
        p = op(*args)
    except ValueError as e:
        return str(e)
    return list(p.keys), p.amps.tobytes()


# -- Hermitian inputs ---------------------------------------------------------

_SMALL = st.integers(-3, 3)
_BIG = st.one_of(st.integers(8**20, 8**22), st.integers(-(8**22), -(8**20)))
_AMP = st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                          allow_infinity=False)


@st.composite
def _hermitian(draw, freq=st.one_of(_SMALL, _BIG), n=2, dimV=1, slack=True):
    """A polynomial whose amplitude at -m is conj(a_m), or with slack
    conj(a_m) (1 + 1e-13): inside the check's tolerance, so that sums and
    products of such inputs may fail it."""
    keys = draw(st.lists(st.tuples(*[freq] * n), max_size=8))
    off = 1 + (draw(st.sampled_from([0.0, 1e-13])) if slack else 0.0)
    terms = {}
    for m in keys:
        a = np.array([draw(_AMP) for _ in range(dimV)])
        neg = tuple(-x for x in m)
        if m == neg:
            a = a.real + 0j
        terms[m], terms[neg] = a, np.conj(a) * off if m != neg else a
    return TrigPoly(n, dimV, terms)


@settings(max_examples=200)
@given(_hermitian(), _hermitian())
def test_product_sum_and_pair_keep_the_dict_route_bits(a, b):
    assert _outcome(trig_product, a, b) == _outcome(_old_trig_product, a, b)
    assert _outcome(operator.add, a, b) == _outcome(_old_add, a, b)
    for x, y in ((a, b), (b, a)):
        assert (trig_pair(x, y).hex() == _old_trig_pair(x, y).hex())


@settings(max_examples=50)
@given(st.lists(_AMP, min_size=9, max_size=9),
       st.lists(_AMP, min_size=9, max_size=9))
def test_products_of_many_colliding_terms_keep_bits(xs, ys):
    """Keys -8..8 on both sides: the zero mode sums 17 products and every
    key |m| <= 8 at least 9, where a pairwise reduction regroups them."""
    def poly(amps):
        terms = {(0,): [complex(amps[0].real, 0.0)]}
        for j, z in enumerate(amps[1:], start=1):
            terms[(j,)], terms[(-j,)] = [z], [z.conjugate()]
        return TrigPoly(1, 1, terms)

    a, b = poly(xs), poly(ys)
    assert _outcome(trig_product, a, b) == _outcome(_old_trig_product, a, b)


def test_case3_pairings_keep_their_bits():
    spec = cex.make_spec("jac_case3")
    rep = cex._run_case3(spec, (8, 32, 128))
    assert [v.hex() for v in rep["pairings"]] == [
        "0x1.20d1afe2e0d69p+4", "0x1.e7c372714dbc1p+4", "0x1.5ea3ab52c16eap+5"]


# -- the operations that run no check mirror exactly -------------------------

_REAL = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                  st.integers(-5, 5).map(np.int64),
                  st.sampled_from([0.0, -1.0, 1e-300, -0.0]))


def _assert_exact_mirror(p):
    """a_{-m} holds the bytes of conj(a_m) + 0 (no stored negative zero)."""
    for m, a in p.terms.items():
        mirror = p.terms[tuple(-x for x in m)]
        assert mirror.tobytes() == (np.conj(a) + 0).tobytes(), m


@settings(max_examples=100)
@given(_hermitian(freq=st.one_of(_SMALL, _BIG), dimV=3, slack=False),
       st.integers(0, 1), st.integers(0, 2), _REAL)
def test_unchecked_operations_mirror_exactly(p, axis, i, s):
    """component, derivative, real scaling and negation run no Hermitian
    check: on exactly Hermitian inputs, frequencies of 8^20 to 8^22 among
    them, they give exactly Hermitian results."""
    _assert_exact_mirror(p)
    for q in (p.component(i), p.derivative(axis), p * s, s * p, -p):
        _assert_exact_mirror(q)


# -- scalar operands -----------------------------------------------------------

def test_real_scalars_are_constants_and_factors():
    p = TrigPoly.wave(2, (1, 2), "cos", 3.0)
    for one in (1, 1.0, True, np.int64(1), np.float32(1.0), np.float64(1.0)):
        assert _outcome(operator.add, p, one) == _outcome(operator.add, p, 1.0)
        assert _outcome(operator.sub, p, one) == _outcome(operator.sub, p, 1.0)
        assert (p + one).terms[(0, 0)].tobytes() == np.array([1.0 + 0j]).tobytes()
    for two in (2, np.int64(2), np.float32(2.0)):
        assert _outcome(operator.mul, p, two) == _outcome(operator.mul, p, 2.0)
        assert _outcome(operator.mul, two, p) == _outcome(operator.mul, p, 2.0)
    assert not (p * 0).keys


@pytest.mark.parametrize("z", [1j, 1 + 0j, np.complex128(2.0)])
def test_complex_scalars_are_value_errors(z):
    p = TrigPoly.wave(2, (1, 2), "cos")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError, match="real-valued"):
            op(p, z)
    with pytest.raises(ValueError, match="real-valued"):
        z * p


@pytest.mark.parametrize("x", ["1", [1.0], np.array([1.0]), None])
def test_other_operands_are_type_errors(x):
    p = TrigPoly.wave(2, (1, 2), "cos")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(p, x)


def test_polynomial_times_polynomial_is_a_type_error():
    p = TrigPoly.wave(2, (1, 2), "cos")
    with pytest.raises(TypeError, match="trig_product"):
        p * p


# -- storage ------------------------------------------------------------------

def test_terms_are_a_read_only_view():
    p = TrigPoly.wave(2, (1, 2), "sin", phase_vector=[1.0, 2.0])
    assert list(p.terms) == list(p.keys) == [(1, 2), (-1, -2)]
    assert p.amps.shape == (2, 2)
    with pytest.raises(TypeError):
        p.terms[(1, 2)] = np.zeros(2)
    with pytest.raises(ValueError):
        p.terms[(1, 2)][0] = 0.0
    with pytest.raises(ValueError):
        p.amps[0, 0] = 0.0


def test_concat_keeps_order_and_needs_distinct_keys():
    a = TrigPoly.wave(2, (1, 0), "cos")
    b = TrigPoly.wave(2, (0, 3), "sin", 2.0)
    both = TrigPoly.concat([a, b])
    assert _outcome(lambda: both) == _outcome(operator.add, a, b)
    with pytest.raises(ValueError, match="distinct"):
        TrigPoly.concat([a, TrigPoly.wave(2, (-1, 0), "cos")])
    with pytest.raises(ValueError, match="shape"):
        TrigPoly.concat([a, TrigPoly.wave(1, (1,), "cos")])


# -- work counters: Hermitian checks per experiment --------------------------

@pytest.fixture
def checks(monkeypatch):
    """Counts the calls of field._check_hermitian."""
    calls = []
    check = field_mod._check_hermitian

    def counted(*args):
        calls.append(len(args[0]))
        return check(*args)

    monkeypatch.setattr(field_mod, "_check_hermitian", counted)
    return calls


def test_trig_experiments_check_only_where_amplitudes_come_in_or_add(checks):
    """The dict-based arithmetic checked every result: 165, 112 and 100
    checks.  Now wave, the constructor, trig_product and + over a shared key
    check, and nothing else does."""
    thmD_ensemble()
    assert len(checks) == 60
    checks.clear()
    cex._run_case3(cex.make_spec("jac_case3"), (8, 12))
    assert len(checks) == 102
    checks.clear()
    quasiaffine_mean_test(INTEGRANDS["divcurl_dot"], make_operator("divcurl2"),
                          100, seed=21)
    assert len(checks) == 100
