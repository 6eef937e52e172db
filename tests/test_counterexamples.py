import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cclab import counterexamples as cex
from cclab.field import TrigPoly, trig_integral, trig_product
from cclab.norms import YoungFunction, local_hardy_norm
from cclab.params import ConfigError


# -- spec construction ------------------------------------------------------

def test_make_spec_validation():
    with pytest.raises(KeyError):
        cex.make_spec("nope")
    with pytest.raises(ConfigError, match=r"unknown params for ex61: \['bogus'\]"):
        cex.make_spec("ex61", bogus=1)
    # case-1 hypothesis window: p <= n and beta + alpha/n < n/p
    with pytest.raises(ValueError):
        cex.make_spec("jac_case1", p=3.0)


# -- concentration family ---------------------------------------------------

def test_concentration_unit_mass_exact():
    spec = cex.make_spec("ex61")
    for j in (2, 4, 8, 16, 32, 64):
        F = cex.make_sequence(spec, j)["F"]
        assert abs(float(F.integral()[0]) - 1.0) < 1e-12


def test_concentration_support_shrinks():
    spec = cex.make_spec("ex61")
    small = cex.make_sequence(spec, 64)["F"]
    big = cex.make_sequence(spec, 2)["F"]
    assert np.sum(small.values > 0) < np.sum(big.values > 0)


# -- oscillation family -----------------------------------------------------

def test_oscillation_masses_cancel():
    # the two signed masses are +pi and -pi: the indicator of the inner ball
    # captures pi while the total mass vanishes
    rep = cex.run_case(cex.make_spec("ex62"), (2, 4, 8))
    for v in rep["L1"]:
        assert abs(v - math.pi) < 1e-10
    # total mass over the unit disc: the cancelling tail outside r = 1 decays
    # with j, so these values vanish in the limit
    flat = [abs(v) for v in rep["M_flat"]]
    assert flat[0] > flat[1] > flat[2]
    assert flat[-1] < 1e-4


def test_oscillation_smooth_pairings_decay():
    rep = cex.run_case(cex.make_spec("ex62"), (2, 4, 8))
    m = [abs(v) for v in rep["M"]]
    assert m[0] > m[1] > m[2]


def test_scenario_hardy_rows_equal_per_field_norms():
    """The scenarios stream their densities through one kernel set; each H1
    entry keeps the bits of local_hardy_norm on make_sequence's F."""
    spec = cex.make_spec("ex61", shape=64)
    rep = cex.run_case(spec, (2, 4, 8))
    assert [x.hex() for x in rep["H1"]] == [
        local_hardy_norm(cex.make_sequence(spec, j)["F"], R=1.0).hex()
        for j in (2, 4, 8)]
    X, Y = cex._centered_axes(64, 4.0)  # the weights as first written
    test = cex.standard_bump((np.hypot(X, Y) - 0.0) / 0.75)
    ball = (np.hypot(X, Y) <= 0.75).astype(float)
    for j, m, l1 in zip((2, 4, 8), rep["M"], rep["L1"]):
        F = cex.make_sequence(spec, j)["F"]
        assert m.hex() == float(np.sum(F.values[..., 0] * test)
                                * F.cell_volume).hex()
        assert l1.hex() == float(np.sum(F.values[..., 0] * ball)
                                 * F.cell_volume).hex()
    spec = cex.make_spec("ex62", shape=64)
    rep = cex._scenario_oscillation(spec, (2, 4), hardy_j=(2, 3, 5))
    assert rep["hardy_j"] == [2, 3, 5]
    assert [x.hex() for x in rep["H1"]] == [
        local_hardy_norm(cex.make_sequence(spec, j)["F"], R=0.9).hex()
        for j in (2, 3, 5)]


def test_oscillation_constraints_exact():
    # div v = 0 and curl vtilde = 0 away from the glue circle
    spec = cex.make_spec("ex62")
    fields = cex.make_sequence(spec, 4)
    v, vt = fields["v"], fields["vtilde"]
    h = v.period[0] / v.shape[0]
    # interior annulus cells only (FD stencils near r=1/2 see the interface)
    X = (np.arange(v.shape[0]) * h) - v.period[0] / 2
    R = np.hypot(X[:, None], X[None, :])
    inside = R < 0.4
    dv = (np.gradient(v.values[..., 0], h, axis=0)
          + np.gradient(v.values[..., 1], h, axis=1))
    curl = (np.gradient(vt.values[..., 1], h, axis=0)
            - np.gradient(vt.values[..., 0], h, axis=1))
    mask = inside & (R > 0.1)
    scale = np.max(np.abs(v.values)) / h
    assert np.max(np.abs(dv[mask])) < 1e-2 * scale
    assert np.max(np.abs(curl[mask])) < 1e-2 * scale


# -- borderline family ------------------------------------------------------

def test_borderline_masses_frozen():
    rep = cex.run_case(cex.make_spec("ex63"))
    expected = (3.032167521642, 4.229236303906, 5.315703536334,
                6.350109349501, 7.349660520775, 8.322349754876)
    assert np.allclose(rep["llogl_masses"], expected, rtol=1e-9)
    assert rep["divergent"]
    assert abs(rep["constraint_mass"] - 4.165711339211) < 1e-9


def _llogl_masses_uncached(F, levels):
    """truncated_llogl_masses as it was before its node memo (reference)."""
    out = []
    for M in levels:
        def fn(t, M=M):
            with np.errstate(over="ignore"):
                val = np.minimum(F(t), M)
            return val * np.log1p(val)
        out.append(cex._log_substituted_quad(fn))
    return out


def _counted(F):
    calls = Counter()

    def counted(t):
        calls[float(t)] += 1
        return F(t)
    return counted, calls


def test_llogl_masses_evaluate_each_node_once():
    F = cex.ex63_profile(cex.make_spec("ex63"))["F"]
    levels = (10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
    memo_F, memo_calls = _counted(F)
    ref_F, ref_calls = _counted(F)
    got = cex.truncated_llogl_masses(memo_F, levels)
    want = _llogl_masses_uncached(ref_F, levels)
    assert repr(got) == repr(want)
    # the levels share nodes, and each shared node is now evaluated once
    assert sum(ref_calls.values()) > len(ref_calls)
    assert set(memo_calls) == set(ref_calls)
    assert set(memo_calls.values()) == {1}


def test_orlicz_F_is_f_times_ftilde_bitwise():
    fields = cex.make_sequence(cex.make_spec("appendixOrlicz"), 1)
    t = np.concatenate([np.geomspace(1e-300, 0.5, 60),
                        np.linspace(0.01, 0.99, 60)])
    for x in t.tolist() + [1e-12, 0.3, 0.999]:
        assert (float(fields["F"](x)).hex()
                == float(fields["f"](x) * fields["ftilde"](x)).hex())


# The array bodies that the one-float integrands replaced (reference copies).

def _old_ex63_profile(spec):
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

    return {"w": w, "F": F}


def _old_orlicz_fields(spec):
    c = spec.params["c"]
    phi = YoungFunction.power(2)
    psi = YoungFunction.zygmund(2, 1)

    def f(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where((t > 0) & (t < 1),
                            np.power(t, -0.5)
                            * np.power(np.log1p(1.0 / np.maximum(t, 1e-300)), -c),
                            0.0)

    def ftilde_of(ft):
        out = np.zeros_like(ft)
        nz = ft > 0
        with np.errstate(over="ignore"):
            out[nz] = np.array([phi.inverse(y, hi0=max(1.0, math.sqrt(y)))
                                for y in psi(ft[nz]).tolist()])
        return out

    def F(t):
        ft = f(t)
        return ft * ftilde_of(ft)

    return {"f": f, "ftilde": lambda t: ftilde_of(f(t)), "F": F}


def test_quadrature_integrands_keep_bits():
    """Each one-float integrand, at every node, against the array body it
    replaced run on all nodes at once.  The nodes are the log-substituted
    quadrature's t = e^{-s} on a dense grid of s in [0, 700], floats below
    the 1e-300 clamp down to the smallest subnormal, and points off (0,1)."""
    s = np.linspace(0.0, 700.0, 7001)
    nodes = np.array([np.exp(-x) for x in s.tolist()]
                     + [1e-301, 1e-305, 1e-310, 5e-324,
                        0.0, 1.0, 1.5, math.nan])
    spec = cex.make_spec("ex63")
    new, old = cex.ex63_profile(spec), _old_ex63_profile(spec)
    pairs = [(new[k], old[k]) for k in ("w", "F")]
    spec = cex.make_spec("appendixOrlicz")
    new, old = cex.make_sequence(spec, 1), _old_orlicz_fields(spec)
    pairs += [(new[k], old[k]) for k in ("f", "ftilde", "F")]
    for new_fn, old_fn in pairs:
        # squares overflow to inf at subnormal t, on both sides alike
        with np.errstate(over="ignore"):
            want = [x.hex() for x in old_fn(nodes).tolist()]
            got = [float(new_fn(t)).hex() for t in nodes]
        assert got == want


# ex62's radial profile and the bump as they were before their one-float
# routes (reference copies): the quadratures ran them on one-element arrays

def _old_ex62_radial_F(j):
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


def _old_standard_bump(r):
    r = np.asarray(r)
    out = np.zeros_like(r, dtype=float)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def _old_ex62_pairing(j, test):
    from scipy import integrate
    F = _old_ex62_radial_F(j)

    def fn(r):
        return F(np.array([r]))[0] * test(r) * 2.0 * math.pi * r

    inner, _ = integrate.quad(fn, 0.0, 0.5, limit=300,
                              points=[0.5 - 1.0 / (2 * j)])
    outer, _ = integrate.quad(fn, 0.5, 1.0, limit=300,
                              points=[0.5 + 1.0 / (2 * j)])
    return inner, outer


EX62_J = (2, 3, 4, 8, 16, 24, 32, 64)


def _check_ex62_point(r):
    """The one-float profile and bump at r against the array routes (the
    current and the old), on the profile's side points and the bump's
    arguments of the mass quadrature."""
    # r * r underflows below 1e-154: 0/0 is nan on every route alike
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in EX62_J:
            want = _old_ex62_radial_F(j)(np.array([r]))[0].hex()
            assert float(cex._ex62_radial_F_at(j, r)).hex() == want, (j, r)
            assert cex._ex62_radial_F(j, np.array([r]))[0].hex() == want
    for x in (r, -r, (r - 0.5) / 0.3):
        want = _old_standard_bump(np.array([x]))[0].hex()
        assert float(cex.bump_at(x)).hex() == want, x
        assert cex.standard_bump(np.array([x]))[0].hex() == want


EX62_POINTS = sorted({0.0, 0.5, 1.0, 1.5, 0.2, 0.8, 5e-324, 1e-160,
                      *(0.5 + d / (2 * j) for j in EX62_J for d in (-1, 1))})


@pytest.mark.parametrize("r", EX62_POINTS + [np.nextafter(0.5, 1.0),
                                             np.nextafter(1.0, 0.0)])
def test_ex62_one_float_routes_keep_bits_at_the_break_points(r):
    _check_ex62_point(float(r))


@settings(max_examples=300)
@given(st.floats(0.0, 1.5))
def test_ex62_one_float_routes_keep_bits(r):
    _check_ex62_point(r)


def test_ex62_grid_routes_keep_bits():
    """The grid profile and the bump on the ex62 and ex61 radius grids."""
    spec = cex.make_spec("ex62", shape=128)
    r = cex._ex62_polar(spec)[1]
    for j in EX62_J:
        assert np.array_equal(cex._ex62_radial_F(j, r),
                              _old_ex62_radial_F(j)(r))
    for x in (r / 0.75, (r - 0.5) / 0.3, r):
        assert np.array_equal(cex.standard_bump(x), _old_standard_bump(x))


def test_ex62_quadratures_keep_bits():
    """_ex62_masses and _ex62_pairing against the array-route quadratures
    they replaced."""
    want = [sum(_old_ex62_pairing(
        j, lambda r: _old_standard_bump((r - 0.5) / 0.3))) for j in EX62_J]
    assert [x.hex() for x in cex._ex62_masses(EX62_J)] == [
        x.hex() for x in want]
    for j in EX62_J:
        got, old = cex._ex62_pairing(j, lambda r: 1.0), _old_ex62_pairing(
            j, lambda r: 1.0)
        assert [x.hex() for x in got] == [x.hex() for x in old]


def test_ex62_quadratures_run_no_array_route(monkeypatch):
    """The pairing quadratures call neither the grid profile nor the
    array bump, and allocate no array per node."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    from scipy import integrate  # noqa: F401  (imported before counting)
    monkeypatch.setattr(cex, "_ex62_radial_F",
                        counted("profile", cex._ex62_radial_F))
    monkeypatch.setattr(cex, "standard_bump",
                        counted("bump", cex.standard_bump))
    monkeypatch.setattr(np, "zeros_like", counted("zeros_like", np.zeros_like))
    monkeypatch.setattr(np, "errstate", counted("errstate", np.errstate))
    masses = cex._ex62_masses((2, 8))
    halves = cex._ex62_pairing(4, lambda r: 1.0)
    assert calls == Counter()
    assert all(math.isfinite(x) for x in masses + list(halves))


# run_case's outputs at the commit before the one-float integrands
_BORDERLINE_HEX = {
    "ex63": {
        "llogl_masses": ["0x1.841e10bab8cf6p+1", "0x1.0eabcebf154d1p+2",
                         "0x1.54347c9af25f4p+2", "0x1.9668310b887e4p+2",
                         "0x1.d660d6855b8ccp+2", "0x1.0a50b06ee2161p+3"],
        "constraint_mass": "0x1.0a9b03bb9f2c6p+2",
        "l1_mass": "0x1.0a9b03bb9f2c6p+2"},
    "appendixOrlicz": {
        "llogl_masses": ["0x1.a0ab7ff4ad0e6p+0", "0x1.c34d3676056a8p+0",
                         "0x1.e3d6425d23b7fp+0", "0x1.0169f57754a3ep+1",
                         "0x1.102e84edfb04ap+1", "0x1.1e42c96a78cdcp+1"],
        "psi_mass_of_f": "0x1.0fe8b13303a01p+1"},
}


@pytest.mark.parametrize("case", sorted(_BORDERLINE_HEX))
def test_borderline_run_case_keeps_bits(case):
    rep = cex.run_case(cex.make_spec(case))
    for key, want in _BORDERLINE_HEX[case].items():
        got = rep[key]
        got = [v.hex() for v in got] if isinstance(got, list) else got.hex()
        assert got == want, key


def test_borderline_integrand_enters_no_errstate_per_node(monkeypatch):
    """ex63's eight quadratures enter np.errstate at most once each, not
    once per integrand call."""
    import scipy.integrate  # noqa: F401  (its import enters errstate too)
    entries = []
    real = np.errstate

    def counted(*args, **kwargs):
        entries.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    cex.run_case(cex.make_spec("ex63"))
    assert len(entries) <= 8


def test_borderline_l1_finite():
    rep = cex.run_case(cex.make_spec("ex63"))
    assert math.isfinite(rep["l1_mass"])


# -- verdict machinery ------------------------------------------------------

def test_sequence_verdict_modes():
    decaying = [1.0, 0.5, 0.1, 0.01, 0.001, 1e-4]
    assert cex.sequence_verdict(decaying, 0.0) == "converges"
    escaping = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert cex.sequence_verdict(escaping, 0.0) == "fails"
    # persistent 90%-of-scale deviation from the limit
    stuck = [1.0, 1.2, 0.9, 1.1, 1.0]
    assert cex.sequence_verdict(stuck, 0.0) == "fails"
    # tail deviation of 10% of scale sits in the declared 5%/50% gap
    middling = [1.0, 0.5, 0.1, 0.01, 0.001]
    assert cex.sequence_verdict(middling, 0.0) == "inconclusive"


def test_bounded_verdict_modes():
    saturating = [5.0, 5.5, 5.7, 5.75, 5.76]
    assert cex.bounded_verdict(saturating) == "converges"
    escaping = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert cex.bounded_verdict(escaping) == "fails"


def test_llogl_divergent_gate():
    assert cex.llogl_divergent([1.0, 1.2, 1.44, 1.73, 2.07, 2.49])
    assert not cex.llogl_divergent([1.0, 1.05, 1.06, 1.06, 1.06, 1.06])


def test_harmonic_tail_sum():
    assert abs(cex.harmonic_tail_sum(3) - (1 / 2 + 1 / 3 + 1 / 4)) < 1e-15


# -- Table 1 ----------------------------------------------------------------

@pytest.fixture(scope="module")
def table():
    return cex.table1()


def test_table1_pattern(table):
    patterns = {row.scenario: row.pattern for row in table}
    assert patterns["(i)"] == ("fail", "fail", "fail")
    assert patterns["(ii)"] == ("pass", "fail", "fail")
    assert patterns["(iii)"] == ("pass", "fail", "pass")
    assert patterns["(iv)"] == ("pass", "pass", "fail")


def test_table1_has_diagnostics(table):
    for row in table:
        assert row.diagnostics


# -- Jacobian scaling cases -------------------------------------------------

def test_case1_moment_audit():
    spec = cex.make_spec("jac_case1")
    rep = cex.run_case(spec, (4, 8, 16))
    assert abs(rep["moment_richardson"] - rep["moment_target"]) \
        < 1e-3 * abs(rep["moment_target"])
    assert rep["gamma"] == pytest.approx(0.125)


def test_case2_torus_closed_form_exact():
    spec = cex.make_spec("jac_case2")
    rep = cex.run_case(spec, (8, 16, 32, 64))
    assert rep["max_rel_err"] < 1e-12


def test_case2_grid_exponent():
    spec = cex.make_spec("jac_case2", mode="grid")
    rep = cex.run_case(spec, (8, 16, 32, 64, 128))
    assert abs(rep["fitted_exponent"] - rep["expected_exponent"]) \
        < 0.15 * rep["expected_exponent"]


def _fit_exponent_lstsq(ks, vals):
    """The exponent fit the Jacobian cases used before sharing
    quasiaffine.fit_exponent (reference)."""
    logs = np.log(np.asarray(ks, dtype=float))
    logv = np.log(np.abs(np.asarray(vals, dtype=float)))
    A = np.stack([logs, np.ones_like(logs)], axis=-1)
    coef, res, *_ = np.linalg.lstsq(A, logv, rcond=None)
    return float(coef[0])


@pytest.mark.parametrize("case, overrides, ks", [
    ("jac_case1", {}, (4, 8)), ("jac_case2", {"mode": "grid"}, (8, 16, 32))])
def test_jacobian_fitted_exponent_bitwise(case, overrides, ks):
    rep = cex.run_case(cex.make_spec(case, **overrides), ks)
    assert rep["fitted_exponent"] == _fit_exponent_lstsq(ks, rep["pairings"])


def test_case3_exact_harmonic_sum():
    spec = cex.make_spec("jac_case3")
    rep = cex.run_case(spec, (4, 8))
    assert rep["max_rel_err"] < 1e-12


def _case3_trigs_by_sums(spec, k):
    """The layered sums of _case3_trigs built one layer at a time with +."""
    n, alpha = 2, spec.params["alpha"]
    freqs = cex.case3_frequencies(spec, k)
    amps = [float(f) ** (-(n - alpha) / n) * (ell + 1.0) ** (-1.0 / n)
            for ell, f in zip(range(1, k + 1), freqs)]
    u1 = u2 = phi = TrigPoly.zero(2, 1)
    for f, a in zip(freqs, amps):
        u1 = u1 + TrigPoly.wave(2, (f, 0), "sin", a)
        u2 = u2 + TrigPoly.wave(2, (0, f), "cos", -a)
        phi = phi + trig_product(
            TrigPoly.wave(2, (0, f), "sin", float(f) ** (-alpha)),
            TrigPoly.wave(2, (f, 0), "cos"))
    return {"u1": u1, "u2": u2, "phi": phi}


def test_case3_trigs_equal_layered_sums():
    spec = cex.make_spec("jac_case3")
    built = cex._case3_trigs(spec, 8)
    summed = _case3_trigs_by_sums(spec, 8)
    for name in ("u1", "u2", "phi"):
        got, want = built[name].terms, summed[name].terms
        assert list(got) == list(want)
        assert all(got[m].tobytes() == want[m].tobytes() for m in want)


def test_case3_frequencies_exact_ints():
    spec = cex.make_spec("jac_case3")
    freqs = cex.case3_frequencies(spec, 8)
    base = 8 ** (4 / 0.5)  # k^(n^2/alpha) with n=2, alpha=1/2, k=8
    assert freqs[0] == int(base) * 8
    for a, b in zip(freqs, freqs[1:]):
        assert b == 8 * a
        assert isinstance(b, int)


def test_case3_norm_audit():
    spec = cex.make_spec("jac_case3")
    audit = cex.case3_norm_audit(spec, 16)
    assert audit["min_gap_ok"] and audit["spacing_ok"]
    assert audit["one_freq_per_annulus"]
    assert abs(audit["holder_surrogate"] - 1.0) < 1e-12


def test_case3_surrogates_k_uniform():
    spec = cex.make_spec("jac_case3")
    hs, bs = [], []
    for k in (8, 16, 32, 64):
        audit = cex.case3_norm_audit(spec, k)
        hs.append(audit["holder_surrogate"])
        bs.append(audit["besov_surrogate"])
    assert max(hs) / min(hs) <= 3.0
    assert max(bs) / min(bs) <= 3.0


# -- Orlicz appendix example ------------------------------------------------

def test_appendix_orlicz_example():
    rep = cex.run_case(cex.make_spec("appendixOrlicz"))
    assert rep["divergent"]
    assert math.isfinite(rep["psi_mass_of_f"])
    assert rep["phi_dominated_by_psi"]["dominates"]
