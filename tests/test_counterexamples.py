import math

import numpy as np
import pytest

from cclab import counterexamples as cex
from cclab.field import TrigPoly, trig_integral, trig_product


# -- spec construction ------------------------------------------------------

def test_make_spec_validation():
    with pytest.raises(KeyError):
        cex.make_spec("nope")
    with pytest.raises(KeyError):
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


def test_borderline_l1_finite():
    rep = cex.run_case(cex.make_spec("ex63"))
    assert math.isfinite(rep["l1_mass"])


# -- verdict machinery ------------------------------------------------------

def test_sequence_verdict_modes():
    decaying = [1.0, 0.5, 0.1, 0.01, 0.001, 1e-4]
    assert cex.sequence_verdict(decaying, 0.0)["verdict"] == "converges"
    escaping = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert cex.sequence_verdict(escaping, 0.0)["verdict"] == "fails"
    # persistent 90%-of-scale deviation from the limit
    stuck = [1.0, 1.2, 0.9, 1.1, 1.0]
    assert cex.sequence_verdict(stuck, 0.0)["verdict"] == "fails"
    # tail deviation of 10% of scale sits in the declared 5%/50% gap
    middling = [1.0, 0.5, 0.1, 0.01, 0.001]
    assert cex.sequence_verdict(middling, 0.0)["verdict"] == "inconclusive"


def test_bounded_verdict_modes():
    saturating = [5.0, 5.5, 5.7, 5.75, 5.76]
    assert cex.bounded_verdict(saturating)["verdict"] == "converges"
    escaping = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert cex.bounded_verdict(escaping)["verdict"] == "fails"


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


def test_case3_exact_harmonic_sum():
    spec = cex.make_spec("jac_case3")
    rep = cex.run_case(spec, (4, 8))
    assert rep["max_rel_err"] < 1e-12


def _case3_trigs_by_sums(spec, k):
    """The layered sums of _case3_trigs built one layer at a time with +."""
    n, alpha = spec.params["n"], spec.params["alpha"]
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
