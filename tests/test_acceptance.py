"""End-to-end acceptance gates with pinned tolerances and runtime budgets.

Each test freezes the headline quantitative claim of one component: exact
oracles where a closed form exists, fitted exponents or stability ratios
where the claim is asymptotic, and measured-constant ceilings for the
truncation machinery.
"""

import math
import time

import numpy as np
import pytest

from cclab import counterexamples as cex
from cclab.cli import item_rng
from cclab.decompose import helmholtz
from cclab.extension import (pairing_identity, thmD_ensemble, interpolation_ensemble)
from cclab.field import GridField, random_bandlimited
from cclab.norms import (YoungFunction, delta2_check, hardy_bracket_check,
                         lebesgue_norm, luxemburg_norm, young_conjugate)
from cclab.quasiaffine import (INTEGRANDS, make_test_function,
                               pairing_experiment, quasiaffine_mean_test)
from cclab.symbol import make_operator
from cclab.truncate import lipschitz_truncate, truncation_case


def test_01_indicator_pairing_exact():
    t0 = time.monotonic()
    spec = cex.make_spec("ex61")
    for j in (2, 4, 8, 16, 32, 64):
        pairing = float(cex.make_sequence(spec, j)["F"].integral()[0])
        assert abs(pairing - 1.0) <= 1e-12
    assert time.monotonic() - t0 < 5.0


def test_02_helmholtz_residuals():
    t0 = time.monotonic()
    sym = make_operator("divcurl2")
    for i in range(50):
        rng = item_rng(0, "acceptance-decompose", i)
        v = random_bandlimited(rng, (64, 64), sym.dimV, bandlimit=4)
        res = helmholtz(v, sym)
        assert res.reconstructionError <= 1e-10
        assert res.constraintResidual <= 1e-10
        assert res.orthogonalityResidual <= 1e-9
        # idempotence: re-splitting the kernel part must change nothing
        res2 = helmholtz(res.bPart, sym)
        scale = float(np.max(np.abs(v.values))) + 1e-300
        assert np.max(np.abs(res2.aStarPart.values)) / scale <= 1e-9
        assert (np.max(np.abs(res2.bPart.values - res.bPart.values)) / scale
                <= 1e-9)
    assert time.monotonic() - t0 < 30.0


def test_03_mean_identity_and_control():
    t0 = time.monotonic()
    for integrand, operator in (("det2", "curl_matrix_n"),
                                ("divcurl_dot", "divcurl2")):
        rep = quasiaffine_mean_test(INTEGRANDS[integrand],
                                    make_operator(operator), trials=100)
        assert rep["verdict"] == "quasiaffine-consistent"
        assert rep["worst_relative_deviation"] <= 1e-8
    control = quasiaffine_mean_test(INTEGRANDS["sqnorm4"],
                                    make_operator("divcurl2"), trials=100)
    assert control["verdict"] == "rejected"
    for rec in control["records"]:
        assert rec["deviation"] >= 0.5 * rec["pert_mass"]
    assert time.monotonic() - t0 < 20.0


def test_04_oscillation_decay_exponent():
    phi = make_test_function("bump")
    rep = pairing_experiment("oscillation", "divcurl_dot", phi,
                             (8, 16, 32, 64, 128))
    mags = [abs(v) for v in rep.values]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert -1.2 <= rep.exponent <= -0.8


def test_05_scenario_matrix():
    t0 = time.monotonic()
    patterns = {row.scenario: row.pattern for row in cex.table1()}
    assert patterns["(i)"] == ("fail", "fail", "fail")
    assert patterns["(ii)"] == ("pass", "fail", "fail")
    assert patterns["(iii)"] == ("pass", "fail", "pass")
    assert patterns["(iv)"] == ("pass", "pass", "fail")
    assert time.monotonic() - t0 < 180.0


def test_06_borderline_llogl_divergence():
    rep = cex.run_case(cex.make_spec("ex63"))
    masses = rep["llogl_masses"]
    for a, b in zip(masses, masses[1:]):
        assert b >= 1.10 * a
    assert rep["divergent"]
    assert math.isfinite(rep["constraint_mass"])


def test_07_lipschitz_truncation_ensemble():
    # two decades of lambda each; the 1D ensemble is rougher per unit
    # length, so its window sits higher to keep the truncation nontrivial
    for n, shape, lambdas in ((1, 1024, (5.0, 10.0, 20.0, 50.0, 100.0, 500.0)),
                              (2, 128, (0.5, 1.0, 2.0, 5.0, 10.0, 50.0))):
        vol_by_lam = {lam: [] for lam in lambdas}
        saw_bad = False
        for i in range(10):
            rng = item_rng(0, f"acceptance-truncate-{n}d", i)
            v = truncation_case(rng, shape, n)
            for lam in lambdas:
                res = lipschitz_truncate(v, lam, k=1)
                assert res.measuredDerivBound <= 64.0
                good = ~res.badSet
                assert np.array_equal(res.truncated.values[good],
                                      v.values[good])
                if np.any(res.badSet):
                    saw_bad = True
                if (math.isfinite(res.measuredVolumeConstant)
                        and res.measuredVolumeConstant > 0):
                    vol_by_lam[lam].append(res.measuredVolumeConstant)
        assert saw_bad
        maxima = [max(vs) for vs in vol_by_lam.values() if vs]
        assert maxima and all(math.isfinite(m) for m in maxima)
        assert max(maxima) / min(maxima) <= 8.0
        # degree <= k inputs are fixed points
        period = 2 * math.pi
        axes = [np.arange(64) * period / 64 for _ in range(n)]
        grids = np.meshgrid(*axes, indexing="ij")
        lin = GridField((0.3 * grids[0] + (0.1 * grids[1] if n == 2
                                           else 0.0))[..., None],
                        (period,) * n)
        res = lipschitz_truncate(lin, lam=100.0, k=1)
        assert np.max(np.abs(res.truncated.values - lin.values)) <= 1e-10


def test_08_orthogonality_rate():
    torus = cex.run_case(cex.make_spec("jac_case2"), (8, 16, 32, 64))
    assert torus["max_rel_err"] <= 1e-12
    grid = cex.run_case(cex.make_spec("jac_case2", mode="grid"),
                        (8, 16, 32, 64, 128))
    assert (abs(grid["fitted_exponent"] - grid["expected_exponent"])
            <= 0.15 * abs(grid["expected_exponent"]))


def test_09_log_growth_and_surrogates():
    spec = cex.make_spec("jac_case3")
    rep = cex.run_case(spec, (8, 16, 32, 64))
    assert rep["max_rel_err"] <= 1e-12
    pi_n = math.pi ** 2
    for r in rep["log_ratios"]:
        assert 0.5 * pi_n <= r <= 2.0 * pi_n
    hs, bs = [], []
    for k in (8, 16, 32, 64):
        audit = cex.case3_norm_audit(spec, k)
        assert audit["min_gap_ok"] and audit["spacing_ok"]
        assert audit["one_freq_per_annulus"]
        hs.append(audit["holder_surrogate"])
        bs.append(audit["besov_surrogate"])
    assert max(hs) / min(hs) <= 3.0
    assert max(bs) / min(bs) <= 3.0


def test_10_bulk_identity_refinement():
    for i in range(5):
        t0 = time.monotonic()
        errs = []
        for N, L in ((64, 16), (128, 32), (256, 64)):
            rng = item_rng(0, "acceptance-extension", f"{i}:{N}")
            u = random_bandlimited(rng, (N, N), 2, cutoff=True)
            phi = random_bandlimited(rng, (N, N), 1, cutoff=True)
            rep = pairing_identity(u, phi, T=8.0, tLevels=L)
            errs.append(rep["relError"])
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-3
        assert time.monotonic() - t0 < 120.0


def test_11_ratio_stability():
    ens = thmD_ensemble(m_list=(4, 8, 16, 32, 64))
    assert ens["spread"] <= 4.0
    cor = interpolation_ensemble(m_list=(4, 8, 16, 32, 64))
    assert cor["spread"] <= 4.0


def test_12_young_function_toolbox():
    rng = item_rng(0, "acceptance-orlicz", 0)
    f = GridField(rng.normal(size=(64, 64, 1)), (2 * math.pi, 2 * math.pi))
    lux = luxemburg_norm(f, YoungFunction.power(2.0))
    leb = lebesgue_norm(f, 2.0)
    assert abs(lux - leb) <= 1e-8 * max(1.0, leb)
    cubic = YoungFunction(phi=lambda t: t**3 / 3.0, dphi=lambda t: t**2,
                          label="t^3/3")
    star2 = young_conjugate(young_conjugate(cubic))
    ts = np.geomspace(1e-2, 1e2, 41)
    gap = np.max(np.abs(star2(ts) - cubic(ts)) / np.maximum(cubic(ts), 1e-300))
    assert gap <= 1e-5
    with np.errstate(over="ignore"):
        assert delta2_check(YoungFunction.zygmund(2.0, 1.0))["delta2"]
        assert not delta2_check(YoungFunction.exp_minus_one())["delta2"]
    assert hardy_bracket_check(YoungFunction.zygmund(2, 0.5), 2.0)["ok"]
    assert not hardy_bracket_check(YoungFunction.zygmund(2, 2.0), 2.0)["ok"]
