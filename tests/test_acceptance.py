"""End-to-end acceptance gates with pinned tolerances and runtime budgets.

Each test freezes the headline quantitative claim of one component: exact
oracles where a closed form exists, fitted exponents or stability ratios
where the claim is asymptotic, and measured-constant ceilings for the
truncation machinery.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from cclab import counterexamples as cex
from cclab.cli import REGISTRY, ExperimentConfig, item_rng, run
from cclab.decompose import helmholtz
from cclab.extension import pairing_identity
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
        v = random_bandlimited(rng, (64, 64), sym.dimV)
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
                res = lipschitz_truncate(v, lam)
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
        res = lipschitz_truncate(lin, lam=100.0)
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


def test_11_ratio_stability(seed0):
    """Both thmD ensembles at their defaults, as the seed-0 run made them."""
    results = json.loads((seed0 / "thmD" / "report.json").read_text())["results"]
    assert results["spread"] <= 4.0
    assert results["interpolation_spread"] <= 4.0


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


# The byte rule: every seed-0 output of the runner at its defaults (all
# experiments, plus jac_case3, which the default counterexample run does
# not reach) keeps its bytes.  A change that moves a CSV on purpose re-pins
# it and names the moved columns.
SEED0_RUNS = {**{name: (name, {}) for name in REGISTRY},
              "jac_case3": ("counterexample", {"case": "jac_case3"})}

SEED0_CSV_SHA256 = {
    "check-rank/rank.csv":
        "8a5110edacb85cd30c84127f3b1bf2d45643567f4ca407d01b3f3c571614d5d6",
    "counterexample/ex63.csv":
        "900c6cec23b9dc0895d65391e885b3d82a7eca0283bab994d5b14808663faf6c",
    "decompose/residuals.csv":
        "b80a8f758c07d53a497ffe6d8d6be573436aee9a064534d0d0aadcad3a32d235",
    "extension-identity/identity.csv":
        "0ff8e42835ef6aea1a9f259a9baa541c7926101dee949e12d03d918e5f8b1a45",
    "hardy/hardy.csv":
        "3d02daea200a9069248b54705da0b0d45bcccbc28342bde195cb8900e58343c1",
    "jac_case3/jac_case3.csv":
        "1e6d6e9566806eae1ea2f4a7eb7f06b293ef1e33d705fd1c0a78177f07e12434",
    "orlicz/orlicz.csv":
        "b8d2da980b0d2077ac4bff0bde71c496babdd4a6afc0292e90e72d6452d0fcf6",
    "pairing/pairing.csv":
        "e0fca827791d74bed3fd31a30ed948f29441d98e2265977a88da34bcfcaa329d",
    "quasiaffine/trials.csv":
        "13c5f9786045ccb351d65fe821a139784b32bfa684d0e2105aed8a5640885aaa",
    "table1/table1.csv":
        "8cfe2a5d93ff2b8a1bea2bf825b0102d3c9b773e045e0e99072642e308eb24e7",
    "thmD/ratios.csv":
        "29efeef450e2b0ef00444a8c3a081c20aa60959cacbc2e908af750b2f4aaf1c5",
    "truncate/truncate.csv":
        "b8cbc57dc415adbc340eca1e77a686478531e03ee6d6c860b73b224651311e37",
}

_TABLE1 = [["(i)", ["fail", "fail", "fail"]], ["(ii)", ["pass", "fail", "fail"]],
           ["(iii)", ["pass", "fail", "pass"]], ["(iv)", ["pass", "pass", "fail"]]]

# (name, measured, bound, ok) of each report.json check; a float measured
# value as float.hex
SEED0_CHECKS = {
    "check-rank": [("constant_rank", True, True, True)],
    "counterexample": [("divergent", True, True, True),
                       ("constraint_mass_finite", True, True, True)],
    "decompose": [("recon", "0x1.62c791d045384p-52", 1e-10, True),
                  ("constraint", "0x1.e7c31516a5ad0p-54", 1e-10, True),
                  ("ortho", "0x1.46190f43dd4abp-55", 1e-9, True),
                  ("potential", "0x1.06029c1e27c53p-48", 1e-9, True)],
    "extension-identity": [
        ("final_rel_error", "0x1.2f077c47aab14p-46", 1e-3, True),
        ("non_monotone_cases", 0, 0, True)],
    "hardy": [("norm_finite", True, True, True)],
    "jac_case3": [("max_rel_err", "0x1.b996357dd17ebp-51", 1e-12, True),
                  ("log_ratio_low", "0x1.15c905e124608p+3",
                   0.5 * math.pi ** 2, True),
                  ("log_ratio_high", "0x1.1d7b2111ad2a8p+3",
                   2.0 * math.pi ** 2, True)],
    "orlicz": [("luxemburg_vs_lebesgue", "0x1.d49eac0000000p-28",
                6.395789638410557e-08, True),
               ("delta2_zygmund", True, True, True),
               ("delta2_exp", False, False, True),
               ("conjugate_round_trip", "0x1.761c97538adc7p-51", 1e-5, True),
               ("bracket_accepts_log_half", True, True, True),
               ("bracket_rejects_log_two", True, True, True)],
    "pairing": [("deviation", "0x1.0000000000000p-52", 1e-12, True)],
    "quasiaffine": [("worst_relative_deviation", "0x1.506db730d11b0p-53",
                     1e-8, True)],
    "table1": [("pattern", _TABLE1, _TABLE1, True)],
    "thmD": [("spread", "0x1.0000000000001p+0", 4.0, True),
             ("interpolation_spread", "0x1.0000000000003p+0", 4.0, True)],
    "truncate": [("deriv_bound", "0x1.6628bda8a395dp+5", 64.0, True),
                 ("volume_ratio", "0x1.6069333b062cbp+1", 8.0, True),
                 ("chain_mask_failures", 0, 0, True)],
}


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    """The directory holding every SEED0_RUNS run at seed 0, one
    subdirectory per run, made once per module."""
    root = tmp_path_factory.mktemp("seed0")
    for key, (experiment, params) in SEED0_RUNS.items():
        run(ExperimentConfig(experiment, seed=0, out=str(root / key),
                             params=params))
    return root


def test_13_seed0_csvs_keep_their_bytes(seed0):
    got = {path.relative_to(seed0).as_posix():
           hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(seed0.glob("*/*.csv"))}
    assert got == SEED0_CSV_SHA256


def test_14_seed0_checks_keep_their_values(seed0):
    got = {key: [(c["name"], c["measured"].hex()
                  if isinstance(c["measured"], float) else c["measured"],
                  c["bound"], c["ok"])
                 for c in json.loads((seed0 / key / "report.json")
                                     .read_text())["checks"]]
           for key in SEED0_RUNS}
    assert got == SEED0_CHECKS
