import math

import numpy as np
import pytest

from cclab.field import TrigPoly, trig_integral
from cclab.symbol import make_operator
from cclab.quasiaffine import (INTEGRANDS, evaluate_F, quasiaffine_mean_test,
                               pairing_experiment, make_test_function,
                               fit_exponent)


def test_det2_mean_identity():
    rep = quasiaffine_mean_test(INTEGRANDS["det2"],
                                make_operator("curl_matrix_n"), trials=30)
    assert rep["verdict"] == "quasiaffine-consistent"
    assert rep["worst_relative_deviation"] < 1e-12


def test_divcurl_dot_mean_identity():
    rep = quasiaffine_mean_test(INTEGRANDS["divcurl_dot"],
                                make_operator("divcurl2"), trials=30)
    assert rep["verdict"] == "quasiaffine-consistent"


def test_sqnorm_rejected_with_margin():
    rep = quasiaffine_mean_test(INTEGRANDS["sqnorm4"],
                                make_operator("divcurl2"), trials=30)
    assert rep["verdict"] == "rejected"
    # mean |v0 + pert|^2 - |v0|^2 = mean |pert|^2: deviation equals the
    # perturbation mass exactly
    for rec in rep["records"]:
        assert rec["deviation"] >= 0.5 * rec["pert_mass"]


def test_evaluate_F_trig_grid_agree():
    v = TrigPoly.stack([TrigPoly.wave(2, (1, 0), "cos"),
                        TrigPoly.wave(2, (0, 1), "sin"),
                        TrigPoly.wave(2, (1, 1), "cos"),
                        TrigPoly.wave(2, (2, 0), "sin")])
    F = INTEGRANDS["det2"]
    exact = evaluate_F(F, v)
    grid = evaluate_F(F, v.render((32, 32)))
    assert np.max(np.abs(exact.render((32, 32)).values - grid.values)) < 1e-12


def test_oscillation_exponent_near_minus_one():
    phi = make_test_function("bump")
    rep = pairing_experiment("oscillation", "divcurl_dot", phi,
                             (8, 16, 32, 64, 128))
    assert -1.2 <= rep.exponent <= -0.8


def test_fit_exponent_recovers_slope():
    js = (2, 4, 8, 16)
    vals = [5.0 * j ** -1.5 for j in js]
    expo, resid = fit_exponent(js, vals)
    assert abs(expo + 1.5) < 1e-12
    assert resid < 1e-12


def test_test_function_bank():
    bump = make_test_function("bump", shape=(64, 64))
    assert np.max(bump.values) == pytest.approx(1.0)
    ind = make_test_function("indicator_ball", shape=(64, 64), radius=1.0)
    area = float(np.sum(ind.values) * ind.cell_volume)
    assert abs(area - math.pi) < 0.05 * math.pi
    with pytest.raises(KeyError):
        make_test_function("nope")

