import math

import numpy as np
import pytest

from cclab.cli import main
from cclab.field import TrigPoly, trig_integral, trig_product
from cclab.symbol import make_operator
from cclab.quasiaffine import (INTEGRANDS, evaluate_F, quasiaffine_mean_test,
                               pairing_experiment, make_test_function,
                               fit_exponent, _random_afree_trig)

# each integrand with the operator it is tested against
OPERATOR_OF = {"det2": "curl_matrix_n", "divcurl_dot": "divcurl2",
               "sqnorm4": "divcurl2"}


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
    # the exact mean equals the grid mean of F on the rendered field, which
    # is exact here because every product frequency is resolved on 32^2
    e = np.eye(4)
    v = (TrigPoly.wave(2, (1, 0), "cos", phase_vector=e[0])
         + TrigPoly.wave(2, (0, 1), "sin", phase_vector=e[1])
         + TrigPoly.wave(2, (1, 1), "cos", phase_vector=e[2])
         + TrigPoly.wave(2, (2, 0), "sin", phase_vector=e[3])
         + TrigPoly.constant(2, [0.3, -1.2, 0.7, 2.0]))
    for F in INTEGRANDS.values():
        grid = evaluate_F(F, v.render((32, 32)))
        assert abs(F.mean(v) - float(np.mean(grid.values))) < 1e-12


def _old_exact_mean(F, v):
    """The mean of F(v) as computed before integrands were quadratic forms:
    build F(v) by sparse products and sums, then read its zero mode."""
    c = v.component
    if F.name == "det2":
        Fv = trig_product(c(0), c(3)) - trig_product(c(1), c(2))
    elif F.name == "divcurl_dot":
        Fv = trig_product(c(0), c(2)) + trig_product(c(1), c(3))
    else:
        Fv = TrigPoly.zero(v.n, 1, v.period)
        for i in range(v.dimV):
            Fv = Fv + trig_product(c(i), c(i))
    vol = v.period**v.n
    return float(trig_integral(Fv)[0]) / vol


def _trial_fields(sym, seed, trials):
    """The fields v0 + pert whose mean quasiaffine_mean_test takes."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        v0 = rng.standard_normal(sym.dimV)
        pert = _random_afree_trig(sym, rng)
        yield pert + TrigPoly.constant(sym.n, v0, dimV=sym.dimV)


def test_exact_mean_keeps_the_old_route_bits():
    # the first 25 of the 100 trials on seeds 0-11: the old route is slow
    completed = 0
    for name, F in INTEGRANDS.items():
        sym = make_operator(OPERATOR_OF[name])
        for seed in range(12):
            pairs = []
            try:
                for total in _trial_fields(sym, seed, 25):
                    pairs.append((F.mean(total), _old_exact_mean(F, total)))
            except ValueError:
                continue  # the old route raised on this run
            completed += 1
            assert [new.hex() for new, _ in pairs] == \
                [old.hex() for _, old in pairs]
    assert completed >= 35


@pytest.mark.parametrize("name, seed", [("divcurl_dot", 21),
                                        ("divcurl_dot", 125),
                                        ("det2", 1), ("det2", 26)])
def test_mean_test_passes_where_sparse_products_raised(name, seed):
    # the old route lost one of a +-m pair when an amplitude cancelled to
    # exactly zero, and the Hermitian check raised
    rep = quasiaffine_mean_test(INTEGRANDS[name],
                                make_operator(OPERATOR_OF[name]), seed=seed)
    assert rep["verdict"] == "quasiaffine-consistent"
    assert len(rep["records"]) == 100


def test_cli_quasiaffine_seed_21_passes(tmp_path, capsys):
    assert main(["quasiaffine", "--seed", "21", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("shape", [(64, 64), (33, 17)])
def test_grid_route_keeps_the_old_expression_bits(shape):
    v = np.random.default_rng(3).standard_normal(shape + (4,))
    old = {"det2": v[..., 0] * v[..., 3] - v[..., 1] * v[..., 2],
           "divcurl_dot": v[..., 0] * v[..., 2] + v[..., 1] * v[..., 3],
           "sqnorm4": np.sum(v**2, axis=-1)}
    for name, F in INTEGRANDS.items():
        assert F(v).tobytes() == old[name].tobytes()


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

