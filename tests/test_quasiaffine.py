import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from cclab import symbol as sym_mod
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
        Fv = TrigPoly.zero(v.n, 1)
        for i in range(v.dimV):
            Fv = Fv + trig_product(c(i), c(i))
    vol = (2 * math.pi)**v.n
    return float(trig_integral(Fv)[0]) / vol


def _trial_fields(sym, seed, trials):
    """The fields v0 + pert whose mean quasiaffine_mean_test takes."""
    rng = np.random.default_rng(seed)
    projections = {}
    for _ in range(trials):
        v0 = rng.standard_normal(sym.dimV)
        yield _random_afree_trig(sym, rng, v0, projections)


def _old_trial_fields(sym, seed, trials):
    """The same fields as made before _random_afree_trig built one
    polynomial: each of the four placed modes projected afresh, then
    pert + constant(v0)."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        v0 = rng.standard_normal(sym.dimV)
        terms = {}
        placed = 0
        while placed < 4:
            m = tuple(int(x) for x in rng.integers(-3, 4, size=sym.n))
            if all(x == 0 for x in m):
                continue
            P = sym_mod.kernel_projection(sym, np.array(m, dtype=float))
            amp = P @ (rng.standard_normal(sym.dimV)
                       + 1j * rng.standard_normal(sym.dimV))
            if np.max(np.abs(amp)) < 1e-12:
                continue
            neg = tuple(-x for x in m)
            terms[m] = terms.get(m, np.zeros(sym.dimV, complex)) + amp
            terms[neg] = (terms.get(neg, np.zeros(sym.dimV, complex))
                          + np.conj(amp))
            placed += 1
        pert = TrigPoly(n=sym.n, dimV=sym.dimV, terms=terms)
        yield pert + TrigPoly.constant(sym.n, v0, dimV=sym.dimV)


def test_one_trig_poly_keeps_the_sum_terms():
    # same keys in the same order (pert's, then the zero mode) and the same
    # amplitude bits as pert + constant, on runs with repeated frequencies
    for name in ("det2", "divcurl_dot"):
        sym = make_operator(OPERATOR_OF[name])
        for seed in (0, 1, 21, 125):
            for new, old in zip(_trial_fields(sym, seed, 100),
                                _old_trial_fields(sym, seed, 100),
                                strict=True):
                assert list(new.terms) == list(old.terms)
                assert list(new.terms)[-1] == (0,) * sym.n
                assert all(a.tobytes() == old.terms[m].tobytes()
                           for m, a in new.terms.items())


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


# sha256 of the records' "deviation scale pert_mass" float.hex lines, one
# per trial, at 100 trials: taken from the route that projected every placed
# mode afresh and added TrigPoly.constant(v0) to the perturbation
RECORD_DIGESTS = {
    ("divcurl2", "divcurl_dot", 0):
        "aa5a57c09f8f689bd485512a4118f5a247bc2dc842b6c96416eae9fc1f4df2db",
    ("divcurl2", "divcurl_dot", 21):
        "3a696a06889b303ab2e465bb4fffc8ae839cd66fe0939d6451500aa48d558518",
    ("curl_matrix_n", "det2", 0):
        "8c2433f635b89d8a5dc81186679d854a3948628f8d6e6d12cf63f2b58067f6d1",
    ("curl_matrix_n", "det2", 21):
        "fafeb1f03b9e375b81e21dc0074a5c946ee0e448ecf687dfd841d1758b1b594d",
    ("divcurl2", "sqnorm4", 0):
        "bcff81bbd5e5001f3dffe7f877bb33b92104e57d992ce866b85e98fde75dc9c5",
    ("divcurl2", "sqnorm4", 21):
        "b147917b78b8e0b176a600af33596563dfdabfcb6f40a573532a30f4c1b61469",
}


@pytest.mark.parametrize("operator, name, seed", sorted(RECORD_DIGESTS))
def test_mean_test_records_keep_their_bits(operator, name, seed):
    rep = quasiaffine_mean_test(INTEGRANDS[name], make_operator(operator),
                                seed=seed)
    text = "\n".join(f"{r['deviation'].hex()} {r['scale'].hex()} "
                     f"{r['pert_mass'].hex()}" for r in rep["records"])
    assert len(rep["records"]) == 100
    assert (hashlib.sha256(text.encode()).hexdigest()
            == RECORD_DIGESTS[operator, name, seed])


def _spy_projections(monkeypatch):
    """Record each kernel_projection call's frequency and a weak reference
    to the matrix it returns."""
    calls, made = [], []
    real = sym_mod.kernel_projection

    def spy(sym, xi):
        calls.append(tuple(xi))
        P = real(sym, xi)
        made.append(weakref.ref(P))
        return P

    monkeypatch.setattr(sym_mod, "kernel_projection", spy)
    return calls, made


@pytest.mark.parametrize("operator, name", [("divcurl2", "divcurl_dot"),
                                            ("curl_matrix_n", "det2")])
def test_mean_test_projects_each_frequency_once(monkeypatch, operator, name):
    # seed 21 places 400 modes at 48 distinct frequencies, all of [-3, 3]^2
    # but the origin
    calls, _ = _spy_projections(monkeypatch)
    quasiaffine_mean_test(INTEGRANDS[name], make_operator(operator), seed=21)
    assert len(calls) == len(set(calls)) == 48


def test_no_projection_table_outlives_the_mean_test(monkeypatch):
    calls, made = _spy_projections(monkeypatch)
    F, sym = INTEGRANDS["divcurl_dot"], make_operator("divcurl2")
    quasiaffine_mean_test(F, sym, trials=30)
    first = len(calls)
    gc.collect()
    assert first and all(ref() is None for ref in made)
    # a second test projects afresh: nothing was kept between calls
    quasiaffine_mean_test(F, sym, trials=30)
    assert calls[first:] == calls[:first]


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
    assert abs(fit_exponent(js, vals) + 1.5) < 1e-12


def test_test_function_bank():
    bump = make_test_function("bump", shape=(64, 64))
    assert np.max(bump.values) == pytest.approx(1.0)
    ind = make_test_function("indicator_ball", shape=(64, 64))
    area = float(np.sum(ind.values) * ind.cell_volume)
    assert abs(area - math.pi) < 0.05 * math.pi
    with pytest.raises(KeyError):
        make_test_function("nope")

