from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from cclab import symbol as sym_mod
from cclab.symbol import (NAMED_OPERATORS, OperatorSymbol, RankReport,
                          constant_rank_check, evaluate, kernel_projection,
                          adjoint_symbol, make_operator, unit_sphere_points)

# A(v) = (d1 v1, d2 v2): symbol diag(xi1, xi2) is rank 1 on the axes
# (the deterministic sphere sample starts at (1, 0)) and rank 2 elsewhere
DIAGONAL = OperatorSymbol(n=2, l=1, dimV=2, dimW=2,
                          coeffs={(1, 0): np.array([[1.0, 0.0], [0.0, 0.0]]),
                                  (0, 1): np.array([[0.0, 0.0], [0.0, 1.0]])})


# ---------------------------------------------------------------------------
# verbatim copies of the per-point code the batched evaluator replaced
# ---------------------------------------------------------------------------

def _old_evaluate(sym, xi):
    """Exact polynomial evaluation A(xi) = sum A_alpha xi^alpha.

    Accepts real or complex xi of length sym.n.
    """
    xi = np.asarray(xi)
    if xi.shape != (sym.n,):
        raise ValueError(f"frequency has shape {xi.shape}, expected ({sym.n},)")
    out = np.zeros((sym.dimW, sym.dimV), dtype=xi.dtype if xi.dtype.kind == "c" else float)
    for alpha, mat in sym.coeffs.items():
        mono = 1.0
        for a, x in zip(alpha, xi):
            if a:
                mono = mono * x**a
        out = out + mono * mat
    return out


def _old_numerical_rank(mat, tolSV):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tolSV * sv[0]))


def _old_constant_rank_check(sym, samples=1000, tolSV=sym_mod.DEFAULT_TOL_SV):
    """Numerical rank of A(xi) over a deterministic sphere sample.

    Certified only up to sampling (the report records the sample count).
    """
    pts = unit_sphere_points(sym.n, samples)
    rank0 = None
    for xi in pts:
        r = _old_numerical_rank(_old_evaluate(sym, xi), tolSV)
        if rank0 is None:
            rank0 = r
        elif r != rank0:
            return RankReport(rank="non-constant", witness=xi, samples=len(pts))
    return RankReport(rank=rank0, witness=None, samples=len(pts))


# ---------------------------------------------------------------------------
# the batched evaluator and the rank check
# ---------------------------------------------------------------------------

SPECS = sorted(NAMED_OPERATORS) + ["grad:n=3", "grad:n=1"]
LEADING = [(), (1,), (6,), (2, 3), (4, 1)]
REAL = st.floats(-1e6, 1e6)
COMPLEX = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                             allow_infinity=False)


@given(st.data(), st.sampled_from(SPECS), st.sampled_from(LEADING),
       st.booleans())
def test_batched_evaluate_matches_per_point_bits(data, spec, lead, cplx):
    sym = make_operator(spec)
    xi = data.draw(hnp.arrays(complex if cplx else float, lead + (sym.n,),
                              elements=COMPLEX if cplx else REAL))
    A = evaluate(sym, xi)
    assert A.shape == lead + (sym.dimW, sym.dimV)
    assert A.dtype == (complex if cplx else float)
    for idx in np.ndindex(*lead):
        assert (A[idx].tobytes() == evaluate(sym, xi[idx]).tobytes()
                == _old_evaluate(sym, xi[idx]).tobytes())


@pytest.mark.parametrize("spec", SPECS)
def test_evaluate_rejects_wrong_trailing_length(spec):
    sym = make_operator(spec)
    for shape in [(), (sym.n + 1,), (3, sym.n + 1), (sym.n, 2)]:
        if shape[-1:] != (sym.n,):
            with pytest.raises(ValueError, match="frequency has shape"):
                evaluate(sym, np.zeros(shape))


@pytest.mark.parametrize("sym", [make_operator(s) for s in sorted(NAMED_OPERATORS)]
                         + [make_operator(f"grad:n={n}") for n in (1, 3, 4)]
                         + [make_operator("curl_matrix_n:n=3"), DIAGONAL],
                         ids=lambda s: s.name or "diagonal")
def test_rank_check_matches_per_point_loop(sym):
    for samples in (1, 2, 3, 100, 200, 500, 1000):
        new = constant_rank_check(sym, samples=samples)
        old = _old_constant_rank_check(sym, samples=samples)
        assert (new.rank, new.samples) == (old.rank, old.samples), samples
        assert type(new.rank) is type(old.rank)
        assert np.array_equal(new.witness, old.witness), samples


def test_named_operators_constant_rank():
    expected = {"div2": 1, "curl2": 1, "divcurl2": 2, "grad": 1,
                "curl_matrix_n": 2}
    for name, rank in expected.items():
        rep = constant_rank_check(make_operator(name), samples=200)
        assert rep.is_constant, name
        assert rep.rank == rank, name


def test_divcurl_symbol_value():
    sym = make_operator("divcurl2")
    A = evaluate(sym, np.array([1.0, 2.0]))
    # rows: div on (v1, v2), curl on (vt1, vt2)
    assert np.allclose(A, [[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, -2.0, 1.0]])


def test_non_constant_rank_detected():
    rep = constant_rank_check(DIAGONAL, samples=500)
    assert not rep.is_constant
    assert rep.witness is not None


unit_xi = st.integers(0, 359).map(
    lambda deg: np.array([np.cos(np.deg2rad(deg)), np.sin(np.deg2rad(deg))]))


@given(xi=unit_xi)
def test_projection_idempotent_symmetric(xi):
    sym = make_operator("divcurl2")
    P = kernel_projection(sym, xi)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P, P.T, atol=1e-12)


@given(xi=unit_xi, scale=st.floats(0.1, 100.0))
def test_projection_zero_homogeneous(xi, scale):
    sym = make_operator("divcurl2")
    assert np.allclose(kernel_projection(sym, xi),
                       kernel_projection(sym, scale * xi), atol=1e-10)


@given(xi=unit_xi)
def test_projection_annihilated_by_symbol(xi):
    sym = make_operator("divcurl2")
    P = kernel_projection(sym, xi)
    assert np.max(np.abs(evaluate(sym, xi) @ P)) < 1e-10


def test_projection_rejects_zero_frequency():
    with pytest.raises(ValueError):
        kernel_projection(make_operator("divcurl2"), np.zeros(2))


def _bits(a):
    return a.view(np.int64).tolist()


@pytest.mark.parametrize("shape", [(2, 4), (3, 3), (9, 9), (0, 3)])
def test_zero_symbol_projects_to_the_identity(monkeypatch, shape):
    """I - pinv(0) 0 is np.eye to the bit, also with no rows, so the
    projection needs no branch of its own for a vanishing symbol."""
    monkeypatch.setattr(sym_mod, "evaluate", lambda sym, xi: np.zeros(shape))
    P = kernel_projection(SimpleNamespace(dimV=shape[1]), np.array([0.6, 0.8]))
    assert _bits(P) == _bits(np.eye(shape[1]))


@pytest.mark.parametrize("xi", [(0.0, 1.0), (0.0, -2.5), (-0.0, 3.0)])
def test_vanishing_symbol_projects_to_the_identity(xi):
    # A(xi) = xi_1 M is zero on the xi_2 axis
    sym = OperatorSymbol(n=2, l=1, dimV=3, dimW=2,
                         coeffs={(1, 0): np.arange(1.0, 7.0).reshape(2, 3)})
    assert not np.any(evaluate(sym, np.array(xi)))
    assert _bits(kernel_projection(sym, np.array(xi))) == _bits(np.eye(3))


def test_curl_matrix_kernel_is_rank_one():
    sym = make_operator("curl_matrix_n")
    xi = np.array([0.6, 0.8])
    P = kernel_projection(sym, xi)
    # kernel = {a (x) xi}: dimension n = 2
    assert abs(np.trace(P) - 2.0) < 1e-10
    a = np.array([1.3, -0.4])
    v = np.outer(a, xi).reshape(-1)
    assert np.allclose(P @ v, v, atol=1e-10)


def test_adjoint_round_trip():
    sym = make_operator("div2")
    adj = adjoint_symbol(sym)
    assert adj.dimV == sym.dimW and adj.dimW == sym.dimV
    assert np.allclose(evaluate(adjoint_symbol(adj), np.array([1.0, 2.0])),
                       evaluate(sym, np.array([1.0, 2.0])))


def test_make_operator_suggestion():
    with pytest.raises(KeyError, match="divcurl2"):
        make_operator("divcurl3")


def test_sphere_points_are_unit():
    for n in (2, 3):
        for xi in unit_sphere_points(n, 40):
            assert abs(np.linalg.norm(xi) - 1.0) < 1e-12
