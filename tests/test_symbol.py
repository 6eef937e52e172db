import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclab import symbol as sym_mod
from cclab.symbol import (OperatorSymbol, constant_rank_check, evaluate,
                          kernel_projection, adjoint_symbol, make_operator,
                          unit_sphere_points)


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
    # A(v) = (d1 v1, d2 v2): symbol diag(xi1, xi2) is rank 1 on the axes
    # (the deterministic sphere sample starts at (1, 0)) and rank 2 elsewhere
    sym = OperatorSymbol(n=2, l=1, dimV=2, dimW=2,
                         coeffs={(1, 0): np.array([[1.0, 0.0], [0.0, 0.0]]),
                                 (0, 1): np.array([[0.0, 0.0], [0.0, 1.0]])})
    rep = constant_rank_check(sym, samples=500)
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
