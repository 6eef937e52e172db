import math

import numpy as np
import pytest

from cclab import symbol as sym_mod
from cclab.field import GridField, apply_symbol, random_bandlimited
from cclab.symbol import make_operator, adjoint_symbol
from cclab.decompose import helmholtz


@pytest.fixture(scope="module")
def divcurl():
    return make_operator("divcurl2")


def test_residuals_small_random(divcurl, rng):
    for _ in range(5):
        v = random_bandlimited(rng, (64, 64), 4)
        res = helmholtz(v, divcurl)
        assert res.reconstructionError < 1e-12
        assert res.constraintResidual < 1e-12
        assert res.orthogonalityResidual < 1e-10
        assert res.potentialResidual < 1e-10


def test_idempotent(divcurl, rng):
    v = random_bandlimited(rng, (32, 32), 4)
    res = helmholtz(v, divcurl)
    res2 = helmholtz(res.bPart, divcurl)
    scale = np.max(np.abs(res.bPart.values)) + 1e-300
    assert np.max(np.abs(res2.bPart.values - res.bPart.values)) < 1e-10 * scale
    assert np.max(np.abs(res2.aStarPart.values)) < 1e-10 * scale


def test_afree_input_passes_through(divcurl):
    # (v, vt) with div v = curl vt = 0: kernel part is the whole field
    N = 64
    x = np.arange(N) * 2 * math.pi / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    vals = np.stack([np.sin(Y), np.cos(X), np.sin(X), np.cos(Y)], axis=-1)
    v = GridField(vals, (2 * math.pi, 2 * math.pi))
    res = helmholtz(v, divcurl)
    assert np.max(np.abs(res.bPart.values - v.values)) < 1e-12
    assert np.max(np.abs(res.aStarPart.values)) < 1e-12


def test_pure_potential_input(divcurl):
    # v = A* w for a smooth w lands entirely in the A*-range part
    N = 64
    x = np.arange(N) * 2 * math.pi / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    w = GridField(np.stack([np.sin(X + Y), np.cos(X - 2 * Y)], axis=-1),
                  (2 * math.pi, 2 * math.pi))
    v = apply_symbol(adjoint_symbol(divcurl), w)
    res = helmholtz(v, divcurl)
    scale = np.max(np.abs(v.values))
    assert np.max(np.abs(res.bPart.values)) < 1e-12 * scale
    assert np.max(np.abs(res.aStarPart.values - v.values)) < 1e-12 * scale


def test_zero_mode_goes_to_kernel(divcurl):
    v = GridField(np.broadcast_to(np.array([1.0, 2.0, 3.0, 4.0]),
                                  (16, 16, 4)).copy(),
                  (2 * math.pi, 2 * math.pi))
    res = helmholtz(v, divcurl)
    assert np.max(np.abs(res.bPart.values - v.values)) < 1e-13
    assert np.max(np.abs(res.w.values)) < 1e-13


def test_potential_identity(divcurl, rng):
    # aStarPart = A* w by construction (gauge fixed by the pseudoinverse)
    v = random_bandlimited(rng, (32, 32), 4)
    res = helmholtz(v, divcurl)
    astar_w = apply_symbol(adjoint_symbol(divcurl), res.w)
    scale = np.max(np.abs(v.values))
    assert np.max(np.abs(astar_w.values - res.aStarPart.values)) < 1e-10 * scale


def test_dimension_mismatch_raises(divcurl, rng):
    v = random_bandlimited(rng, (16, 16), 3)
    with pytest.raises(ValueError):
        helmholtz(v, divcurl)


@pytest.mark.parametrize("shape", [(8, 8, 8), (8,)])
def test_wrong_space_dimension_raises_before_any_transform(shape, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the dimension check")

    # field.fft's rfftn is the one forward transform that a split runs
    monkeypatch.setattr(np.fft, "rfftn", forbidden)
    monkeypatch.setattr(sym_mod, "constant_rank_check", forbidden)
    v = GridField(np.zeros(shape + (2,)), 1.0)
    with pytest.raises(ValueError, match=f"field dimension {len(shape)} "
                                         "!= operator dimension 2"):
        helmholtz(v, make_operator("div2"))
