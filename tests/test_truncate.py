import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclab.field import GridField
from cclab.truncate import (C_IMPL, lipschitz_truncate,
                            lipschitz_truncations, whitney_cubes)


def box_field(fn, N=128, n=2, period=2 * math.pi):
    axes = [np.arange(N) * period / N for _ in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    return GridField(np.asarray(fn(*grids))[..., None], (period,) * n)


def spike_field(N=128, n=2):
    def fn(*grids):
        vals = np.sin(grids[0])
        r2 = sum((g - math.pi) ** 2 for g in grids)
        return vals + 6.0 * np.exp(-r2 / (2 * 0.05**2))
    return box_field(fn, N=N, n=n)


# -- fixed points -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_linear_fixed_point(n):
    v = box_field(lambda *g: 0.3 * g[0] + (0.1 * g[1] if n == 2 else 0.0),
                  N=64, n=n)
    res = lipschitz_truncate(v, lam=100.0)
    assert np.max(np.abs(res.truncated.values - v.values)) < 1e-10


def test_quadratic_fixed_point_k2():
    # degree-2 polynomial must be reproduced by the order-2 Taylor gluing
    # even where the bad set is nonempty
    v = box_field(lambda x, y: 0.05 * (x - 2.0) ** 2 + 0.04 * x * y, N=64)
    [res] = lipschitz_truncations(v, (0.5,), k=2)
    assert np.any(res.badSet)
    scale = np.max(np.abs(v.values))
    assert np.max(np.abs(res.truncated.values - v.values)) < 1e-10 * scale


def test_identity_off_bad_set():
    v = spike_field()
    res = lipschitz_truncate(v, lam=2.0)
    good = ~res.badSet
    assert np.any(res.badSet)
    assert np.array_equal(res.truncated.values[good], v.values[good])


def test_empty_bad_set_returns_input():
    v = box_field(lambda x, y: np.sin(x), N=32)
    res = lipschitz_truncate(v, lam=1e6)
    assert not np.any(res.badSet)
    assert res.truncated is v


def test_trivial_truncation_raises():
    v = box_field(lambda x, y: np.sin(x), N=32)
    with pytest.raises(ValueError, match="trivial truncation"):
        lipschitz_truncate(v, lam=1e-12)


# -- measured constants -----------------------------------------------------

def test_derivative_bound_within_constant():
    v = spike_field()
    for lam in (1.0, 2.0, 5.0, 20.0):
        res = lipschitz_truncate(v, lam)
        assert res.measuredDerivBound <= C_IMPL


def test_chain_mask_inclusion():
    v = spike_field()
    res = lipschitz_truncate(v, lam=2.0)
    assert res.chainOk is True


def test_volume_constant_finite_when_bad():
    v = spike_field()
    res = lipschitz_truncate(v, lam=2.0)
    assert math.isfinite(res.measuredVolumeConstant)
    assert res.measuredVolumeConstant > 0.0


# -- Whitney geometry -------------------------------------------------------

@given(seed=st.integers(0, 10**6))
def test_whitney_cube_distance_window(seed):
    rng = np.random.default_rng(seed)
    bad = np.zeros((64, 64), dtype=bool)
    # random blobs
    for _ in range(3):
        cx, cy = rng.integers(5, 59, size=2)
        r = rng.integers(2, 9)
        X, Y = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        bad |= (X - cx) ** 2 + (Y - cy) ** 2 <= r * r
    if not np.any(bad) or np.all(bad):
        return
    h = 2 * math.pi / 64
    cubes = whitney_cubes(bad, h)
    covered = np.zeros_like(bad)
    assert len(cubes) == len(cubes.side) > 0
    for start, side, dist, nearest in zip(cubes.start, cubes.side,
                                          cubes.dist_to_good,
                                          cubes.nearest_good):
        side_len = side * h
        if side > 1:
            # standard Whitney window: side/4 <= dist <= 4 side
            assert dist >= side_len / 4 - 1e-12
        assert dist <= 4 * side_len + 1e-12
        assert not bad[tuple(nearest)]
        sl = tuple(slice(s, s + side) for s in start)
        assert np.all(bad[sl])
        covered[sl] = True
    assert np.array_equal(covered, bad)


def test_whitney_needs_good_points():
    with pytest.raises(ValueError):
        whitney_cubes(np.ones((8, 8), dtype=bool), 0.1)


def test_input_validation():
    v = spike_field(N=32)
    with pytest.raises(ValueError):
        lipschitz_truncate(v, lam=-1.0)
    with pytest.raises(ValueError):
        next(lipschitz_truncations(v, (1.0,), k=3))
    vec = GridField(np.zeros((8, 8, 2)), (1.0, 1.0))
    with pytest.raises(ValueError):
        lipschitz_truncate(vec, lam=1.0)
