"""The level-wise Whitney step and the lambda sweep keep every bit.

`_old_whitney_cubes` and `_old_whitney_extend` are reference copies of the
Whitney step as it was when it recursed over the dyadic tree and glued one
cube at a time; the vectorised versions must give the same cubes, in the
same order, and the same bytes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from cclab.cli import item_rng
from cclab.truncate import (WhitneyCube, _derivative_stack,
                            _partial_derivative, _pou_bump, _taylor_terms,
                            lipschitz_truncate, lipschitz_truncations,
                            truncation_case, whitney_cubes, whitney_extend)


def _old_whitney_cubes(bad, h):
    if not np.any(~bad):
        raise ValueError("trivial truncation: no good points to extend from")
    dist = ndimage.distance_transform_edt(bad) * h
    shape = bad.shape
    top = 1 << (max(shape) - 1).bit_length()
    cubes = []

    def visit(start, side):
        sl = tuple(slice(s, min(s + side, dim)) for s, dim in zip(start, shape))
        block = bad[sl]
        if block.size == 0 or not np.any(block):
            return
        full = all(min(s + side, dim) - s == side for s, dim in zip(start, shape))
        if full and np.all(block):
            dmin = float(np.min(dist[sl]))
            if side == 1 or dmin >= 0.5 * side * h:
                cubes.append((start, side, dmin))
                return
        if side == 1:
            if bad[start]:
                cubes.append((start, 1, float(dist[start])))
            return
        half = side // 2
        for offs in itertools.product((0, half), repeat=len(shape)):
            child = tuple(s + o for s, o in zip(start, offs))
            if all(c < dim for c, dim in zip(child, shape)):
                visit(child, half)

    for corner in itertools.product(*[range(0, dim, top) for dim in shape]):
        visit(corner, top)
    _, inds = ndimage.distance_transform_edt(bad, return_indices=True)
    out = []
    for start, side, dmin in cubes:
        center = tuple(min(s + side // 2, dim - 1) for s, dim in zip(start, shape))
        nearest = tuple(int(ix[center]) for ix in inds)
        out.append(WhitneyCube(start=tuple(int(s) for s in start), side=int(side),
                               dist_to_good=dmin, nearest_good=nearest))
    return out


def _old_whitney_extend(good_mask, values, levels, k, h, cubes):
    bad = ~good_mask
    if not np.any(bad):
        return values.copy(), tuple(), 1.0
    shape = values.shape
    n = values.ndim
    terms = _taylor_terms(k, n)
    num = np.zeros(shape)
    den = np.zeros(shape)
    axes_coords = [np.arange(dim) * h for dim in shape]
    for cube in cubes:
        side_len = cube.side * h
        center = [(s + (cube.side - 1) / 2.0) * h for s in cube.start]
        radius = (9.0 / 16.0) * side_len
        box = []
        for ax in range(n):
            lo = int(math.floor((center[ax] - radius) / h)) - 1
            hi = int(math.ceil((center[ax] + radius) / h)) + 1
            box.append(slice(max(lo, 0), min(hi + 1, shape[ax])))
        box = tuple(box)
        w = np.ones([b.stop - b.start for b in box])
        local_coords = []
        for ax in range(n):
            x = axes_coords[ax][box[ax]]
            shp = [1] * n
            shp[ax] = x.size
            local_coords.append(x.reshape(shp))
            w = w * _pou_bump((x.reshape(shp) - center[ax]) / radius)
        q = cube.nearest_good
        xq = [q[ax] * h for ax in range(n)]
        P = np.zeros_like(w)
        for alpha, coef in terms:
            dval = _partial_derivative(levels, alpha)[q]
            mono = coef * dval
            for ax, a in enumerate(alpha):
                if a:
                    mono = mono * (local_coords[ax] - xq[ax]) ** a
            P = P + mono
        num[box] += w * P
        den[box] += w
    u = values.copy()
    pou_min = float(np.min(den[bad]))
    if pou_min <= 0.0:
        raise RuntimeError("partition of unity failed to cover the bad set")
    u[bad] = num[bad] / den[bad]
    return u, tuple(cubes), pou_min


@st.composite
def masks(draw):
    """A bad mask in 1-D or 2-D with at least one good cell: smoothed noise
    cut at a level, so the bad set has blobs as well as single cells."""
    n = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(3, 70)) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    smooth = ndimage.uniform_filter(rng.random(shape),
                                    size=draw(st.integers(1, 9)))
    bad = smooth < np.quantile(smooth, draw(st.floats(0.0, 1.0)))
    if np.all(bad):
        bad[tuple(rng.integers(0, dim) for dim in shape)] = False
    return bad, rng


@settings(max_examples=150, deadline=None)
@given(case=masks(), k=st.sampled_from([1, 2]))
def test_whitney_step_keeps_bits(case, k):
    bad, rng = case
    h = 2 * math.pi / max(bad.shape)
    cubes = whitney_cubes(bad, h)
    assert cubes == _old_whitney_cubes(bad, h)
    values = rng.standard_normal(bad.shape)
    levels = _derivative_stack(values, h, k)
    u, got_cubes, pou_min = whitney_extend(~bad, values, levels, k, h)
    u_old, _, pou_min_old = _old_whitney_extend(~bad, values, levels, k, h,
                                                cubes)
    assert got_cubes == tuple(cubes)
    assert u.tobytes() == u_old.tobytes()
    assert pou_min == pou_min_old


# (seed, case, shape, n, k) of truncation_case; seed 6 case 2 covers the box
# at lambda = 0.5, and seed 4 case 5 has the worst derivative constant.
SWEEP_CASES = [(0, 0, 64, 2, 2), (1, 3, 100, 1, 1), (2, 1, 31, 2, 2),
               (4, 5, 128, 2, 1), (6, 2, 128, 2, 1)]
LAMBDAS = (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)


COVERS_BOX = "trivial truncation: bad set covers the whole box"


def _outcome(res):
    """(level, truncated bytes, bad-set bytes, cubes, constants); a level
    whose bad set covers the box reads as the error lipschitz_truncate
    raises there."""
    if res.truncated is None:
        assert res.badSet.all() and res.cubes == ()
        assert math.isnan(res.measuredDerivBound)
        assert math.isnan(res.measuredVolumeConstant)
        return COVERS_BOX
    return (res.lam, res.truncated.values.tobytes(), res.badSet.tobytes(),
            res.cubes, res.measuredDerivBound, res.measuredVolumeConstant)


def _single(v, lam, k):
    try:
        return _outcome(lipschitz_truncate(v, lam, k=k))
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("lams", [LAMBDAS, LAMBDAS[::-1]])
@pytest.mark.parametrize("seed,case,shape,n,k", SWEEP_CASES)
def test_sweep_matches_single_levels(seed, case, shape, n, k, lams):
    """The sweep yields every level, each equal to its single-level run;
    a box-covering level is marked not applicable and the sweep goes on."""
    v = truncation_case(item_rng(seed, "truncate", case), shape, n)
    swept = [_outcome(res) for res in lipschitz_truncations(v, lams, k=k)]
    assert swept == [_single(v, lam, k) for lam in lams]
    if seed == 6:
        assert swept[lams.index(0.5)] == COVERS_BOX
        assert swept.count(COVERS_BOX) == 1
