"""The level-wise Whitney step and the lambda sweep keep every bit.

`_old_whitney_cubes` and `_old_whitney_extend` are reference copies of the
Whitney step as it was when it recursed over the dyadic tree and glued one
cube at a time; the vectorised versions must give the same cubes, in the
same order, and the same bytes.  `_old_chain_mask_inclusion` is the chain
check as it was when it took v and a result and differentiated both; the
sweep's verdict, taken from its own derivative stacks, must equal it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from cclab import truncate
from cclab.cli import item_rng
from cclab.truncate import (_derivative_stack, _dilate, _level_magnitude,
                            _partial_derivative, _pou_bump, _spacing,
                            _taylor_terms, finite_difference_gradient,
                            lipschitz_truncate, lipschitz_truncations,
                            truncation_case, whitney_cubes, whitney_extend)


def _cube_rows(cubes):
    """The WhitneyCubes record as one (start, side, dist_to_good,
    nearest_good) tuple per cube, in its order."""
    return [(tuple(s), d, g, tuple(q)) for s, d, g, q in zip(
        cubes.start.tolist(), cubes.side.tolist(),
        cubes.dist_to_good.tolist(), cubes.nearest_good.tolist())]


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
        out.append((tuple(int(s) for s in start), int(side), dmin, nearest))
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
    for start, side, _, q in cubes:
        side_len = side * h
        center = [(s + (side - 1) / 2.0) * h for s in start]
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
    old_cubes = _old_whitney_cubes(bad, h)
    assert len(cubes) == len(old_cubes)
    assert _cube_rows(cubes) == old_cubes
    values = rng.standard_normal(bad.shape)
    levels = _derivative_stack(values, h, k)
    u, pou_min = whitney_extend(~bad, values, levels, k, h, cubes)
    u_old, _, pou_min_old = _old_whitney_extend(~bad, values, levels, k, h,
                                                old_cubes)
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
        assert res.badSet.all() and res.cubes is None
        assert res.chainOk is None
        assert math.isnan(res.measuredDerivBound)
        assert math.isnan(res.measuredVolumeConstant)
        return COVERS_BOX
    cubes = [] if res.cubes is None else _cube_rows(res.cubes)
    return (res.lam, res.truncated.values.tobytes(), res.badSet.tobytes(),
            cubes, res.measuredDerivBound, res.measuredVolumeConstant,
            res.chainOk)


def _single(v, lam, k):
    """The run of the one level lam (a box-covering level included)."""
    [res] = lipschitz_truncations(v, (lam,), k=k)
    return _outcome(res)


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


def _old_chain_mask_inclusion(v, result, tol=1e-10):
    h = _spacing(v)
    dv = _level_magnitude(finite_difference_gradient(v.values[..., 0], h))
    du = _level_magnitude(finite_difference_gradient(
        result.truncated.values[..., 0], h))
    scale = float(np.max(dv)) + 1e-300
    differ = np.abs(dv - du) > tol * scale
    allowed = ndimage.binary_dilation(result.badSet, iterations=2)
    return bool(np.all(allowed[differ]))


@pytest.mark.parametrize("seed,case,shape,n,k", SWEEP_CASES)
def test_sweep_chain_verdict_matches_reference(seed, case, shape, n, k):
    v = truncation_case(item_rng(seed, "truncate", case), shape, n)
    verdicts = [(res.chainOk, _old_chain_mask_inclusion(v, res))
                for res in lipschitz_truncations(v, LAMBDAS, k=k)
                if res.truncated is not None]
    assert verdicts and all(got is want for got, want in verdicts)


def test_chain_check_sees_one_changed_good_cell(monkeypatch):
    """A u altered at one good cell, three or more cells from the bad set,
    fails the sweep's check, and the reference copy agrees."""
    v = truncation_case(item_rng(0, "truncate", 0), 64, 2)
    res = lipschitz_truncate(v, 2.0)
    assert res.chainOk is True and res.badSet.any()
    far = np.argwhere(~ndimage.binary_dilation(res.badSet, iterations=3))
    cell = tuple(far[len(far) // 2])
    extend = truncate.whitney_extend

    def altered_extend(*args):
        u, pou_min = extend(*args)
        u[cell] += 1.0
        return u, pou_min

    monkeypatch.setattr(truncate, "whitney_extend", altered_extend)
    altered = lipschitz_truncate(v, 2.0)
    assert altered.truncated.values[cell + (0,)] != v.values[cell + (0,)]
    assert altered.chainOk is False
    assert _old_chain_mask_inclusion(v, altered) is False


@pytest.mark.parametrize("cell, gap, ok", [
    ((4, 6), 1.0, True), ((6, 5), 1.0, False), ((4, 7), 1.0, False),
    ((0, 0), 0.5e-10, True), ((0, 0), 2e-10, False)])
def test_chain_check_radius_and_tolerance(cell, gap, ok):
    """|Du| may differ from |Dv| within two face steps of the bad set (a
    diagonal step counts two), and by less than 1e-10 of max |Dv| anywhere."""
    bad = np.zeros((9, 9), dtype=bool)
    bad[4, 4] = True
    dv = np.ones((9, 9))
    du = dv.copy()
    du[cell] += gap
    assert truncate.chain_mask_inclusion(dv, du, bad) is ok


@st.composite
def dilation_masks(draw):
    """A mask in 1-D or 2-D, axes of length 1 included, at any density."""
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(mask=dilation_masks(), iterations=st.sampled_from([1, 2]))
def test_dilation_matches_ndimage(mask, iterations):
    got = _dilate(mask, iterations)
    want = ndimage.binary_dilation(mask, iterations=iterations)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
