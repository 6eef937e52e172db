"""Lipschitz truncation: maximal-function thresholding + Whitney extension.

The field is treated as a plain sampled box (not a torus): polynomial inputs
of degree <= k must be fixed points, and polynomials are not periodic, so all
derivatives here are finite differences (one-sided at the box edges) and the
running averages use clipped windows.

Pipeline: f = |v| + |Dv| + ... + |D^k v|; the bad set is where the running
cube-average maximal of f (over dyadic radii, pointwise value included)
reaches 2*lambda, dilated by one cell layer; the bad set is decomposed into
dyadic Whitney cubes (side within the standard factor of the distance to the
good set), each cube receives the Taylor polynomial of its nearest good
point, and the polynomials are glued with a smooth partition of unity on
9/8-dilated cubes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import GridField

__all__ = ["TruncationResult", "WhitneyCubes", "lipschitz_truncate",
           "lipschitz_truncations", "whitney_extend", "whitney_cubes",
           "chain_mask_inclusion", "finite_difference_gradient",
           "truncation_case"]

C_IMPL = 64.0  # documented implementation constant for ||D^k u||_inf <= C lambda
CHAIN_TOL = 1e-10  # relative gap at which |Dv| and |Du| count as different


@dataclass(frozen=True)
class WhitneyCubes:
    """The Whitney cubes of a bad mask, one row per cube, in the Morton
    order of their corners (the depth-first order of the subdivision)."""
    start: np.ndarray         # (C, n) index corners (inclusive)
    side: np.ndarray          # (C,) side lengths in cells
    dist_to_good: np.ndarray  # (C,) length units, min over each cube's cells
    nearest_good: np.ndarray  # (C, n) index of each cube's Taylor base point

    def __len__(self):
        return len(self.side)


@dataclass(frozen=True)
class TruncationResult:
    """One level of the sweep.  truncated is None when the bad set covers
    the box (nan constants, chainOk None); cubes is None when nothing was
    extended (an empty or box-covering bad set).  chainOk: every cell where
    |Du| differs from |Dv| lies within 2 cells of the bad set."""
    truncated: GridField
    badSet: np.ndarray
    lam: float
    measuredDerivBound: float
    measuredVolumeConstant: float
    cubes: WhitneyCubes
    derivative_orders: int
    chainOk: bool


def truncation_case(rng, shape1d, n):
    """A test field on [0, 2 pi)^n: four random Gaussian bumps plus one sharp
    spike, which forces a nonempty bad set at moderate lambda."""
    period = 2 * math.pi
    shape = (shape1d,) * n
    axes = [np.arange(s) * period / s for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = np.zeros(shape)
    for _ in range(4):
        c = rng.uniform(0.5, period - 0.5, size=n)
        w = rng.uniform(0.2, 0.8)
        amp = rng.uniform(-3.0, 3.0)
        r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
        vals += amp * np.exp(-r2 / (2 * w * w))
    c = rng.uniform(1.0, period - 1.0, size=n)
    r2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
    vals += rng.uniform(4.0, 8.0) * np.exp(-r2 / (2 * 0.05**2))
    return GridField(vals[..., None], (period,) * n)


def _spacing(f):
    hs = [p / s for p, s in zip(f.period, f.shape)]
    if max(hs) - min(hs) > 1e-12 * max(hs):
        raise ValueError("truncation requires uniform grid spacing")
    return hs[0]


def finite_difference_gradient(arr, h):
    """First partials by central differences (one-sided at box edges)."""
    return [np.gradient(arr, h, axis=ax, edge_order=2) for ax in range(arr.ndim)]


def _derivative_stack(arr, h, k):
    """List of lists: level i holds all order-i partial derivative arrays."""
    levels = [[arr]]
    for _ in range(k):
        nxt = []
        for a in levels[-1]:
            nxt.extend(finite_difference_gradient(a, h))
        levels.append(nxt)
    return levels


def _level_magnitude(level):
    return np.sqrt(sum(a**2 for a in level))


def _taylor_terms(k, n):
    """Multi-indices of order <= k in n variables with 1/alpha! weights."""
    terms = []
    for total in range(k + 1):
        for alpha in itertools.product(range(total + 1), repeat=n):
            if sum(alpha) == total:
                w = 1.0
                for a in alpha:
                    w /= math.factorial(a)
                terms.append((alpha, w))
    return terms


def _partial_derivative(levels, alpha):
    """Pick the order-|alpha| derivative array d^alpha from the stack."""
    # level arrays are ordered by repeated gradient flattening: index in base
    # n^{|alpha|} with digits = successive differentiation axes
    order = sum(alpha)
    axes = []
    for ax, a in enumerate(alpha):
        axes.extend([ax] * a)
    # mixed partials commute up to FD error; canonical ordering is fine
    idx = 0
    n = len(alpha)
    for ax in axes:
        idx = idx * n + ax
    return levels[order][idx]


def _axis_slice(ax, sl):
    return (slice(None),) * ax + (sl,)


def _pairwise(op, a):
    """op of each even/odd pair of entries, along every axis in turn: one
    level of an any/all/min pyramid over 2^n blocks."""
    for ax in range(a.ndim):
        a = op(a[_axis_slice(ax, slice(0, None, 2))],
               a[_axis_slice(ax, slice(1, None, 2))])
    return a


def _dilate(mask, iterations):
    """ndimage.binary_dilation(mask, iterations=iterations) with its default
    cross structure and zero border: each pass ORs in the face neighbours."""
    for _ in range(iterations):
        out = mask.copy()
        for ax in range(mask.ndim):
            lo = _axis_slice(ax, slice(None, -1))
            hi = _axis_slice(ax, slice(1, None))
            out[hi] |= mask[lo]
            out[lo] |= mask[hi]
        mask = out
    return mask


def whitney_cubes(bad, h):
    """Dyadic Whitney decomposition of the bad mask, as one WhitneyCubes
    record (len() is the number of cubes).

    Accept an all-bad dyadic cube when its distance to the good set is at
    least side/2; otherwise subdivide.  Single cells are accepted when bad.
    Yields cubes whose side stays within the standard factor-4 window of the
    distance to the good set, in depth-first order of the subdivision.
    """
    from scipy import ndimage
    if not np.any(~bad):
        raise ValueError("trivial truncation: no good points to extend from")
    dist, inds = ndimage.distance_transform_edt(bad, return_indices=True)
    n = bad.ndim
    top = 1 << (max(bad.shape) - 1).bit_length()
    # any/all/min pyramids over 2^n blocks, finest first; a block that
    # overhangs the box holds padded good cells, so it is never all bad
    pad = tuple((0, top - dim) for dim in bad.shape)
    anys = [np.pad(bad, pad)]
    alls = [anys[0]]
    mins = [np.pad(dist * h, pad, constant_values=np.inf)]
    while anys[-1].shape[0] > 1:
        anys.append(_pairwise(np.logical_or, anys[-1]))
        alls.append(_pairwise(np.logical_and, alls[-1]))
        mins.append(_pairwise(np.minimum, mins[-1]))
    starts, sides, dmins = [], [], []
    active = anys[-1]
    for level in reversed(range(len(anys))):
        side = 1 << level
        accept = active & alls[level] & (
            (side == 1) | (mins[level] >= 0.5 * side * h))
        found = np.nonzero(accept)
        starts.append(np.transpose(found) * side)
        sides.append(np.full(len(found[0]), side))
        dmins.append(mins[level][found])
        if level:  # visit the children of every block not accepted
            active = active & ~accept
            for ax in range(n):
                active = active.repeat(2, axis=ax)
            active &= anys[level - 1]
    starts, sides, dmins = (np.concatenate(a) for a in (starts, sides, dmins))
    # depth-first order of disjoint dyadic cubes is the Morton order of their
    # corners, with axis 0 the more significant bit
    key = np.zeros(len(sides), dtype=np.int64)
    for bit in reversed(range(top.bit_length())):
        for ax in range(n):
            key = (key << 1) | ((starts[:, ax] >> bit) & 1)
    order = np.argsort(key)
    starts, sides, dmins = starts[order], sides[order], dmins[order]
    # nearest good point per cube (from the EDT index map at the cube center)
    center = starts + (sides // 2)[:, None]
    nearest = inds[(slice(None),) + tuple(center.T)].T
    return WhitneyCubes(start=starts, side=sides, dist_to_good=dmins,
                        nearest_good=nearest)


def _pou_bump(t):
    """C^1 bump (1-t^2)^2 on |t|<1 (per-axis factor of the cube weights)."""
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    out[inside] = (1.0 - t[inside] ** 2) ** 2
    return out


def whitney_extend(good_mask, values, levels, k, h, cubes):
    """Rebuild the bad region from Taylor data at nearest good points.

    good_mask: boolean array (True = keep values); values: base array;
    levels: derivative stack from _derivative_stack (orders 0..k) sampled on
    the full grid (only good-point values are consulted); cubes: the
    WhitneyCubes of ~good_mask.  Returns (array u, pou_min), where pou_min is
    the smallest partition-of-unity sum seen on the bad set (1 after
    normalization; reported pre-normalization).
    """
    bad = ~good_mask
    if not np.any(bad):
        return values.copy(), 1.0
    shape = values.shape
    n = values.ndim
    start, side, q = cubes.start, cubes.side, cubes.nearest_good
    center = (start + (side[:, None] - 1) / 2.0) * h
    radius = (9.0 / 16.0) * (side * h)
    # bounding box of each dilated cube support, clipped to the grid
    reach = radius[:, None]
    lo = np.maximum(np.floor((center - reach) / h) - 1, 0).astype(np.int64)
    hi = np.minimum(np.ceil((center + reach) / h) + 2, shape).astype(np.int64)
    # every box's cells in one list, cube by cube, each box in C order; a
    # cell's factor along an axis depends only on its cube and its index on
    # that axis (its lane), so each factor is evaluated once per lane
    extent = hi - lo
    sizes = np.prod(extent, axis=1)
    owner = np.repeat(np.arange(len(cubes)), sizes)
    rest = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cells, lane = [None] * n, [None] * n
    bump, offset = [None] * n, [None] * n
    for ax in reversed(range(n)):
        rest, local = np.divmod(rest, extent[owner, ax])
        cells[ax] = lo[owner, ax] + local
        first = np.cumsum(extent[:, ax]) - extent[:, ax]
        lane[ax] = first[owner] + local
        lane_owner = np.repeat(np.arange(len(cubes)), extent[:, ax])
        lane_local = np.arange(lane_owner.size) - first[lane_owner]
        x = (np.arange(shape[ax]) * h)[lo[lane_owner, ax] + lane_local]
        bump[ax] = _pou_bump((x - center[lane_owner, ax]) / radius[lane_owner])
        offset[ax] = x - q[lane_owner, ax] * h
    w = np.ones(owner.size)
    for ax in range(n):
        w = w * bump[ax][lane[ax]]
    P = np.zeros_like(w)
    for alpha, coef in _taylor_terms(k, n):
        mono = (coef * _partial_derivative(levels, alpha)[tuple(q.T)])[owner]
        for ax, a in enumerate(alpha):
            if a:
                mono = mono * (offset[ax] ** a)[lane[ax]]
        P = P + mono
    # bincount adds in list order from 0.0: each cell sums its cubes in order
    flat = np.ravel_multi_index(tuple(cells), shape)
    num = np.bincount(flat, weights=w * P, minlength=values.size).reshape(shape)
    den = np.bincount(flat, weights=w, minlength=values.size).reshape(shape)
    u = values.copy()
    pou_min = float(np.min(den[bad]))
    if pou_min <= 0.0:
        raise RuntimeError("partition of unity failed to cover the bad set")
    u[bad] = num[bad] / den[bad]
    return u, pou_min


def lipschitz_truncations(v, lams, k=1):
    """Prop-style truncation at each level of lams, in order: u = v off the
    bad set exactly, measured sup-derivative and level-set volume constants,
    and the chain-mask verdict (chain_mask_inclusion on the sweep's |Dv| and
    the |Du| of u's own derivative stack).

    f and its maximal function are built once; a bad level raises when the
    sweep reaches it.  A level whose bad set covers the box is not applicable:
    its result has truncated=None and nan constants, and the sweep goes on.
    v must be scalar (dimV = 1); k in {1, 2}; n in {1, 2}.
    """
    from scipy import ndimage
    if v.dimV != 1:
        raise ValueError("truncation operates on scalar fields")
    if k not in (1, 2) or v.n not in (1, 2):
        raise ValueError("supported surface: k in {1,2}, n in {1,2}")
    h = _spacing(v)
    arr = v.values[..., 0]
    levels = _derivative_stack(arr, h, k)
    mags = [_level_magnitude(lv) for lv in levels]
    f = sum(mags)
    energy = sum(m ** 2 for m in mags)
    top_bound = float(np.max(mags[k]))
    # clipped-window cube averages over dyadic radii, one cell to half the box
    maximal = f.copy()
    ones = np.ones_like(f)
    r = 1
    while r * h <= max(v.period) / 2:
        s = ndimage.uniform_filter(f, size=2 * r + 1, mode="constant")
        w = ndimage.uniform_filter(ones, size=2 * r + 1, mode="constant")
        maximal = np.maximum(maximal, s / np.maximum(w, 1e-300))
        r *= 2
    cell_vol = v.cell_volume
    for lam in lams:
        if lam <= 0:
            raise ValueError("lambda must be positive")
        bad = _dilate(maximal >= 2.0 * lam, 1)
        if np.all(bad):
            yield TruncationResult(truncated=None, badSet=bad, lam=lam,
                                   measuredDerivBound=math.nan,
                                   measuredVolumeConstant=math.nan,
                                   cubes=None, derivative_orders=k,
                                   chainOk=None)
            continue
        if not np.any(bad):  # u is v, so Du = Dv everywhere
            yield TruncationResult(truncated=v, badSet=bad, lam=lam,
                                   measuredDerivBound=top_bound / lam,
                                   measuredVolumeConstant=0.0, cubes=None,
                                   derivative_orders=k, chainOk=True)
            continue
        cubes = whitney_cubes(bad, h)
        u, _ = whitney_extend(~bad, arr, levels, k, h, cubes)
        u_levels = _derivative_stack(u, h, k)
        u_mags = [_level_magnitude(lv) for lv in u_levels[1:]]
        deriv_bound = float(np.max(u_mags[-1])) / lam
        changed_measure = float(np.sum(bad)) * cell_vol
        denom = float(np.sum(energy[f > lam]) * cell_vol)
        volume_const = (changed_measure * lam**2 / denom if denom > 0
                        else math.inf)
        yield TruncationResult(truncated=GridField(u[..., None], v.period),
                               badSet=bad, lam=lam,
                               measuredDerivBound=deriv_bound,
                               measuredVolumeConstant=float(volume_const),
                               cubes=cubes, derivative_orders=k,
                               chainOk=chain_mask_inclusion(mags[1], u_mags[0],
                                                            bad))


def lipschitz_truncate(v, lam):
    """The first-order truncation of v at the one level lam (see
    lipschitz_truncations); a lam whose bad set covers the box raises
    ValueError."""
    res = next(lipschitz_truncations(v, (lam,)))
    if res.truncated is None:
        raise ValueError("trivial truncation: bad set covers the whole box")
    return res


def chain_mask_inclusion(dv, du, bad):
    """Check {Dv != Du} subset of the (stencil-dilated) changed set, from
    the gradient magnitudes dv = |Dv| and du = |Du| and the bad mask.

    The dilation radius is 2: interior central differences reach 1 cell, but
    the second-order one-sided stencils at the box edges reach 2.
    """
    scale = float(np.max(dv)) + 1e-300
    differ = np.abs(dv - du) > CHAIN_TOL * scale
    return bool(np.all(_dilate(bad, 2)[differ]))
