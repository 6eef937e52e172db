"""Bit-identity of the spectral record (field.Spectrum) and the merged
synthesiser against the transform-per-call code they replaced.

Each `_old_*` function below is a copy of the earlier code (renamed, and
pointed at the copies of its helpers), with one change: where it builds an
odd-order factor, its frequencies follow the record's Nyquist convention
(the entry -N/2 of xi is 0 on an even axis, _nyquist_zeroed), while every
|xi| keeps the full frequency.  Every comparison is exact (np.array_equal on
arrays, float.hex on scalars) except where the transform route itself
changed: the mollifier and the pairing identity moved to real half-spectra
(rfftn / irfftn in place of ifftn(...).real), and the synthesiser to one
inverse transform in place of its cos/sin loop; those are compared to a
stated round-off bound (see their sections).  The grids mix even and odd
sizes and the periods are unequal, so that a frequency formula that rounds
differently (say m * (2 pi / p) instead of m * 2 pi / p) shows.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclab import counterexamples as cex
from cclab import decompose
from cclab.decompose import helmholtz
from cclab.extension import (interpolation_ensemble, pairing_identity,
                             poisson_slab, slab_derivatives)
from cclab.field import (GridField, Spectrum, TrigPoly, _band_coefficients,
                         apply_symbol, fft, ifft, jacobian, mollified, mollify,
                         random_bandlimited, standard_bump, trig_product)
from cclab.norms import (MaximalConfig, besov_block_sums, lebesgue_norm,
                         local_maximal)
from cclab import symbol as sym_mod

SHAPES = [(8, 8), (9, 9), (8, 11), (12, 7), (16, 10)]
PERIODS = [(2 * math.pi, 2 * math.pi), (1.0, 3.0), (5.5, 2 * math.pi),
           (0.7, 0.7)]

shapes = st.sampled_from(SHAPES)
periods = st.sampled_from(PERIODS)
seeds = st.integers(0, 2**32 - 1)


def _noise(seed, shape, dimV, period):
    rng = np.random.default_rng(seed)
    return GridField(rng.normal(size=tuple(shape) + (dimV,)), period)


def _same(a, b):
    """Equal to the last bit: arrays by np.array_equal, floats by hex."""
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, GridField):
        return a.period == b.period and np.array_equal(a.values, b.values)
    if isinstance(a, float):
        return float(a).hex() == float(b).hex()
    return np.array_equal(a, b)


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return "raised", str(exc)


def _assert_same_outcome(old, new, same=_same):
    """The same error (kind and message), or values equal under same."""
    assert old[0] == new[0]
    if old[0] == "raised":
        assert old[1] == new[1]
    else:
        assert same(old[1], new[1])


# relative to max|old|: 10x the worst change measured for the half-spectrum
# mollifier (9.2e-16), far inside the 1e-12 allowed for a moved output
ROUND_OFF = 1e-14


def _close(old, new):
    """max|new - old| <= ROUND_OFF * max|old|, for arrays or GridFields."""
    if isinstance(old, GridField):
        if old.period != new.period:
            return False
        old, new = old.values, new.values
    old, new = np.asarray(old), np.asarray(new)
    return (old.shape == new.shape and np.max(np.abs(new - old))
            <= ROUND_OFF * np.max(np.abs(old)))


# ---------------------------------------------------------------------------
# verbatim copies of the earlier code
# ---------------------------------------------------------------------------

def _nyquist_zeroed(m):
    """The fftfreq array m with its entry -N/2 set to 0 on an even axis."""
    if m.size % 2 == 0:
        m[m.size // 2] = 0.0
    return m


def _old_freq_indices(shape):
    """Integer frequency index arrays m_i (numpy fft layout) for each axis,
    Nyquist entries zeroed."""
    return [_nyquist_zeroed(np.fft.fftfreq(s, d=1.0 / s)) for s in shape]


def _old_xi_grids(f):
    """Real frequency arrays xi_i = 2 pi m_i / period_i, meshgridded."""
    ms = _old_freq_indices(f.shape)
    xs = [2 * math.pi * m / p for m, p in zip(ms, f.period)]
    return np.meshgrid(*xs, indexing="ij")


def _old_apply_symbol(sym, f):
    """A f computed spectrally: (Af)^(m) = A(i xi_m) fhat(m) = i^l A(xi_m) fhat(m)."""
    if f.dimV != sym.dimV:
        raise ValueError(f"field has dimV={f.dimV}, operator expects {sym.dimV}")
    if f.n != sym.n:
        raise ValueError(f"field dimension {f.n} != operator dimension {sym.n}")
    fhat = fft(f)
    xis = _old_xi_grids(f)
    out = np.zeros(f.shape + (sym.dimW,), dtype=complex)
    il = 1j**sym.l
    for alpha, mat in sym.coeffs.items():
        mono = np.ones(f.shape)
        for a, xi in zip(alpha, xis):
            if a:
                mono = mono * xi**a
        out += (il * mono)[..., None] * (fhat @ mat.T)
    return ifft(out, f.period)


def _old_mollify(f, t, kernel=standard_bump):
    """Periodic convolution with kernel_t(x) = t^{-n} kernel(|x|/t).

    The sampled kernel is renormalized to exact unit discrete integral, so
    mass is preserved to round-off.
    """
    if t <= 0 or t > min(f.period) / 2:
        raise ValueError("scale t must lie in (0, min period / 2]")
    disp = []
    for s, p in zip(f.shape, f.period):
        x = np.arange(s) * (p / s)
        x = np.where(x > p / 2, x - p, x)  # periodic displacement
        disp.append(x)
    grids = np.meshgrid(*disp, indexing="ij")
    r = np.sqrt(sum(g**2 for g in grids)) / t
    ker = kernel(r)
    total = ker.sum() * f.cell_volume
    if total <= 0:
        raise ValueError("kernel support is below grid resolution")
    ker = ker / total
    ker_hat = np.fft.fftn(ker)
    fhat = fft(f)
    out = ker_hat[..., None] * fhat * f.cell_volume
    return ifft(out, f.period)


def _old_local_maximal(f, cfg=MaximalConfig()):
    """M_loc f = sup over the scale grid of |f * kernel_t| (pointwise)."""
    if f.dimV != 1:
        raise ValueError("local maximal function acts on scalar fields")
    out = np.abs(f.values[..., 0])
    for t in cfg.t_grid(f):
        sm = _old_mollify(f, t, cfg.kernel)
        out = np.maximum(out, np.abs(sm.values[..., 0]))
    return GridField(out[..., None], f.period)


def _old_xi_magnitude(f):
    mags = 0.0
    for ax, (s, p) in enumerate(zip(f.shape, f.period)):
        m = np.fft.fftfreq(s, d=1.0 / s)
        shape = [1] * len(f.shape)
        shape[ax] = s
        mags = mags + (m.reshape(shape) * 2 * math.pi / p) ** 2
    return np.sqrt(mags)


def _old_poisson_slab(f, t):
    """Harmonic-extension slab at height t (mean extended as a constant)."""
    hat = np.fft.fftn(f.values, axes=tuple(range(f.n)))
    decay = np.exp(-t * _old_xi_magnitude(f))
    out = np.real(np.fft.ifftn(hat * decay[..., None],
                               axes=tuple(range(f.n))))
    return GridField(out, f.period)


def _old_slab_derivatives(f, t):
    """(d_t, d_x1, ..., d_xn) of the harmonic extension at height t.

    Returns arrays of shape f.shape + (dimV,); all factors are exact per
    mode: d_t multiplies by -|xi|, d_xj by i xi_j.
    """
    hat = np.fft.fftn(f.values, axes=tuple(range(f.n)))
    mag = _old_xi_magnitude(f)
    decay = np.exp(-t * mag)
    axes = tuple(range(f.n))
    out = [np.real(np.fft.ifftn(hat * (-mag * decay)[..., None], axes=axes))]
    for ax, (s, p) in enumerate(zip(f.shape, f.period)):
        m = _nyquist_zeroed(np.fft.fftfreq(s, d=1.0 / s))
        shape = [1] * f.n
        shape[ax] = s
        xi = m.reshape(shape) * 2 * math.pi / p
        out.append(np.real(np.fft.ifftn(hat * (1j * xi * decay)[..., None],
                                        axes=axes)))
    return out


def _old_grad2(values, period):
    N1, N2 = values.shape
    hat = np.fft.fftn(values)
    f1 = _nyquist_zeroed(np.fft.fftfreq(N1, d=1.0 / N1)) * 2 * math.pi / period[0]
    f2 = _nyquist_zeroed(np.fft.fftfreq(N2, d=1.0 / N2)) * 2 * math.pi / period[1]
    gx = np.real(np.fft.ifftn(hat * (1j * f1)[:, None]))
    gy = np.real(np.fft.ifftn(hat * (1j * f2)[None, :]))
    return gx, gy


def _old_det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def _old_pairing_identity(u, phi, T=8.0, tLevels=64, tail_tol=1e-6):
    if u.n != 2 or u.dimV != 2 or phi.dimV != 1:
        raise ValueError("the identity is implemented for 2D, u in R^2")
    cell = u.cell_volume
    u1x, u1y = _old_grad2(u.values[..., 0], u.period)
    u2x, u2y = _old_grad2(u.values[..., 1], u.period)
    det_surface = u1x * u2y - u1y * u2x
    lhs = float(np.sum(det_surface * phi.values[..., 0]) * cell)
    scale = float(np.sum(np.abs(det_surface * phi.values[..., 0])) * cell)

    nodes, weights = np.polynomial.legendre.leggauss(tLevels)
    ts = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights

    def bulk(t):
        dphi = _old_slab_derivatives(phi, t)
        du = _old_slab_derivatives(u, t)
        r0 = [d[..., 0] for d in dphi]
        r1 = [d[..., 0] for d in du]
        r2 = [d[..., 1] for d in du]
        return float(np.sum(_old_det3(r0, r1, r2)) * cell)

    rhs = -sum(w * bulk(t) for t, w in zip(ts, ws))

    # boundary determinant mass at height T (truncation error witness)
    phiT = _old_poisson_slab(phi, T).values[..., 0]
    uT = _old_poisson_slab(u, T)
    v1x, v1y = _old_grad2(uT.values[..., 0], u.period)
    v2x, v2y = _old_grad2(uT.values[..., 1], u.period)
    tail = abs(float(np.sum(phiT * (v1x * v2y - v1y * v2x)) * cell))
    denom = max(abs(lhs), scale, 1e-300)
    if tail > tail_tol * denom:
        raise ValueError(f"tail bound violated at T={T}: boundary mass "
                         f"{tail:.3e} vs scale {denom:.3e}")
    return {"lhs": lhs, "rhs": rhs, "relError": abs(lhs - rhs) / denom,
            "tail": tail}


def _old_spectral_derivative(f, axis):
    fhat = fft(f)
    xis = _old_xi_grids(f)
    return ifft(1j * xis[axis][..., None] * fhat, f.period)


def _old_spectral_grad(values, period):
    N = values.shape[0]
    freq = _nyquist_zeroed(np.fft.fftfreq(N, d=1.0 / N))
    hat = np.fft.fftn(values, axes=(0, 1))
    scale = 2 * math.pi / period
    gx = np.real(np.fft.ifftn(hat * (1j * freq * scale)[:, None], axes=(0, 1)))
    gy = np.real(np.fft.ifftn(hat * (1j * freq * scale)[None, :], axes=(0, 1)))
    return gx, gy


def _old_grid_det_pairing(u, phi):
    period = u.period[0]
    u1x, u1y = _old_spectral_grad(u.values[..., 0], period)
    u2x, u2y = _old_spectral_grad(u.values[..., 1], period)
    det = u1x * u2y - u1y * u2x
    return float(np.sum(det * phi.values[..., 0]) * u.cell_volume)


def _old_symbol_stack(sym, f):
    """A(xi) for every grid frequency, shape (nfreq, dimW, dimV)."""
    xis = _old_xi_grids(f)
    flat = np.stack([x.ravel() for x in xis], axis=-1)  # (nfreq, n)
    A = np.zeros((flat.shape[0], sym.dimW, sym.dimV))
    for alpha, mat in sym.coeffs.items():
        mono = np.ones(flat.shape[0])
        for a, col in zip(alpha, flat.T):
            if a:
                mono = mono * col**a
        A += mono[:, None, None] * mat[None, :, :]
    return A, flat


def _old_helmholtz(v, sym, tolSV=sym_mod.DEFAULT_TOL_SV):
    """The split and its residuals, as the earlier helmholtz computed them
    (the rank certificate is the caller's)."""
    from cclab.norms import lebesgue_norm
    vhat = fft(v)
    nfreq = int(np.prod(v.shape))
    vflat = vhat.reshape(nfreq, v.dimV)
    A, flat_xi = _old_symbol_stack(sym, v)
    mag = np.sqrt(np.sum(flat_xi**2, axis=-1))
    nz = mag > 0
    An = np.array(A)
    An[nz] /= mag[nz, None, None] ** sym.l
    Adag = np.linalg.pinv(An[nz], rcond=tolSV)
    P = np.eye(sym.dimV)[None, :, :] - Adag @ An[nz]
    b_flat = np.array(vflat)
    b_flat[nz] = np.einsum("kij,kj->ki", P, vflat[nz])
    a_flat = vflat - b_flat
    il = 1j**sym.l
    AAT = A[nz] @ np.transpose(A[nz], (0, 2, 1))
    AATdag = np.linalg.pinv(AAT, rcond=tolSV)
    w_flat = np.zeros((nfreq, sym.dimW), dtype=complex)
    w_flat[nz] = np.einsum("kij,kj->ki", AATdag, il * np.einsum("kij,kj->ki", A[nz], vflat[nz]))
    bPart = ifft(b_flat.reshape(vhat.shape), v.period)
    aStarPart = ifft(a_flat.reshape(v.shape + (v.dimV,)), v.period)
    w = ifft(w_flat.reshape(v.shape + (sym.dimW,)), v.period)

    scale = lebesgue_norm(v, 2) + 1e-300
    recon = np.sqrt(np.sum((bPart.values + aStarPart.values - v.values) ** 2)
                    * v.cell_volume) / scale
    Ab = _old_apply_symbol(sym, bPart)
    sym_scale = max(float(np.max(np.abs(m))) for m in sym.coeffs.values())
    kmax = max(np.pi * s / p for s, p in zip(v.shape, v.period))
    constraint = lebesgue_norm(Ab, 2) / (sym_scale * kmax**sym.l * scale)
    Astar_w = _old_apply_symbol(sym_mod.adjoint_symbol(sym), w)
    potential = np.sqrt(np.sum((Astar_w.values - aStarPart.values) ** 2)
                        * v.cell_volume) / scale
    ortho = abs(float(np.sum(bPart.values * aStarPart.values) * v.cell_volume)) / scale**2
    return [bPart, aStarPart, w, float(recon), float(constraint),
            float(ortho), float(potential)]


def _old_cli_random_bandlimited(rng, shape, dimV, bandlimit=6):
    period = 2 * math.pi
    axes = [np.arange(s) * period / s for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    comps = []
    for _ in range(dimV):
        vals = np.zeros(shape)
        for m1 in range(0, bandlimit + 1):
            for m2 in range(-bandlimit, bandlimit + 1):
                if m1 == 0 and m2 <= 0:
                    continue
                a, b = rng.normal(size=2) / (1.0 + m1 * m1 + m2 * m2)
                phase = m1 * grids[0] + m2 * grids[1]
                vals += a * np.cos(phase) + b * np.sin(phase)
        comps.append(vals)
    return GridField(np.stack(comps, axis=-1), (period,) * len(shape))


def _old_conftest_random_bandlimited(rng, shape, dimV, bandlimit=4):
    """Smooth random periodic field with modes up to the bandlimit."""
    period = 2 * math.pi
    axes = [np.arange(s) * period / s for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    comps = []
    for _ in range(dimV):
        vals = np.zeros(shape)
        for m1 in range(0, bandlimit + 1):
            for m2 in range(-bandlimit, bandlimit + 1):
                if m1 == 0 and m2 <= 0:
                    continue
                a, b = rng.normal(size=2) / (1.0 + m1 * m1 + m2 * m2)
                phase = m1 * grids[0] + m2 * grids[1]
                vals += a * np.cos(phase) + b * np.sin(phase)
        comps.append(vals)
    return GridField(np.stack(comps, axis=-1), (period,) * len(shape))


def _old_random_smooth_compact(rng, N, dimV, mmax=6):
    period = 2 * math.pi
    x = np.arange(N) * period / N
    X, Y = np.meshgrid(x, x, indexing="ij")
    c = period / 2
    r = np.hypot(X - c, Y - c)
    cut = standard_bump(r / (period / 4)) / standard_bump(np.zeros(1))[0]
    comps = []
    for _ in range(dimV):
        vals = np.zeros_like(X)
        for m1 in range(0, mmax + 1):
            for m2 in range(-mmax, mmax + 1):
                if m1 == 0 and m2 <= 0:
                    continue
                a, b = rng.normal(size=2) / (1.0 + m1 * m1 + m2 * m2)
                vals += a * np.cos(m1 * X + m2 * Y) + b * np.sin(m1 * X + m2 * Y)
        comps.append(vals * cut)
    return GridField(np.stack(comps, axis=-1), (period, period))


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------

@given(shapes, periods, seeds)
def test_record_matches_old_frequency_arrays(shape, period, seed):
    f = _noise(seed, shape, 1, period)
    rec = Spectrum(f)
    assert np.array_equal(rec.hat, fft(f))
    assert np.array_equal(rec.mag, _old_xi_magnitude(f))
    full = [np.broadcast_to(x, f.shape) for x in rec.xi]
    assert _same(full, _old_xi_grids(f))


# ---------------------------------------------------------------------------
# extension: slabs, the pairing identity and the private copies folded in
# ---------------------------------------------------------------------------

@given(shapes, periods, seeds, st.floats(0.0, 3.0), st.integers(1, 3))
def test_slab_derivatives_bits(shape, period, seed, t, dimV):
    f = _noise(seed, shape, dimV, period)
    old = _old_slab_derivatives(f, t)
    assert _same(slab_derivatives(f, t), old)
    rec = Spectrum(f)
    for _ in range(2):  # a record reused across heights
        assert _same(slab_derivatives(rec, t), old)


@given(shapes, periods, seeds, st.floats(0.0, 3.0), st.integers(1, 3))
def test_poisson_slab_bits(shape, period, seed, t, dimV):
    f = _noise(seed, shape, dimV, period)
    old = _old_poisson_slab(f, t)
    assert _same(poisson_slab(f, t), old)
    assert _same(poisson_slab(Spectrum(f), t), old)


# The pairing identity inverts real half-spectra (irfftn) where the old code
# took ifftn(...).real, so it is compared to round-off.  lhs, rhs and tail
# sum many terms that cancel, so their bound is ROUND_OFF times
# ref = max(|lhs|, |rhs|, scale), where scale = sum |det Du phi| cell; the
# worst change measured on white noise over these grids and on the
# experiment's inputs was 3.3e-16 of ref.  relError = |lhs - rhs| / denom,
# denom = max(|lhs|, scale), moves by at most twice that over denom.


def _pairing_close(u, phi):
    """A comparison of pairing_identity reports on the inputs u, phi."""
    u1x, u1y = _old_grad2(u.values[..., 0], u.period)
    u2x, u2y = _old_grad2(u.values[..., 1], u.period)
    scale = float(np.sum(np.abs((u1x * u2y - u1y * u2x) * phi.values[..., 0]))
                  * u.cell_volume)

    def close(old, new):
        ref = max(abs(old["lhs"]), abs(old["rhs"]), scale)
        denom = max(abs(old["lhs"]), scale, 1e-300)
        return (old.keys() == new.keys()
                and all(abs(new[k] - old[k]) <= ROUND_OFF * ref
                        for k in ("lhs", "rhs", "tail"))
                and abs(new["relError"] - old["relError"])
                <= 2 * ROUND_OFF * ref / denom)
    return close


@given(shapes, periods, seeds, st.sampled_from([2.0, 8.0]),
       st.integers(2, 6), st.sampled_from([1e-6, 1.0]))
def test_pairing_identity_bits(shape, period, seed, T, levels, tail_tol):
    rng = np.random.default_rng(seed)
    u = GridField(rng.normal(size=shape + (2,)), period)
    phi = GridField(rng.normal(size=shape + (1,)), period)
    _assert_same_outcome(
        _outcome(_old_pairing_identity, u, phi, T, levels, tail_tol),
        _outcome(pairing_identity, u, phi, T, levels, tail_tol),
        _pairing_close(u, phi))


def test_pairing_identity_bits_on_experiment_inputs():
    """The extension-identity inputs at the smallest level, with the
    experiment's T and tail gate."""
    rng = np.random.default_rng(7)
    u = random_bandlimited(rng, (64, 64), 2, cutoff=True)
    phi = random_bandlimited(rng, (64, 64), 1, cutoff=True)
    assert _pairing_close(u, phi)(
        _old_pairing_identity(u, phi, T=8.0, tLevels=16),
        pairing_identity(u, phi, T=8.0, tLevels=16))


@pytest.mark.parametrize("shape", [(65, 65), (48, 33)])
def test_pairing_identity_bits_on_odd_and_unequal_grids(shape):
    """The half-spectrum slab sweep against the old route on band-limited
    inputs at an odd and an unequal grid size."""
    rng = np.random.default_rng(11)
    u = random_bandlimited(rng, shape, 2, cutoff=True)
    phi = random_bandlimited(rng, shape, 1, cutoff=True)
    assert _pairing_close(u, phi)(
        _old_pairing_identity(u, phi, T=8.0, tLevels=8),
        pairing_identity(u, phi, T=8.0, tLevels=8))


def _old_render(tp, shape):
    """TrigPoly.render as a term-by-term loop: one exponential per key."""
    shape = tuple(int(s) for s in shape)
    axes = [np.arange(s) * (tp.period / s) for s in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    scale = 2 * math.pi / tp.period
    out = np.zeros(shape + (tp.dimV,), dtype=complex)
    for m, a in tp.terms.items():
        phase = sum(mi * g for mi, g in zip(m, grids)) * scale
        out += np.exp(1j * phase)[..., None] * a
    return GridField(np.real(out), (tp.period,) * tp.n)


RENDER_SHAPES = {2: [(8, 10), (9, 7), (16, 16), (11, 11)],
                 3: [(6, 4, 8), (5, 7, 3), (4, 5, 6)]}


@given(seeds, st.sampled_from([2, 3]), st.integers(1, 3), st.booleans(),
       st.sampled_from([2 * math.pi, 1.0, 5.5, 0.7]))
def test_render_bits(seed, n, dimV, zero_mode, period):
    """Conjugate pairs that share one exponential against the loop that
    takes one per key: random Hermitian polynomials, keys shuffled (so a
    mirror may come before, after or right next to its key), frequencies
    past the grid's Nyquist (aliasing) included."""
    rng = np.random.default_rng(seed)
    keys = {tuple(int(k) for k in rng.integers(-9, 10, size=n))
            for _ in range(int(rng.integers(1, 8)))}
    terms = {}
    for m in keys - {(0,) * n}:
        a = rng.normal(size=dimV) + 1j * rng.normal(size=dimV)
        terms[m] = a
        terms[tuple(-k for k in m)] = np.conj(a)
    if zero_mode:
        terms[(0,) * n] = rng.normal(size=dimV) + 0j
    order = list(terms)
    rng.shuffle(order)
    tp = TrigPoly(n=n, dimV=dimV, terms={m: terms[m] for m in order},
                  period=period)
    assert list(tp.terms) == order
    for shape in RENDER_SHAPES[n]:
        new, old = tp.render(shape), _old_render(tp, shape)
        assert new.period == old.period
        # bit patterns, so that a zero's sign counts too
        assert np.array_equal(new.values.view(np.int64),
                              old.values.view(np.int64))


def _old_interpolation_ensemble(alpha=0.5, q=2.0, p=2.0, m_list=(4, 8, 16, 32, 64),
                   amplitudes=(0.5, 1.0, 2.0), shape=256, beta1=0.75):
    n = 2
    if abs(alpha / q + (n - alpha) / p - 1.0) > 1e-12:
        raise ValueError("exponents must satisfy alpha/q + (n-alpha)/p = 1")
    period = 2 * math.pi
    x = np.arange(shape) * (period / shape)
    X, Y = np.meshgrid(x, x, indexing="ij")
    records = []
    for m in m_list:
        for a in amplitudes:
            amp = a * float(m) ** -beta1
            uvals = np.stack([amp * np.sin(m * X), -amp * np.cos(m * Y)],
                             axis=-1)
            u = GridField(uvals, (period, period))
            phi_tp = TrigPoly.wave(2, (m, 0), "cos", float(m) ** -alpha)
            phi_tp = trig_product(phi_tp, TrigPoly.wave(2, (0, m), "sin"))
            phiv = _old_render(phi_tp, (shape, shape))
            u1x, u1y = _old_grad2(uvals[..., 0], (period, period))
            u2x, u2y = _old_grad2(uvals[..., 1], (period, period))
            det = u1x * u2y - u1y * u2x
            pairing = float(np.sum(det * phiv.values[..., 0]) * u.cell_volume)
            du = GridField(np.stack([u1x, u1y, u2x, u2y], axis=-1),
                           (period, period))
            blocks = besov_block_sums(phi_tp)
            holder = (max(2.0 ** (alpha * j) * s for j, s in blocks.items())
                      if blocks else 0.0)
            denom = (holder
                     * lebesgue_norm(u, q) ** alpha
                     * lebesgue_norm(du, p) ** (n - alpha))
            records.append({"m": m, "amplitude": a,
                            "ratio": abs(pairing) / denom})
    ratios = [r["ratio"] for r in records]
    return {"records": records, "max_ratio": max(ratios),
            "min_ratio": min(ratios), "spread": max(ratios) / min(ratios)}


def test_interpolation_ensemble_bits():
    """The thmD interpolation ratios, with phi and the oscillations built
    once per frequency, against the loop that builds them per amplitude:
    an even and an odd grid, and an amplitude that is not a power of 2."""
    for kw in (dict(m_list=(4, 8), amplitudes=(0.5, 2.0), shape=32),
               dict(alpha=0.25, q=2.0, p=2.0, m_list=(3, 8),
                    amplitudes=(0.3, 1.0, 2.0), shape=33)):
        assert _same(interpolation_ensemble(**kw),
                     _old_interpolation_ensemble(**kw))


def test_interpolation_ensemble_renders_once_per_frequency(monkeypatch):
    calls = []
    render = TrigPoly.render

    def counted(self, shape):
        calls.append(tuple(shape))
        return render(self, shape)

    monkeypatch.setattr(TrigPoly, "render", counted)
    m_list = (3, 4, 8)
    interpolation_ensemble(m_list=m_list, amplitudes=(0.5, 1.0, 2.0),
                           shape=32)
    assert calls == [(32, 32)] * len(m_list)


@given(shapes, periods, seeds)
def test_jacobian_bits(shape, period, seed):
    u = _noise(seed, shape, 2, period)
    u1x, u1y = _old_grad2(u.values[..., 0], u.period)
    u2x, u2y = _old_grad2(u.values[..., 1], u.period)
    assert np.array_equal(jacobian(u), u1x * u2y - u1y * u2x)


@given(shapes, periods, seeds, st.integers(2, 3))
def test_record_derivative_matches_spectral_derivative(shape, period, seed,
                                                       dimV):
    f = _noise(seed, shape, dimV, period)
    rec = Spectrum(f)
    for axis in range(2):
        for c in range(dimV):
            old = _old_spectral_derivative(f.component(c), axis)
            assert np.array_equal(rec.derivative(axis)[..., c],
                                  old.values[..., 0])


def _case1_richardson_inputs():
    N = cex.make_spec("jac_case1").params["shape"]
    X, Y = cex._centered_axes(N, 2.0)
    bank = cex._jac1_bump_bank()
    test = np.sin(X) * standard_bump((np.hypot(X, Y) - 0.0) / 0.9)
    phi = GridField(test[..., None], (2.0, 2.0))
    return [(GridField(eps ** (-0.5) * bank["g"](X / eps, Y / eps), (2.0, 2.0)),
             phi) for eps in (1 / 8, 1 / 16, 1 / 32)]


def test_jacobian_case_pairings_keep_repr():
    """The Jacobian cases' grid pairings (jac_case1 at its default k and its
    Richardson check, jac_case2 in grid mode) equal those of the earlier
    m * (2 pi / p) gradient to round-off.  Before the Nyquist convention
    they were equal by repr; with it, jac_case2 at k = 16 differs in its
    last bit (1.2e-16 relative), and the other ten are still equal by
    repr."""
    inputs = _case1_richardson_inputs()
    spec1 = cex.make_spec("jac_case1")
    for k in (4, 8, 16):
        f = cex._case1_fields(spec1, k)
        inputs.append((f["u"], f["phi"]))
    spec2 = cex.make_spec("jac_case2", mode="grid")
    for k in (8, 16, 32, 64, 128):
        f = cex._case2_grid(spec2, k)
        inputs.append((f["u"], f["phi"]))
    for u, phi in inputs:
        old = _old_grid_det_pairing(u, phi)
        assert abs(cex._grid_det_pairing(u, phi) - old) <= ROUND_OFF * abs(old)


# ---------------------------------------------------------------------------
# mollify and the local maximal function
#
# The mollifier multiplies real half-spectra (rfftn / irfftn) where the old
# code multiplied full complex ones, so its values agree with the verbatim
# old code to round-off (_close), not to the bit.  Errors stay exact.
# ---------------------------------------------------------------------------

@given(shapes, periods, seeds, st.floats(0.01, 1.0))
def test_mollify_bits(shape, period, seed, frac):
    f = _noise(seed, shape, 2, period)
    t = frac * min(period) / 2
    old = _outcome(_old_mollify, f, t)
    _assert_same_outcome(old, _outcome(mollify, f, t), _close)
    rec = Spectrum(f)
    for _ in range(2):  # a record reused across scales
        _assert_same_outcome(old, _outcome(mollify, rec, t), _close)


@given(shapes, periods, seeds)
def test_local_maximal_bits(shape, period, seed):
    f = _noise(seed, shape, 1, period)
    assert _close(_old_local_maximal(f), local_maximal(f))


def _irfftn_mollified(f, ts, kernel=standard_bump):
    """mollified's arithmetic with one library irfftn per scale in place
    of its in-place leading-axis ifft and last-axis irfft."""
    rec = Spectrum(f)
    fhat = np.fft.rfftn(f.values, axes=rec.axes)
    for t in ts:
        ker = kernel(rec.radius / t)
        khat = np.fft.rfftn(ker / (ker.sum() * f.cell_volume)).real
        buf = khat[..., None] * fhat
        buf *= f.cell_volume
        yield np.fft.irfftn(buf, s=f.shape, axes=rec.axes, out=np.empty(
            f.values.shape))


MOLLIFIER_SHAPES = SHAPES + [(6, 5, 4), (3, 4, 7), (8, 6, 2)]


@given(st.sampled_from(MOLLIFIER_SHAPES), seeds, st.integers(1, 3),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
def test_mollified_inverse_matches_irfftn_bits(shape, seed, dimV, fracs):
    """The in-place split of the inverse (ifft over the leading axes into
    the product buffer, then irfft into the output) keeps irfftn's bits,
    on even, odd and 3-D grids with unequal periods."""
    period = tuple(1.0 + 0.5 * i for i in range(len(shape)))
    f = _noise(seed, shape, dimV, period)
    ts = [frac * min(period) / 2 for frac in fracs]
    new = [vals.copy() for vals in mollified(f, ts)]
    assert _same(new, list(_irfftn_mollified(f, ts)))


@given(shapes, periods, seeds, st.integers(1, 3),
       st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
def test_mollified_shared_kernels_keep_bits(shape, period, seed, k, fracs):
    """Fields that share a kernel set (the first fills it, the rest read
    it) get the bits of fields that each build their own."""
    ts = [frac * min(period) / 2 for frac in fracs]
    fields = [_noise(seed + i, shape, 1, period) for i in range(k)]
    kernel_hats = []
    for f in fields:
        shared = [v.copy() for v in mollified(f, ts, kernel_hats=kernel_hats)]
        assert len(kernel_hats) == len(ts)
        assert _same(shared, [v.copy() for v in mollified(f, ts)])


class _KernelFailingAt:
    """standard_bump, except that call number `at` (from 0) returns the bump
    times `factor`: 0 empties the kernel, nan poisons the values."""

    def __init__(self, at, factor):
        self.at, self.factor, self.calls = at, factor, 0

    def __call__(self, r):
        out = standard_bump(r)
        if self.calls == self.at:
            out = out * self.factor
        self.calls += 1
        return out


@given(shapes, periods, seeds, st.lists(st.floats(0.01, 1.0), min_size=1,
                                        max_size=5),
       st.integers(0, 4), st.sampled_from(["none", "scale", "empty", "nan"]),
       st.booleans())
def test_mollified_matches_mollify_per_scale(shape, period, seed, fracs, at,
                                             fault, record):
    """Each yielded scale has the values of the old mollify at that t, to
    round-off, and a bad scale raises the old error when the sweep reaches
    it."""
    f = _noise(seed, shape, 2, period)
    ts = [frac * min(period) / 2 for frac in fracs]
    if fault == "scale" and at < len(ts):
        ts[at] = min(period)  # beyond min period / 2
    factor = {"empty": 0.0, "nan": float("nan")}.get(fault, 1.0)

    old, kernel = [], _KernelFailingAt(at, factor)
    for t in ts:
        old.append(_outcome(_old_mollify, f, t, kernel))
        if old[-1][0] == "raised":
            break
    new, kernel = [], _KernelFailingAt(at, factor)
    try:
        for vals in mollified(Spectrum(f) if record else f, ts, kernel):
            new.append(("ok", vals.copy()))
    except ValueError as exc:
        new.append(("raised", str(exc)))

    assert [o[0] for o in new] == [o[0] for o in old]
    for (kind, a), (_, b) in zip(old, new):
        assert a == b if kind == "raised" else _close(a.values, b)
    if fault != "none" and at < len(ts):
        assert old[-1][0] == "raised" and len(old) == at + 1


@given(st.sampled_from([(8, 8), (9, 7), (16, 5), (6, 5, 4), (3, 4, 7)]),
       st.integers(1, 4), seeds)
def test_ifft_transforms_its_argument_in_place(shape, dimV, seed):
    rng = np.random.default_rng(seed)
    fhat = (rng.normal(size=shape + (dimV,))
            + 1j * rng.normal(size=shape + (dimV,)))
    inverse = np.fft.ifftn(fhat.copy(), axes=tuple(range(len(shape))))
    out = ifft(fhat)
    assert out.values.tobytes() == np.real(inverse).tobytes()
    assert fhat.tobytes() == inverse.tobytes()  # the argument is consumed
    assert np.shares_memory(out.values, fhat)


# ---------------------------------------------------------------------------
# symbols, multipliers and the Helmholtz split
# ---------------------------------------------------------------------------

OPERATORS = ["divcurl2", "div2", "curl2", "grad", "curl_matrix_n"]


@given(shapes, periods, seeds, st.sampled_from(OPERATORS))
def test_apply_symbol_bits(shape, period, seed, name):
    sym = sym_mod.make_operator(name)
    f = _noise(seed, shape, sym.dimV, period)
    assert _same(apply_symbol(sym, f), _old_apply_symbol(sym, f))


@given(shapes, periods, seeds, st.sampled_from(OPERATORS))
def test_symbol_stack_bits(shape, period, seed, name):
    sym = sym_mod.make_operator(name)
    f = _noise(seed, shape, sym.dimV, period)
    flat_xi = np.stack(np.broadcast_arrays(*Spectrum(f).xi),
                       axis=-1).reshape(-1, sym.n)
    assert _same([sym_mod.evaluate(sym, flat_xi), flat_xi],
                 list(_old_symbol_stack(sym, f)))


def _parts(res):
    return [res.bPart, res.aStarPart, res.w, res.reconstructionError,
            res.constraintResidual, res.orthogonalityResidual,
            res.potentialResidual]


# per space dimension, grids A A B A' A C: A' has A's shape on other
# periods (A's reversed where n > 1), so A' and the A after it are new grids
STREAM_GRIDS = {
    1: [((16,), (1.0,)), ((16,), (1.0,)), ((9,), (3.0,)), ((16,), (0.7,)),
        ((16,), (1.0,)), ((8,), (2 * math.pi,))],
    2: [((9, 8), (1.0, 3.0)), ((9, 8), (1.0, 3.0)),
        ((8, 8), (2 * math.pi, 2 * math.pi)), ((9, 8), (3.0, 1.0)),
        ((9, 8), (1.0, 3.0)), ((12, 7), (5.5, 2 * math.pi))],
    3: [((4, 5, 6), (1.0, 2.0, 3.0)), ((4, 5, 6), (1.0, 2.0, 3.0)),
        ((6, 6, 6), (2 * math.pi,) * 3), ((4, 5, 6), (3.0, 2.0, 1.0)),
        ((4, 5, 6), (1.0, 2.0, 3.0)), ((5, 4, 3), (0.7, 0.7, 5.5))],
}


def _stream_fields(sym):
    return [_noise(k, shape, sym.dimV, period)
            for k, (shape, period) in enumerate(STREAM_GRIDS[sym.n])]


@pytest.mark.parametrize("name", OPERATORS + ["grad:n=1", "div2:n=3",
                                              "curl_matrix_n:n=3"])
@pytest.mark.parametrize("tol", [sym_mod.DEFAULT_TOL_SV, 0.5])
def test_helmholtz_splits_keep_bits_across_grids(name, tol):
    sym = sym_mod.make_operator(name)
    fields = _stream_fields(sym)
    splits = list(decompose.helmholtz_splits(fields, sym, tol))
    assert len(splits) == len(fields)
    for v, res in zip(fields, splits):
        assert _same(_parts(res), _old_helmholtz(v, sym, tolSV=tol))


def test_helmholtz_splits_check_once_and_solve_once_per_grid_run(
        monkeypatch):
    calls = {"rank": 0, "pinv": 0}
    rank_check, pinv = sym_mod.constant_rank_check, np.linalg.pinv

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sym_mod, "constant_rank_check",
                        counted("rank", rank_check))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv", pinv))
    sym = sym_mod.make_operator("divcurl2")
    fields = _stream_fields(sym)
    for _ in decompose.helmholtz_splits(fields, sym):
        pass
    # runs A A | B | A' | A | C: five solves of two pinv each
    assert calls == {"rank": 1, "pinv": 2 * 5}
    for v in fields[:2]:
        helmholtz(v, sym)
    assert calls == {"rank": 3, "pinv": 2 * 7}


def test_helmholtz_splits_reject_non_constant_rank_at_the_first_field():
    sym = sym_mod.OperatorSymbol(
        n=2, l=1, dimV=2, dimW=2,
        coeffs={(1, 0): np.array([[1.0, 0.0], [0.0, 0.0]]),
                (0, 1): np.array([[0.0, 0.0], [0.0, 1.0]])})
    taken = []

    def fields():
        for k in range(3):
            taken.append(k)
            yield _noise(k, (8, 8), 2, (1.0, 1.0))

    with pytest.raises(ValueError, match="constant-rank operator"):
        next(decompose.helmholtz_splits(fields(), sym))
    assert taken == [0]


def test_rank_report_holds_no_solve():
    report = sym_mod.constant_rank_check(sym_mod.make_operator("div2"))
    assert "solve_cache" not in {f.name for f in
                                 dataclasses.fields(sym_mod.RankReport)}
    assert not hasattr(report, "solve_cache")
    assert not hasattr(decompose, "_operator_key")


def test_helmholtz_without_report_keeps_bits():
    sym, other = sym_mod.make_operator("div2"), sym_mod.make_operator("curl2")
    v = _noise(5, (9, 8), sym.dimV, (1.0, 3.0))
    for s, tol in [(sym, 1e-8), (other, 1e-8), (sym, 1e-8), (sym, 0.5),
                   (other, 1e-8), (sym, 0.5)]:
        res = helmholtz(v, s, tolSV=tol)
        assert _same([res.bPart, res.aStarPart, res.w],
                     _old_helmholtz(v, s, tolSV=tol)[:3])


def test_helmholtz_rejects_non_constant_rank_every_call():
    sym = sym_mod.OperatorSymbol(
        n=2, l=1, dimV=2, dimW=2,
        coeffs={(1, 0): np.array([[1.0, 0.0], [0.0, 0.0]]),
                (0, 1): np.array([[0.0, 0.0], [0.0, 1.0]])})
    witness = sym_mod.constant_rank_check(sym, samples=200).witness
    v = _noise(2, (8, 8), 2, (1.0, 1.0))
    for _ in range(2):
        assert _outcome(helmholtz, v, sym) == (
            "raised", f"helmholtz requires a constant-rank operator "
                      f"(witness {witness})")


# ---------------------------------------------------------------------------
# the merged synthesiser against the three loops it replaced
#
# random_bandlimited draws the loops' normals in their order, which the
# coefficient test pins to the bit (float.hex), and sums them with one
# inverse transform in place of the loops' cos/sin sum.  So its values agree
# with the loops to SYNTH_ROUND_OFF of max|old| (the worst of 1,500 draws
# measured 2.4e-15), on grids coarse enough that the band aliases
# (N <= 12 = 2 * 6), on finer ones and on 3-D shapes.
# ---------------------------------------------------------------------------

SYNTH_ROUND_OFF = 4e-15


def _synth_close(old, new):
    return (old.period == new.period and old.values.shape == new.values.shape
            and np.max(np.abs(new.values - old.values))
            <= SYNTH_ROUND_OFF * np.max(np.abs(old.values)))


def _draws_after(rng):
    return rng.normal(size=3).tolist()


def _old_loop_coefficients(rng, dimV, bandlimit):
    """The loops' ((m1, m2), a, b) in draw order, a and b as float.hex."""
    out = []
    for _ in range(dimV):
        for m1 in range(0, bandlimit + 1):
            for m2 in range(-bandlimit, bandlimit + 1):
                if m1 == 0 and m2 <= 0:
                    continue
                a, b = rng.normal(size=2) / (1.0 + m1 * m1 + m2 * m2)
                out.append(((m1, m2), float(a).hex(), float(b).hex()))
    return out


@given(seeds, st.integers(1, 4), st.sampled_from([4, 6]))
def test_synthesiser_draws_the_loops_coefficients(seed, dimV, bandlimit):
    r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
    modes, coef = _band_coefficients(r_new, dimV, bandlimit)
    new = [((int(m1), int(m2)), float(a).hex(), float(b).hex())
           for comp in coef for (m1, m2), (a, b) in zip(modes, comp)]
    assert new == _old_loop_coefficients(r_old, dimV, bandlimit)
    assert _draws_after(r_new) == _draws_after(r_old)


@given(seeds, st.sampled_from([(8, 8), (9, 9), (12, 7), (10, 12), (16, 10),
                               (8, 8, 8), (5, 6, 7), (8, 9, 7)]),
       st.integers(1, 4), st.sampled_from([4, 6]))
def test_synthesiser_matches_cli_and_conftest_loops(seed, shape, dimV,
                                                    bandlimit):
    for old_fn in (_old_cli_random_bandlimited,
                   _old_conftest_random_bandlimited):
        r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
        old = old_fn(r_old, shape, dimV, bandlimit=bandlimit)
        new = random_bandlimited(r_new, shape, dimV, bandlimit=bandlimit)
        assert _synth_close(old, new)
        assert _draws_after(r_new) == _draws_after(r_old)


@given(seeds, st.sampled_from([8, 9, 10, 12, 16, 33]), st.integers(1, 3),
       st.sampled_from([4, 6]))
def test_synthesiser_cutoff_matches_smooth_compact_loop(seed, N, dimV,
                                                        bandlimit):
    r_old, r_new = np.random.default_rng(seed), np.random.default_rng(seed)
    old = _old_random_smooth_compact(r_old, N, dimV, mmax=bandlimit)
    new = random_bandlimited(r_new, (N, N), dimV, bandlimit=bandlimit,
                             cutoff=True)
    assert _synth_close(old, new)
    assert _draws_after(r_new) == _draws_after(r_old)


def test_synthesiser_cutoff_needs_a_2d_grid():
    with pytest.raises(ValueError, match="2D"):
        random_bandlimited(np.random.default_rng(0), (8, 8, 8), 1,
                           cutoff=True)


def test_synthesiser_defaults_match_cli_defaults():
    """Default bandlimit 6, and u then phi from one stream as the
    extension-identity experiment draws them."""
    r_old, r_new = np.random.default_rng(11), np.random.default_rng(11)
    assert _synth_close(_old_cli_random_bandlimited(r_old, (16, 16), 4),
                        random_bandlimited(r_new, (16, 16), 4))
    for dimV in (2, 1):
        assert _synth_close(
            _old_random_smooth_compact(r_old, 16, dimV),
            random_bandlimited(r_new, (16, 16), dimV, cutoff=True))
