"""The Nyquist convention of the spectral record (field.Spectrum).

On an even axis the frequency index -N/2 is its own conjugate, so an
odd-order factor is Hermitian, M[-m mod N] = conj M[m], only if it vanishes
there: Spectrum.xi holds 0 at that entry.  The record lives on the half
grid of the real half-spectrum (the last axis cut to its columns 0 ...
N/2), where a multiplier is the half of a Hermitian one exactly when it is
Hermitian over the leading axes on the last axis's self-conjugate columns:
0, and N/2 on an even axis.  Every odd factor the lab builds from
Spectrum.xi (the slab derivatives, apply_symbol's i^l A(xi) and the
Helmholtz solve's A and projector P) must be so on even and odd grids
alike, and the Helmholtz split of white noise, which puts energy on every
frequency, must meet the decompose experiment's four gates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclab import symbol as sym_mod
from cclab.cli import TOL_ORTHO, TOL_RECON
from cclab.decompose import _frequency_solve, helmholtz
from cclab.extension import _slab_factors
from cclab.field import GridField, Spectrum

# the decompose experiment's gates
GATES = {"reconstructionError": TOL_RECON, "constraintResidual": TOL_RECON,
         "orthogonalityResidual": TOL_ORTHO, "potentialResidual": TOL_ORTHO}

OPERATORS = ["divcurl2", "div2", "curl2", "grad", "curl_matrix_n",
             "grad:n=1", "grad:n=3", "div2:n=3", "curl_matrix_n:n=3"]

SIZES = {1: st.integers(2, 40), 2: st.integers(2, 24), 3: st.integers(2, 9)}
periods = st.floats(0.5, 8.0)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw, n=None):
    """(shape, period) of an n-dimensional grid, n drawn from 1-3 if None;
    each axis is even or odd, and the periods differ."""
    n = n or draw(st.integers(1, 3))
    shape = tuple(draw(SIZES[n]) for _ in range(n))
    return shape, tuple(draw(periods) for _ in range(n))


def _reflect(M, n):
    """M[-m mod N] over the first n (grid) axes."""
    return M[np.ix_(*[(-np.arange(s)) % s for s in M.shape[:n]])]


def _self_conjugate_columns(M, shape):
    """(column, its reflection over the leading grid axes) of the half-grid
    array M (grid axes first) for each last-axis column that is its own
    conjugate on the grid shape: 0, and N/2 on an even axis."""
    n = len(shape)
    for c in [0] + ([shape[-1] // 2] if shape[-1] % 2 == 0 else []):
        col = M[(slice(None),) * (n - 1) + (c,)]
        yield col, _reflect(col, n - 1)


def _record(shape, period, dimV=1):
    return Spectrum(GridField(np.zeros(shape + (dimV,)), period))


@given(grids(), st.floats(0.0, 3.0))
def test_slab_factors_are_hermitian(grid, t):
    shape, period = grid
    rec = _record(shape, period)
    for factor in _slab_factors(rec.mag, rec.xi, t):
        M = np.broadcast_to(factor, rec.mag.shape)
        for col, mirror in _self_conjugate_columns(M, shape):
            assert np.array_equal(mirror, np.conj(col))


@given(grids())
def test_xi_zeroes_only_the_nyquist_entry_and_mag_keeps_it(grid):
    shape, period = grid
    rec = _record(shape, period)
    n, half = len(shape), rec.mag.shape
    assert half == shape[:-1] + (shape[-1] // 2 + 1,)
    mag2 = 0.0
    for ax, (x, s, p) in enumerate(zip(rec.xi, shape, period)):
        m = (np.fft.rfftfreq if ax == n - 1 else np.fft.fftfreq)(s, d=1.0 / s)
        if ax < n - 1:
            assert np.array_equal(_reflect(np.broadcast_to(x, half), n - 1),
                                  -np.broadcast_to(x, half))
        full = m * 2 * math.pi / p
        keep = np.arange(m.size) != (s // 2 if s % 2 == 0 else -1)
        assert np.array_equal(x.reshape(-1), np.where(keep, full, 0.0))
        mag2 = mag2 + full.reshape(x.shape) ** 2
    assert np.array_equal(rec.mag, np.sqrt(mag2))


def _operator_and_grid(draw):
    sym = sym_mod.make_operator(draw(st.sampled_from(OPERATORS)))
    return sym, draw(grids(sym.n))


@given(st.data())
def test_symbol_stacks_are_hermitian(data):
    """apply_symbol's multiplier i^l A(xi), and the Helmholtz solve's i^l A,
    its adjoint i^l A* and its projector P (extended by P = I on the
    frequencies where xi = 0)."""
    sym, (shape, period) = _operator_and_grid(data.draw)
    rec = _record(shape, period, sym.dimV)
    il, half = 1j**sym.l, rec.mag.shape

    def hermitian(M):
        return all(np.array_equal(mirror, np.conj(col))
                   for col, mirror in _self_conjugate_columns(M, shape))

    A = sym_mod.evaluate(sym, np.stack(np.broadcast_arrays(*rec.xi), axis=-1))
    assert hermitian(il * A)

    nz, _, P, _, A_c, Astar = _frequency_solve(sym, rec)
    for S in (A_c, Astar):
        assert S.shape[:sym.n] == half and hermitian(il * S)
    full = np.broadcast_to(np.eye(sym.dimV), (nz.size, sym.dimV, sym.dimV))
    full = np.array(full)
    full[nz] = P
    full = full.reshape(half + (sym.dimV, sym.dimV))
    assert hermitian(nz.reshape(half))
    assert all(np.max(np.abs(mirror - np.conj(col))) <= 1e-12
               for col, mirror in _self_conjugate_columns(full, shape))


def _white_noise(seed, shape, dimV, period):
    rng = np.random.default_rng(seed)
    return GridField(rng.standard_normal(shape + (dimV,)), period)


def _assert_gates(res):
    for name, gate in GATES.items():
        assert getattr(res, name) <= gate, (name, getattr(res, name))


@given(st.data(), seeds)
def test_white_noise_helmholtz_meets_its_gates(data, seed):
    sym, (shape, period) = _operator_and_grid(data.draw)
    _assert_gates(helmholtz(_white_noise(seed, shape, sym.dimV, period), sym))


@pytest.mark.parametrize("N", [16, 17, 64, 65])
@pytest.mark.parametrize("name", ["divcurl2", "div2", "curl2", "grad",
                                  "curl_matrix_n"])
def test_white_noise_helmholtz_on_the_benchmark_grids(name, N):
    """The grids on which white noise failed before the convention: 16^2
    and 64^2 (residuals up to 0.25), beside their odd controls."""
    sym = sym_mod.make_operator(name)
    _assert_gates(helmholtz(_white_noise(N, (N, N), sym.dimV,
                                         (2 * math.pi,) * 2), sym))
