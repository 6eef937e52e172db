"""The Nyquist convention of the spectral record (field.Spectrum).

On an even axis the frequency index -N/2 is its own conjugate, so an
odd-order factor is Hermitian, M[-m mod N] = conj M[m], only if it vanishes
there: Spectrum.xi holds 0 at that entry.  Every odd factor the lab builds
from Spectrum.xi (the slab derivatives, apply_symbol's i^l A(xi) and the
Helmholtz solve's A and projector P) must then be Hermitian on even and odd
grids alike, and the Helmholtz split of white noise, which puts energy on
every frequency, must meet the decompose experiment's four gates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cclab import symbol as sym_mod
from cclab.decompose import _frequency_solve, helmholtz
from cclab.extension import _slab_factors
from cclab.field import GridField, Spectrum

# the decompose experiment's gates (tol_recon, tol_ortho)
GATES = {"reconstructionError": 1e-10, "constraintResidual": 1e-10,
         "orthogonalityResidual": 1e-9, "potentialResidual": 1e-9}

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


def _record(shape, period, dimV=1):
    return Spectrum(GridField(np.zeros(shape + (dimV,)), period))


@given(grids(), st.floats(0.0, 3.0))
def test_slab_factors_are_hermitian(grid, t):
    shape, period = grid
    rec = _record(shape, period)
    for factor in _slab_factors(rec.mag, rec.xi, t):
        M = np.broadcast_to(factor, shape)
        assert np.array_equal(_reflect(M, len(shape)), np.conj(M))


@given(grids())
def test_xi_zeroes_only_the_nyquist_entry_and_mag_keeps_it(grid):
    shape, period = grid
    rec = _record(shape, period)
    mag2 = 0.0
    for x, s, p in zip(rec.xi, shape, period):
        assert np.array_equal(_reflect(np.broadcast_to(x, shape), len(shape)),
                              -np.broadcast_to(x, shape))
        full = np.fft.fftfreq(s, d=1.0 / s) * 2 * math.pi / p
        keep = np.arange(s) != (s // 2 if s % 2 == 0 else -1)
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
    n, il = sym.n, 1j**sym.l
    A = sym_mod.evaluate(sym, np.stack(np.broadcast_arrays(*rec.xi), axis=-1))
    assert np.array_equal(_reflect(il * A, n), np.conj(il * A))

    nz, _, P, _, A_c, Astar = _frequency_solve(sym, rec,
                                               sym_mod.DEFAULT_TOL_SV)
    for S in (A_c, Astar):
        assert np.array_equal(_reflect(il * S, n), np.conj(il * S))
    full = np.broadcast_to(np.eye(sym.dimV), (nz.size, sym.dimV, sym.dimV))
    full = np.array(full)
    full[nz] = P
    full = full.reshape(shape + (sym.dimV, sym.dimV))
    assert np.array_equal(_reflect(nz.reshape(shape), n), nz.reshape(shape))
    assert np.max(np.abs(_reflect(full, n) - np.conj(full))) <= 1e-12


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
