"""Frequency-wise Helmholtz-type decomposition v = (kernel part) + A* w.

Per nonzero frequency, bPart^ = P(xi) v^ with P the orthogonal projection
onto ker A(xi), aStarPart^ = (I - P) v^, and w^ = (A A^T)^+ (i^l A) v^ is the
minimal-norm potential (gauge fixed by the pseudoinverse).  The zero mode is
assigned to the kernel part (P(0) := identity convention).  The
frequencies are field.Spectrum's xi on the half grid, whose entry N/2 is 0
on an even axis (the Nyquist convention), so A, P and the potential are
Hermitian on every grid and the split of a real field is real; on an even
grid a frequency whose xi is 0 after that (say (N/2, N/2)) counts as a zero
mode.  The symbol is real with A(-xi) = (-1)^l A(xi), so P(-xi) = P(xi):
the half grid holds every frequency that the split needs.
`helmholtz_splits` streams fields through one operator, one rank check per
stream and one frequency solve per run of fields on one grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbol as sym_mod
from .field import GridField, Spectrum, _apply_stack, _check_operator, fft, ifft
from .norms import lebesgue_norm

__all__ = ["HelmholtzResult", "helmholtz", "helmholtz_splits"]


@dataclass(frozen=True)
class HelmholtzResult:
    bPart: GridField
    aStarPart: GridField
    w: GridField
    reconstructionError: float
    constraintResidual: float
    orthogonalityResidual: float
    potentialResidual: float


def _frequency_solve(sym, rec):
    """(nz, A[nz], P, (A A^T)^+) on the nonzero frequencies of rec's half
    grid, then A and A* = (-1)^l A^T as complex half-grid stacks in
    evaluate's layout."""
    xi = np.stack(np.broadcast_arrays(*rec.xi), axis=-1)
    flat_xi = xi.reshape(-1, sym.n)
    A = sym_mod.evaluate(sym, flat_xi)
    mag = np.sqrt(np.sum(flat_xi**2, axis=-1))
    nz = mag > 0
    # normalize frequencies (P and the pinv computations are 0-homogeneous
    # in exact arithmetic; normalizing keeps conditioning uniform)
    An = np.array(A)
    An[nz] /= mag[nz, None, None] ** sym.l
    Adag = np.linalg.pinv(An[nz], rcond=sym_mod.DEFAULT_TOL_SV)
    P = np.eye(sym.dimV)[None, :, :] - Adag @ An[nz]
    A_nz = A[nz]
    AATdag = np.linalg.pinv(A_nz @ np.transpose(A_nz, (0, 2, 1)),
                            rcond=sym_mod.DEFAULT_TOL_SV)
    Astar = (-1.0) ** sym.l * np.transpose(A, (0, 2, 1))
    return (nz, A_nz, P, AATdag) + tuple(
        S.astype(complex, order="C").reshape(xi.shape[:-1] + S.shape[1:])
        for S in (A, Astar))


def helmholtz_splits(fields, sym):
    """helmholtz(v, sym) for each v of fields, taken one at a time.

    The sampled constant-rank check (200 points) runs once, at the first
    field, after its dimension checks.  Consecutive fields on one grid
    share one frequency solve; another grid starts a new one (the old one
    is dropped first), and nothing outlives the generator."""
    report = grid = None
    for v in fields:
        _check_operator(sym, v)
        if report is None:
            report = sym_mod.constant_rank_check(sym, 200)
            if not report.is_constant:
                raise ValueError("helmholtz requires a constant-rank operator "
                                 f"(witness {report.witness})")
        rec = Spectrum(v)
        if (v.shape, v.period) != grid:
            grid, solve = (v.shape, v.period), None
            solve = _frequency_solve(sym, rec)
        yield _split(v, sym, rec.hat, solve)


def helmholtz(v, sym):
    """Split v into the frequency-kernel part and the A*-range part."""
    return next(helmholtz_splits([v], sym))


def _split(v, sym, vhat, solve):
    nz, A_nz, P, AATdag, A, Astar = solve
    vflat = vhat.reshape(-1, v.dimV)
    b_flat = np.array(vflat)
    b_flat[nz] = np.einsum("kij,kj->ki", P, vflat[nz])
    a_flat = vflat - b_flat
    # w from (A A^T)^+ i^l A v^, using the unnormalized symbol
    il = 1j**sym.l
    w_flat = np.zeros((len(vflat), sym.dimW), dtype=complex)
    w_flat[nz] = np.einsum("kij,kj->ki", AATdag, il * np.einsum("kij,kj->ki", A_nz, vflat[nz]))
    bPart, aStarPart, w = (
        GridField(ifft(x.reshape(vhat.shape[:-1] + x.shape[1:]),
                       np.empty(v.shape + x.shape[1:])), v.period)
        for x in (b_flat, a_flat, w_flat))

    scale = lebesgue_norm(v, 2) + 1e-300
    recon = np.sqrt(np.sum((bPart.values + aStarPart.values - v.values) ** 2)
                    * v.cell_volume) / scale
    Ab = _apply_stack(A, fft(bPart), sym.l, v)
    sym_scale = max(float(np.max(np.abs(m))) for m in sym.coeffs.values())
    kmax = max(np.pi * s / p for s, p in zip(v.shape, v.period))
    constraint = lebesgue_norm(Ab, 2) / (sym_scale * kmax**sym.l * scale)
    Astar_w = _apply_stack(Astar, fft(w), sym.l, v)
    potential = np.sqrt(np.sum((Astar_w.values - aStarPart.values) ** 2)
                        * v.cell_volume) / scale
    ortho = abs(float(np.sum(bPart.values * aStarPart.values) * v.cell_volume)) / scale**2
    return HelmholtzResult(bPart, aStarPart, w, float(recon),
                           float(constraint), float(ortho), float(potential))
