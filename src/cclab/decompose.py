"""Frequency-wise Helmholtz-type decomposition v = (kernel part) + A* w.

Per nonzero frequency, bPart^ = P(xi) v^ with P the orthogonal projection
onto ker A(xi), aStarPart^ = (I - P) v^, and w^ = (A A^T)^+ (i^l A) v^ is the
minimal-norm potential (gauge fixed by the pseudoinverse).  The zero mode is
assigned to the kernel part (P(0) := identity convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import symbol as sym_mod
from .field import GridField, Spectrum, ifft, apply_symbol
from .norms import lebesgue_norm

__all__ = ["HelmholtzResult", "helmholtz"]


@dataclass(frozen=True)
class HelmholtzResult:
    bPart: GridField
    aStarPart: GridField
    w: GridField
    reconstructionError: float
    constraintResidual: float
    orthogonalityResidual: float
    potentialResidual: float


def _operator_key(sym):
    return (sym.n, sym.l, sym.dimV, sym.dimW,
            tuple((alpha, mat.tobytes()) for alpha, mat in sym.coeffs.items()))


def _frequency_solve(sym, rec, tolSV, cache):
    """(nz, A[nz], P, (A A^T)^+) on the nonzero frequencies of rec's grid,
    read-only.  cache (a RankReport's solve_cache) keeps the last one, so
    the calls that share a report, operator, grid and tolSV reuse it."""
    key = (_operator_key(sym), rec.field.shape, rec.field.period, tolSV)
    solve = cache.get(key)
    if solve is None:
        flat_xi = np.stack(np.broadcast_arrays(*rec.xi),
                           axis=-1).reshape(-1, sym.n)
        A = sym_mod.evaluate(sym, flat_xi)
        mag = np.sqrt(np.sum(flat_xi**2, axis=-1))
        nz = mag > 0
        # normalize frequencies (P and the pinv computations are 0-homogeneous
        # in exact arithmetic; normalizing keeps conditioning uniform)
        An = np.array(A)
        An[nz] /= mag[nz, None, None] ** sym.l
        Adag = np.linalg.pinv(An[nz], rcond=tolSV)
        P = np.eye(sym.dimV)[None, :, :] - Adag @ An[nz]
        A_nz = A[nz]
        AATdag = np.linalg.pinv(A_nz @ np.transpose(A_nz, (0, 2, 1)),
                                rcond=tolSV)
        solve = (nz, A_nz, P, AATdag)
        for arr in solve:
            arr.setflags(write=False)
        cache.clear()
        cache[key] = solve
    return solve


def helmholtz(v, sym, tolSV=sym_mod.DEFAULT_TOL_SV, rank_report=None):
    """Split v into the frequency-kernel part and the A*-range part.

    Requires a certified constant-rank operator: pass a report to share its
    check and its projectors across calls; without one, each call runs the
    sampled check (200 points) and solves afresh.
    """
    if v.dimV != sym.dimV:
        raise ValueError("field/operator dimension mismatch")
    report = rank_report or sym_mod.constant_rank_check(sym, samples=200,
                                                         tolSV=tolSV)
    if not report.is_constant:
        raise ValueError("helmholtz requires a constant-rank operator "
                         f"(witness {report.witness})")
    rec = Spectrum(v)
    vhat = rec.hat
    nfreq = int(np.prod(v.shape))
    vflat = vhat.reshape(nfreq, v.dimV)
    nz, A_nz, P, AATdag = _frequency_solve(sym, rec, tolSV,
                                           report.solve_cache)
    b_flat = np.array(vflat)
    b_flat[nz] = np.einsum("kij,kj->ki", P, vflat[nz])
    a_flat = vflat - b_flat
    # w from (A A^T)^+ i^l A v^, using the unnormalized symbol
    il = 1j**sym.l
    w_flat = np.zeros((nfreq, sym.dimW), dtype=complex)
    w_flat[nz] = np.einsum("kij,kj->ki", AATdag, il * np.einsum("kij,kj->ki", A_nz, vflat[nz]))
    bPart = ifft(b_flat.reshape(vhat.shape), v.period)
    aStarPart = ifft(a_flat.reshape(v.shape + (v.dimV,)), v.period)
    w = ifft(w_flat.reshape(v.shape + (sym.dimW,)), v.period)

    scale = lebesgue_norm(v, 2) + 1e-300
    recon = np.sqrt(np.sum((bPart.values + aStarPart.values - v.values) ** 2)
                    * v.cell_volume) / scale
    Ab = apply_symbol(sym, bPart)
    sym_scale = max(float(np.max(np.abs(m))) for m in sym.coeffs.values())
    kmax = max(np.pi * s / p for s, p in zip(v.shape, v.period))
    constraint = lebesgue_norm(Ab, 2) / (sym_scale * kmax**sym.l * scale)
    Astar_w = apply_symbol(sym_mod.adjoint_symbol(sym), w)
    potential = np.sqrt(np.sum((Astar_w.values - aStarPart.values) ** 2)
                        * v.cell_volume) / scale
    ortho = abs(float(np.sum(bPart.values * aStarPart.values) * v.cell_volume)) / scale**2
    return HelmholtzResult(bPart=bPart, aStarPart=aStarPart, w=w,
                           reconstructionError=float(recon),
                           constraintResidual=float(constraint),
                           orthogonalityResidual=float(ortho),
                           potentialResidual=float(potential))

