"""Half-space extensions over a periodic base and the determinant pairing
identity.

The harmonic extension is realized per frequency by the factor e^{-t|xi|}
(exact for sparse trig polynomials, spectral for grid fields).  The key
pairing identity expresses a Jacobian determinant tested against phi as a
bulk integral of the (n+1)-dimensional determinant of the extended fields;
the t-boundary terms decay exponentially, so a periodic base replaces decay
at infinity, and the truncation error at height T is the measured boundary
determinant mass rather than a single-mode surrogate.
"""

from __future__ import annotations

import math

import numpy as np

from .field import (GridField, Spectrum, TrigPoly, _half_inverse, gradient,
                    trig_pair, trig_product)
from .norms import besov_sup, lebesgue_norm

__all__ = ["pairing_identity", "theoremD_ratio", "thmD_ensemble",
           "interpolation_ensemble", "poisson_slab", "slab_derivatives"]


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def poisson_slab(f, t):
    """Harmonic-extension slab at height t (mean extended as a constant).

    f: TrigPoly, GridField or a GridField's Spectrum."""
    if isinstance(f, TrigPoly):
        scale = 2 * math.pi / f.period
        terms = {}
        for m, a in f.terms.items():
            mag = math.sqrt(sum(float(x) ** 2 for x in m)) * scale
            terms[m] = a * math.exp(-t * mag)
        return TrigPoly(n=f.n, dimV=f.dimV, terms=terms, period=f.period)
    rec = Spectrum.of(f)
    return GridField(rec.inverse(np.exp(-t * rec.mag)), rec.field.period)


def slab_derivatives(f, t):
    """(d_t, d_x1, ..., d_xn) of the harmonic extension at height t.

    f: GridField or its Spectrum (reused across heights).  Returns arrays of
    shape f.shape + (dimV,); all factors are exact per mode: d_t multiplies
    by -|xi|, d_xj by i xi_j.
    """
    rec = Spectrum.of(f)
    return [rec.inverse(factor)
            for factor in _slab_factors(rec.mag, rec.xi, t)]


def _slab_factors(mag, xi, t):
    """The multipliers of (d_t, d_x1, ..., d_xn) at height t, given |xi| and
    the per-axis xi of a Spectrum (or their half-spectrum slices):
    -|xi| e^{-t|xi|}, then i xi_j e^{-t|xi|}."""
    decay = np.exp(-t * mag)
    return [-mag * decay] + [1j * x * decay for x in xi]


# ---------------------------------------------------------------------------
# pairing identity
# ---------------------------------------------------------------------------

def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def pairing_identity(u, phi, T=8.0, tLevels=64, tail_tol=1e-6):
    """{lhs, rhs, relError}: surface Jacobian pairing vs the bulk
    (n+1)-determinant of the harmonic extensions.

    u: 2-component GridField, phi: scalar GridField on the same 2D grid.
    The t-integral uses Gauss-Legendre nodes on [0, T]; the t=T boundary
    determinant mass is measured and must be below tail_tol relative to the
    pairing scale.
    """
    if u.n != 2 or u.dimV != 2 or phi.dimV != 1:
        raise ValueError("the identity is implemented for 2D, u in R^2")
    cell = u.cell_volume

    # phi, u1 and u2 as scalar planes, each transformed once to its real
    # half-spectrum (rfftn; at 256^2 a plane stays in cache where an
    # (N, N, 2) array does not).  Every factor is Hermitian (Spectrum's
    # Nyquist convention), so each derivative plane is the irfftn of a
    # product on the N x (N/2 + 1) half grid.  At each height the three
    # factors are built once and serve all three planes, and the nine
    # planes are inverted in place, through one product buffer, into
    # arrays kept across heights.
    rec = Spectrum(phi)
    half = phi.shape[-1] // 2 + 1
    mag, xi = rec.mag[:, :half], [x[:, :half] for x in rec.xi]
    hats = [np.fft.rfftn(g.values[..., i])
            for g, i in ((phi, 0), (u, 0), (u, 1))]
    buf = np.empty_like(hats[0])
    planes = [[np.empty(u.shape) for _ in range(3)] for _ in hats]

    def slab(t):
        """The nine planes (d_t, d_x1, d_x2) of (Phi, U1, U2) at height t."""
        factors = _slab_factors(mag, xi, t)
        for hat, row in zip(hats, planes):
            for factor, plane in zip(factors, row):
                _half_inverse(np.multiply(hat, factor, out=buf), plane, (0, 1))
        return planes

    def surface_det(rows):
        """det D_x (U1, U2) from the x-derivative planes of u."""
        (_, u1x, u1y), (_, u2x, u2y) = rows
        return u1x * u2y - u1y * u2x

    det_surface = surface_det(slab(0.0)[1:])
    phi0 = phi.values[..., 0]
    lhs = float(np.sum(det_surface * phi0) * cell)
    scale = float(np.sum(np.abs(det_surface * phi0)) * cell)

    nodes, weights = np.polynomial.legendre.leggauss(tLevels)
    ts = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights
    rhs = -sum(w * float(np.sum(_det3(*slab(t))) * cell)
               for t, w in zip(ts, ws))

    # boundary determinant mass at height T (truncation error witness)
    det_T = surface_det(slab(T)[1:])
    phiT = _half_inverse(np.multiply(hats[0], np.exp(-T * mag), out=buf),
                         planes[0][0], (0, 1))
    tail = abs(float(np.sum(phiT * det_T) * cell))
    denom = max(abs(lhs), scale, 1e-300)
    if tail > tail_tol * denom:
        raise ValueError(f"tail bound violated at T={T}: boundary mass "
                         f"{tail:.3e} vs scale {denom:.3e}")
    return {"lhs": lhs, "rhs": rhs, "relError": abs(lhs - rhs) / denom,
            "tail": tail}


# ---------------------------------------------------------------------------
# dual-Hoelder ratio experiments
# ---------------------------------------------------------------------------

def _trig_lifted_seminorm(f, order):
    """Fourier-route seminorm (sum |xi|^{2 order} |amp|^2 vol)^{1/2}."""
    scale = 2 * math.pi / f.period
    vol = f.period**f.n
    total = 0.0
    for m, a in f.terms.items():
        mag = math.sqrt(sum(float(x) ** 2 for x in m)) * scale
        if mag == 0:
            continue
        total += mag ** (2 * order) * float(np.sum(np.abs(a) ** 2))
    return math.sqrt(total * vol)


def theoremD_ratio(u, v, phi, alpha, s=2, pairing=None):
    """Measured ratio |<F(u)-F(v), phi>| / ([phi]_alpha [u-v]_{-1+beta,s}
    ([u]+[v])^{s-1}) with beta = 1 - alpha/s, for the div-curl integrand on
    4-component sparse fields (components (v1, v2, w1, w2): F = v.w)."""
    beta = 1.0 - alpha / s
    if s != 2:
        raise ValueError("the Fourier-route seminorm is implemented for s=2")

    def F_pair(a, b):
        # bilinear polarization of F = (a1,a2).(a3,a4)
        tot = TrigPoly.zero(a.n, 1, a.period)
        for i in (0, 1):
            tot = tot + trig_product(a.component(i), b.component(i + 2))
        return tot

    if pairing is None:
        diff_F = F_pair(u, u) - F_pair(v, v)
        pairing = trig_pair(diff_F, phi)
    holder = besov_sup(phi, alpha)
    d = u - v
    dn = _trig_lifted_seminorm(d, -1.0 + beta)
    un = _trig_lifted_seminorm(u, -1.0 + beta)
    vn = _trig_lifted_seminorm(v, -1.0 + beta)
    denom = holder * dn * (un + vn) ** (s - 1)
    if denom <= 0:
        return {"ratio": None, "note": "not applicable (zero denominator)"}
    return {"ratio": abs(pairing) / denom, "pairing": pairing,
            "holder": holder, "diff_seminorm": dn, "sum_seminorm": un + vn}


def _divcurl_pair(m, amplitude, beta1):
    """Exactly constraint-free oscillation pair at frequency m."""
    a = amplitude * float(m) ** (-beta1)
    vpart = TrigPoly.wave(2, (0, m), "sin", a, phase_vector=[1, 0, 0, 0])
    wpart = TrigPoly.wave(2, (m, 0), "cos", a, phase_vector=[0, 0, 1, 0])
    return vpart + wpart


def thmD_ensemble(alpha=0.5, s=2, m_list=(4, 8, 16, 32, 64),
                  amplitudes=(0.5, 1.0, 2.0)):
    """Ratio stability across frequencies and amplitude scalings; the
    comparison field v is 0 and phi oscillates in concert with u."""
    beta = 1.0 - alpha / s
    records = []
    for m in m_list:
        phi = TrigPoly.wave(2, (0, m), "sin", float(m) ** -alpha)
        phi = trig_product(phi, TrigPoly.wave(2, (m, 0), "cos"))
        for a in amplitudes:
            u = _divcurl_pair(m, a, beta1=beta)
            zero = TrigPoly.zero(2, 4)
            rep = theoremD_ratio(u, zero, phi, alpha, s)
            records.append({"m": m, "amplitude": a, "ratio": rep["ratio"]})
    ratios = [r["ratio"] for r in records]
    return {"records": records, "max_ratio": max(ratios),
            "min_ratio": min(ratios),
            "spread": max(ratios) / min(ratios)}


def interpolation_ensemble(alpha=0.5, q=2.0, p=2.0, m_list=(4, 8, 16, 32, 64),
                   amplitudes=(0.5, 1.0, 2.0), shape=256, beta1=0.75):
    """Jacobian variant: |int det(Du) phi| / ([phi]_alpha ||u||_q^alpha
    ||Du||_p^{n-alpha}) with alpha/q + (n-alpha)/p = 1 (n=2)."""
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
            phiv = phi_tp.render((shape, shape))
            u1x, u1y = gradient(u.component(0))
            u2x, u2y = gradient(u.component(1))
            det = u1x * u2y - u1y * u2x
            pairing = float(np.sum(det * phiv.values[..., 0]) * u.cell_volume)
            du = GridField(np.stack([u1x, u1y, u2x, u2y], axis=-1),
                           (period, period))
            denom = (besov_sup(phi_tp, alpha)
                     * lebesgue_norm(u, q) ** alpha
                     * lebesgue_norm(du, p) ** (n - alpha))
            records.append({"m": m, "amplitude": a,
                            "ratio": abs(pairing) / denom})
    ratios = [r["ratio"] for r in records]
    return {"records": records, "max_ratio": max(ratios),
            "min_ratio": min(ratios), "spread": max(ratios) / min(ratios)}
