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

from .field import (GridField, Spectrum, TrigPoly, _row_halves, fft,
                    gradient, ifft, trig_pair, trig_product)
from .norms import _lp_norm, besov_sup

__all__ = ["pairing_identity", "theoremD_ratio", "thmD_ensemble",
           "interpolation_ensemble", "poisson_slab", "slab_derivatives"]

TAIL_TOL = 1e-6  # pairing_identity: boundary mass at T over pairing scale
# thmD's frequencies and amplitude scalings; the interpolation ensemble's
# grid side and decay exponent
M_LIST = (4, 8, 16, 32, 64)
AMPLITUDES = (0.5, 1.0, 2.0)
SHAPE = 256
BETA1 = 0.75


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def poisson_slab(f, t):
    """Harmonic-extension slab at height t (mean extended as a constant).

    f: TrigPoly, GridField or a GridField's Spectrum."""
    if isinstance(f, TrigPoly):
        terms = {m: a * math.exp(-t * math.sqrt(sum(float(x) ** 2 for x in m)))
                 for m, a in zip(f.keys, f.amps)}
        return TrigPoly(n=f.n, dimV=f.dimV, terms=terms)
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
    the per-axis xi of a Spectrum: -|xi| e^{-t|xi|}, then i xi_j e^{-t|xi|}."""
    decay = np.exp(-t * mag)
    return [-mag * decay] + [1j * x * decay for x in xi]


# ---------------------------------------------------------------------------
# pairing identity
# ---------------------------------------------------------------------------

def _det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def pairing_identity(u, phi, T=8.0, tLevels=64):
    """{lhs, rhs, relError}: surface Jacobian pairing vs the bulk
    (n+1)-determinant of the harmonic extensions.

    u: 2-component GridField, phi: scalar GridField on the same 2D grid.
    The t-integral uses Gauss-Legendre nodes on [0, T]; the t=T boundary
    determinant mass is measured and must be below TAIL_TOL relative to the
    pairing scale.
    """
    if u.n != 2 or u.dimV != 2 or phi.dimV != 1:
        raise ValueError("the identity is implemented for 2D, u in R^2")
    cell = u.cell_volume

    # phi, u1 and u2 as scalar fields, each transformed once to its
    # half-spectrum (at 256^2 a plane stays in cache where an (N, N, 2)
    # array does not).  At each height the three factors are built once and
    # serve all three planes, and the nine planes are inverted in place,
    # through one product buffer, into arrays kept across heights.
    rec = Spectrum(phi)
    mag, xi = rec.mag[..., None], [x[..., None] for x in rec.xi]
    hats = [rec.hat, fft(u.component(0)), fft(u.component(1))]
    buf = np.empty_like(hats[0])
    planes = [[np.empty(phi.values.shape) for _ in range(3)] for _ in hats]

    def slab(t):
        """The nine planes (d_t, d_x1, d_x2) of (Phi, U1, U2) at height t."""
        factors = _slab_factors(mag, xi, t)
        for hat, row in zip(hats, planes):
            for factor, plane in zip(factors, row):
                ifft(np.multiply(hat, factor, out=buf), plane)
        return planes

    def surface_det(rows):
        """det D_x (U1, U2) from the x-derivative planes of u."""
        (_, u1x, u1y), (_, u2x, u2y) = rows
        return u1x * u2y - u1y * u2x

    det_surface = surface_det(slab(0.0)[1:])
    phi0 = phi.values
    lhs = float(np.sum(det_surface * phi0) * cell)
    scale = float(np.sum(np.abs(det_surface * phi0)) * cell)

    nodes, weights = np.polynomial.legendre.leggauss(tLevels)
    ts = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights
    rhs = -sum(w * float(np.sum(_det3(*slab(t))) * cell)
               for t, w in zip(ts, ws))

    # boundary determinant mass at height T (truncation error witness)
    det_T = surface_det(slab(T)[1:])
    phiT = ifft(np.multiply(hats[0], np.exp(-T * mag), out=buf),
                planes[0][0])
    tail = abs(float(np.sum(phiT * det_T) * cell))
    denom = max(abs(lhs), scale, 1e-300)
    if tail > TAIL_TOL * denom:
        raise ValueError(f"tail bound violated at T={T}: boundary mass "
                         f"{tail:.3e} vs scale {denom:.3e}")
    return {"lhs": lhs, "rhs": rhs, "relError": abs(lhs - rhs) / denom,
            "tail": tail}


# ---------------------------------------------------------------------------
# dual-Hoelder ratio experiments
# ---------------------------------------------------------------------------

def _trig_lifted_seminorm(f, order):
    """Fourier-route seminorm (sum |xi|^{2 order} |amp|^2 vol)^{1/2}."""
    vol = (2 * math.pi) ** f.n
    total = 0.0
    for m, a in zip(f.keys, f.amps):
        mag = math.sqrt(sum(float(x) ** 2 for x in m))
        if mag == 0:
            continue
        total += mag ** (2 * order) * float(np.sum(np.abs(a) ** 2))
    return math.sqrt(total * vol)


def theoremD_ratio(u, v, phi, alpha):
    """Measured ratio |<F(u)-F(v), phi>| / ([phi]_alpha [u-v]_{-1+beta,s}
    ([u]+[v])^{s-1}) with s = 2 and beta = 1 - alpha/s, for the div-curl
    integrand on 4-component sparse fields (v1, v2, w1, w2): F = v.w."""
    beta = 1.0 - alpha / 2

    def F_pair(a, b):
        # bilinear polarization of F = (a1,a2).(a3,a4)
        tot = TrigPoly.zero(a.n, 1)
        for i in (0, 1):
            tot = tot + trig_product(a.component(i), b.component(i + 2))
        return tot

    pairing = trig_pair(F_pair(u, u) - F_pair(v, v), phi)
    holder = besov_sup(phi, alpha)
    dn = _trig_lifted_seminorm(u - v, -1.0 + beta)
    un = _trig_lifted_seminorm(u, -1.0 + beta)
    vn = _trig_lifted_seminorm(v, -1.0 + beta)
    denom = holder * dn * (un + vn)
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


def _spread(records):
    ratios = [r["ratio"] for r in records]
    return {"records": records, "max_ratio": max(ratios),
            "min_ratio": min(ratios), "spread": max(ratios) / min(ratios)}


def thmD_ensemble(alpha=0.5):
    """Ratio stability across the frequencies M_LIST and the amplitude
    scalings AMPLITUDES at s = 2; the comparison field v is 0 and phi
    oscillates in concert with u."""
    beta, zero = 1.0 - alpha / 2, TrigPoly.zero(2, 4)
    records = []
    for m in M_LIST:
        phi = TrigPoly.wave(2, (0, m), "sin", float(m) ** -alpha)
        phi = trig_product(phi, TrigPoly.wave(2, (m, 0), "cos"))
        for a in AMPLITUDES:
            rep = theoremD_ratio(_divcurl_pair(m, a, beta), zero, phi, alpha)
            records.append({"m": m, "amplitude": a, "ratio": rep["ratio"]})
    return _spread(records)


def _strip_gradient(v, grid):
    """The gradient of a field on the 2-D grid that varies along one axis
    only, given as its column (N, 1) or its row (1, N).  It is taken on the
    strip that cuts the constant axis to 2 points and broadcast back to the
    grid as read-only views.  The constant axis's partial is exactly 0.  On
    a grid whose sides are powers of 2 the other partial has the whole
    grid's bits up to a zero's sign: a constant lane's transform and the
    inverse's 1/N are then exact scalings."""
    strip = tuple(max(k, 2) for k in v.shape)
    return [np.broadcast_to(d[:v.shape[0], :v.shape[1]], grid)
            for d in gradient(GridField(np.broadcast_to(v, strip)[..., None]))]


def interpolation_ensemble(alpha=0.5):
    """Jacobian variant: |int det(Du) phi| / ([phi]_alpha ||u||_q^alpha
    ||Du||_p^{n-alpha}) with q = p = 2, so that alpha/q + (n-alpha)/p = 1
    (n=2), on the SHAPE^2 grid.

    u = amp (sin(m x), -cos(m y)) with amp = a m^{-BETA1} and phi =
    m^{-alpha} cos(m x) sin(m y), for m in M_LIST and a in AMPLITUDES.
    Built once per frequency m: phi, its grid values and [phi]_alpha, and
    sin(m x) and cos(m y) as a column and a row.  Each amplitude scales them
    and takes its own gradient transforms (the transform of amp * sin is not
    bit for bit amp times that of sin), each component on its strip
    (_strip_gradient).  A record allocates the strips' arrays, with the
    partials broadcast to the grid as views, and fills three grid arrays,
    allocated once per frequency and dropped before the next render: det
    Du phi, |Du| and |u|.  Their two row halves are filled on the caller's
    thread and the helper thread (field._row_halves), each block from its
    own rows; np.sum and both _lp_norms then run on the whole arrays on the
    caller's thread, so every sum keeps its order.  The cross partials u1y
    and u2x are +0.0 on every grid (_strip_gradient), so det Du is u1x u2y
    and |Du|^2 is u1x^2 + u2y^2: subtracting +0.0 from a value, or adding
    it to a square, which is never -0.0, moves no bit."""
    n = 2
    h = 2 * math.pi / SHAPE
    x, cell, grid = np.arange(SHAPE) * h, h * h, (SHAPE, SHAPE)
    records = []
    for m in M_LIST:
        phi_tp = TrigPoly.wave(2, (m, 0), "cos", float(m) ** -alpha)
        phi_tp = trig_product(phi_tp, TrigPoly.wave(2, (0, m), "sin"))
        phiv = phi_tp.render(grid).values[..., 0]
        holder = besov_sup(phi_tp, alpha)
        s, c = np.sin(m * x)[:, None], np.cos(m * x)[None, :]
        det, dmag, umag = np.empty(grid), np.empty(grid), np.empty(grid)
        for a in AMPLITUDES:
            amp = a * float(m) ** -BETA1
            u1, u2 = amp * s, -amp * c
            u1x = _strip_gradient(u1, grid)[0]
            u2y = _strip_gradient(u2, grid)[1]
            usq1, usq2 = u1 * u1, u2 * u2

            def fill(rows):
                d, g, r = det[rows], dmag[rows], umag[rows]
                a1, a2 = u1x[rows], u2y[rows]
                np.multiply(a1, a2, out=d)
                d *= phiv[rows]
                np.multiply(a1, a1, out=g)
                g += np.multiply(a2, a2, out=r)  # r is scratch until |u|
                np.sqrt(g, out=g)
                np.sqrt(np.add(usq1[rows], usq2, out=r), out=r)

            _row_halves(SHAPE, fill)
            pairing = float(np.sum(det) * cell)
            denom = (holder * _lp_norm(umag, cell, 2.0) ** alpha
                     * _lp_norm(dmag, cell, 2.0) ** (n - alpha))
            records.append({"m": m, "amplitude": a,
                            "ratio": abs(pairing) / denom})
        del det, dmag, umag  # not held through the next frequency's render
    return _spread(records)
