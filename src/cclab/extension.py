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
from dataclasses import dataclass

import numpy as np

from .field import GridField, TrigPoly
from .norms import besov_block_sums, gagliardo_seminorm, lebesgue_norm

__all__ = ["HalfSpaceField", "poisson_extend", "average_extend",
           "harmonicity_residual", "pairing_identity", "theoremD_ratio",
           "thmD_ensemble", "interpolation_ensemble", "frac_trace_check",
           "poisson_slab", "slab_derivatives"]


@dataclass(frozen=True)
class HalfSpaceField:
    base: object
    tGrid: tuple
    slabs: tuple
    extensionKind: str


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def _xi_magnitude(f):
    mags = 0.0
    for ax, (s, p) in enumerate(zip(f.shape, f.period)):
        m = np.fft.fftfreq(s, d=1.0 / s)
        shape = [1] * len(f.shape)
        shape[ax] = s
        mags = mags + (m.reshape(shape) * 2 * math.pi / p) ** 2
    return np.sqrt(mags)


def poisson_slab(f, t):
    """Harmonic-extension slab at height t (mean extended as a constant)."""
    if isinstance(f, TrigPoly):
        scale = 2 * math.pi / f.period
        terms = {}
        for m, a in f.terms.items():
            mag = math.sqrt(sum(float(x) ** 2 for x in m)) * scale
            terms[m] = a * math.exp(-t * mag)
        return TrigPoly(n=f.n, dimV=f.dimV, terms=terms, period=f.period)
    hat = np.fft.fftn(f.values, axes=tuple(range(f.n)))
    decay = np.exp(-t * _xi_magnitude(f))
    out = np.real(np.fft.ifftn(hat * decay[..., None],
                               axes=tuple(range(f.n))))
    return GridField(out, f.period)


def poisson_extend(f, tGrid):
    slabs = tuple(poisson_slab(f, float(t)) for t in tGrid)
    return HalfSpaceField(base=f, tGrid=tuple(float(t) for t in tGrid),
                          slabs=slabs, extensionKind="poisson")


def average_extend(u, tGrid):
    """Slab at height t = average of u over the periodic ball B_t(x)."""
    grids = u.meshgrid()
    slabs = []
    for t in tGrid:
        d2 = 0.0
        for g, p in zip(grids, u.period):
            d = np.minimum(g, p - g)
            d2 = d2 + d**2
        mask = (d2 <= float(t) ** 2).astype(float)
        mask /= mask.sum()
        mhat = np.fft.fftn(mask)
        hat = np.fft.fftn(u.values, axes=tuple(range(u.n)))
        out = np.real(np.fft.ifftn(hat * mhat[..., None],
                                   axes=tuple(range(u.n))))
        slabs.append(GridField(out, u.period))
    return HalfSpaceField(base=u, tGrid=tuple(float(t) for t in tGrid),
                          slabs=tuple(slabs), extensionKind="average")


def slab_derivatives(f, t):
    """(d_t, d_x1, ..., d_xn) of the harmonic extension at height t.

    Returns arrays of shape f.shape + (dimV,); all factors are exact per
    mode: d_t multiplies by -|xi|, d_xj by i xi_j.
    """
    hat = np.fft.fftn(f.values, axes=tuple(range(f.n)))
    mag = _xi_magnitude(f)
    decay = np.exp(-t * mag)
    axes = tuple(range(f.n))
    out = [np.real(np.fft.ifftn(hat * (-mag * decay)[..., None], axes=axes))]
    for ax, (s, p) in enumerate(zip(f.shape, f.period)):
        m = np.fft.fftfreq(s, d=1.0 / s)
        shape = [1] * f.n
        shape[ax] = s
        xi = m.reshape(shape) * 2 * math.pi / p
        out.append(np.real(np.fft.ifftn(hat * (1j * xi * decay)[..., None],
                                        axes=axes)))
    return out


def harmonicity_residual(hsf):
    """Max relative residual of the (t,x)-Laplacian on interior t-triplets
    (second t-derivative by nonuniform finite differences)."""
    if hsf.extensionKind != "poisson":
        raise ValueError("harmonicity applies to the poisson extension")
    if isinstance(hsf.base, TrigPoly):
        raise TypeError("render the base to a grid before the residual check")
    t = np.asarray(hsf.tGrid)
    worst = 0.0
    base = hsf.base
    scale = float(np.max(np.abs(base.values))) + 1e-300
    for i in range(1, len(t) - 1):
        h1, h2 = t[i] - t[i - 1], t[i + 1] - t[i]
        u0, u1, u2 = (hsf.slabs[i - 1].values, hsf.slabs[i].values,
                      hsf.slabs[i + 1].values)
        dtt = 2 * (h1 * u2 + h2 * u0 - (h1 + h2) * u1) / (h1 * h2 * (h1 + h2))
        hat = np.fft.fftn(u1, axes=tuple(range(base.n)))
        lap = -np.real(np.fft.ifftn(
            hat * (_xi_magnitude(base) ** 2)[..., None],
            axes=tuple(range(base.n))))
        # FD truncation is O(h^2 * |xi|^4); normalize by the mode scale
        hmax = max(h1, h2)
        kmax = float(np.max(_xi_magnitude(base)))
        tol_scale = scale * (1 + hmax**2 * kmax**4)
        worst = max(worst, float(np.max(np.abs(dtt + lap))) / tol_scale)
    return worst


# ---------------------------------------------------------------------------
# pairing identity
# ---------------------------------------------------------------------------

def _grad2(values, period):
    N1, N2 = values.shape
    hat = np.fft.fftn(values)
    f1 = np.fft.fftfreq(N1, d=1.0 / N1) * 2 * math.pi / period[0]
    f2 = np.fft.fftfreq(N2, d=1.0 / N2) * 2 * math.pi / period[1]
    gx = np.real(np.fft.ifftn(hat * (1j * f1)[:, None]))
    gy = np.real(np.fft.ifftn(hat * (1j * f2)[None, :]))
    return gx, gy


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
    u1x, u1y = _grad2(u.values[..., 0], u.period)
    u2x, u2y = _grad2(u.values[..., 1], u.period)
    det_surface = u1x * u2y - u1y * u2x
    lhs = float(np.sum(det_surface * phi.values[..., 0]) * cell)
    scale = float(np.sum(np.abs(det_surface * phi.values[..., 0])) * cell)

    nodes, weights = np.polynomial.legendre.leggauss(tLevels)
    ts = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights

    def bulk(t):
        dphi = slab_derivatives(phi, t)
        du = slab_derivatives(u, t)
        r0 = [d[..., 0] for d in dphi]
        r1 = [d[..., 0] for d in du]
        r2 = [d[..., 1] for d in du]
        return float(np.sum(_det3(r0, r1, r2)) * cell)

    rhs = -sum(w * bulk(t) for t, w in zip(ts, ws))

    # boundary determinant mass at height T (truncation error witness)
    phiT = poisson_slab(phi, T).values[..., 0]
    uT = poisson_slab(u, T)
    v1x, v1y = _grad2(uT.values[..., 0], u.period)
    v2x, v2y = _grad2(uT.values[..., 1], u.period)
    tail = abs(float(np.sum(phiT * (v1x * v2y - v1y * v2x)) * cell))
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


def _holder_surrogate(phi, alpha):
    blocks = besov_block_sums(phi)
    if not blocks:
        return 0.0
    return max(2.0 ** (alpha * j) * s for j, s in blocks.items())


def theoremD_ratio(u, v, phi, alpha, s=2, pairing=None):
    """Measured ratio |<F(u)-F(v), phi>| / ([phi]_alpha [u-v]_{-1+beta,s}
    ([u]+[v])^{s-1}) with beta = 1 - alpha/s, for the div-curl integrand on
    4-component sparse fields (components (v1, v2, w1, w2): F = v.w)."""
    from .field import trig_pair, trig_product

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
    holder = _holder_surrogate(phi, alpha)
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
        from .field import trig_product
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
            from .field import trig_product
            phi_tp = trig_product(phi_tp, TrigPoly.wave(2, (0, m), "sin"))
            phiv = phi_tp.render((shape, shape))
            u1x, u1y = _grad2(uvals[..., 0], (period, period))
            u2x, u2y = _grad2(uvals[..., 1], (period, period))
            det = u1x * u2y - u1y * u2x
            pairing = float(np.sum(det * phiv.values[..., 0]) * u.cell_volume)
            du = GridField(np.stack([u1x, u1y, u2x, u2y], axis=-1),
                           (period, period))
            denom = (_holder_surrogate(phi_tp, alpha)
                     * lebesgue_norm(u, q) ** alpha
                     * lebesgue_norm(du, p) ** (n - alpha))
            records.append({"m": m, "amplitude": a,
                            "ratio": abs(pairing) / denom})
    ratios = [r["ratio"] for r in records]
    return {"records": records, "max_ratio": max(ratios),
            "min_ratio": min(ratios), "spread": max(ratios) / min(ratios)}


# ---------------------------------------------------------------------------
# fractional trace constant
# ---------------------------------------------------------------------------

def frac_trace_check(f, beta, p, tGrid=None):
    """Fitted constant: weighted slab-gradient mass over the extension
    divided by the fractional seminorm of the trace.

    (int int |t^{1-1/p-beta} D_{t,x}F|^p dx dt)^{1/p} / [f]_{beta,p}
    (the denominator is ||f||_p at beta = 0).  Trapezoid in log t.
    """
    if not 0 <= beta < 1 or not 1 < p < math.inf:
        raise ValueError("need 0 <= beta < 1 and p in (1, inf)")
    if tGrid is None:
        tGrid = np.geomspace(1e-4, 12.0, 96)
    tGrid = np.asarray(tGrid, dtype=float)
    w_exp = p * (1.0 - 1.0 / p - beta)
    masses = []
    cell = f.cell_volume
    for t in tGrid:
        ds = slab_derivatives(f, float(t))
        mag2 = sum(np.sum(d**2, axis=-1) for d in ds)
        masses.append(float(np.sum(mag2 ** (p / 2.0)) * cell)
                      * float(t) ** w_exp)
    masses = np.asarray(masses)
    # trapezoid in log t: dt = t dlog
    logt = np.log(tGrid)
    integral = float(np.trapezoid(masses * tGrid, logt))
    numerator = integral ** (1.0 / p)
    if beta == 0:
        denom = lebesgue_norm(f, p)
    else:
        method = "fourier" if p == 2 else "double-sum"
        denom = gagliardo_seminorm(f, beta, p, method=method)
    if denom <= 0:
        return {"constant": None, "note": "not applicable (constant input)"}
    return {"constant": numerator / denom, "numerator": numerator,
            "denominator": denom}
