"""Periodic fields: dense grids with FFT calculus and sparse trig polynomials.

GridField holds samples of a vector-valued function on a uniform periodic
grid; all derivatives/multipliers act spectrally.  TrigPoly is a sparse
frequency -> amplitude map with exact product/integral arithmetic (frequencies
are Python integers, so constructions whose frequencies exceed any resolvable
grid remain exact).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import symbol as sym_mod

__all__ = [
    "GridField",
    "TrigPoly",
    "Spectrum",
    "fft",
    "ifft",
    "apply_symbol",
    "gradient",
    "jacobian",
    "trig_product",
    "trig_integral",
    "trig_pair",
    "mollify",
    "mollified",
    "mollify_into",
    "kernel_hat",
    "standard_bump",
    "bump_at",
    "random_bandlimited",
]

TRIG_TERM_CAP = 10**7
# random_bandlimited's modes: 0 <= m1 <= BANDLIMIT, |m2| <= BANDLIMIT
BANDLIMIT = 6


# ---------------------------------------------------------------------------
# GridField
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridField:
    """Samples of a map (torus of given periods) -> R^dimV.

    values has shape shape + (dimV,).  Integrals use the periodic rectangle
    rule (uniform weights x cell volume), which is spectrally accurate for
    smooth periodic data.
    """

    values: np.ndarray
    period: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 2:
            raise ValueError("values must have shape shape + (dimV,)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        n = v.ndim - 1
        period = self.period or (2 * math.pi,) * n
        if np.isscalar(period):
            period = (float(period),) * n
        period = tuple(float(p) for p in period)
        if len(period) != n:
            raise ValueError("period length must match dimension")
        if any(s < 2 for s in v.shape[:-1]):
            raise ValueError("grid shape entries must be >= 2")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "period", period)

    @property
    def n(self):
        return self.values.ndim - 1

    @property
    def shape(self):
        return self.values.shape[:-1]

    @property
    def dimV(self):
        return self.values.shape[-1]

    @property
    def cell_volume(self):
        return float(np.prod([p / s for p, s in zip(self.period, self.shape)]))

    def axes(self):
        """Per-axis coordinate arrays (grid points, left endpoints)."""
        return [np.arange(s) * (p / s) for s, p in zip(self.shape, self.period)]

    def component(self, i):
        return GridField(self.values[..., i : i + 1], self.period)

    def integral(self):
        """Vector of componentwise integrals over the box."""
        return self.values.reshape(-1, self.dimV).sum(axis=0) * self.cell_volume

    @staticmethod
    def from_function(fn, shape, period=None):
        """Sample fn(X1, ..., Xn) -> array broadcast over the grid.

        fn gets meshgrid coordinate arrays; result may have a trailing
        component axis or be scalar-shaped (then dimV=1).
        """
        shape = tuple(int(s) for s in shape)
        period = tuple(period or (2 * math.pi,) * len(shape))
        grids = np.meshgrid(*[np.arange(s) * (p / s)
                              for s, p in zip(shape, period)], indexing="ij")
        vals = np.asarray(fn(*grids), dtype=float)
        return GridField(vals[..., None] if vals.shape == shape else vals,
                         period)


def _periodic_dist2(grids, period, centre):
    """Squared periodic distance of each point of the coordinate grids
    (meshgrid arrays, sparse or not) from the point centre."""
    d2 = 0.0
    for g, p, c in zip(grids, period, centre):
        d = np.abs(g - c)
        d = np.minimum(d, p - d)
        d2 = d2 + d**2
    return d2


def fft(f):
    """The half-spectrum of the real field f: rfftn over the space axes into
    one complex array, the last space axis cut to N_n // 2 + 1."""
    shape = f.shape[:-1] + (f.shape[-1] // 2 + 1, f.dimV)
    return np.fft.rfftn(f.values, axes=tuple(range(f.n)),
                        out=np.empty(shape, complex))


def ifft(buf, out, rows=slice(None)):
    """The inverse of fft: irfftn of the half-spectrum buf over its space
    axes, cut to the first axis's rows `rows`, written into the real array
    out (the grid's shape + (dimV,), with only those rows), and returned.

    irfftn's steps, each in place: the leading axes' inverses overwrite buf
    (which the call consumes), then the last axis's irfft fills out.  The
    first axis's inverse mixes the rows, so it runs on all of buf; the other
    steps run on buf[rows] only.  Every 1-D lane is transformed on its own,
    so each row keeps the bits of the whole inverse.  rows needs two or more
    space axes.  buf must be the half of a Hermitian spectrum (Spectrum's
    Nyquist convention): irfft reads only the real parts of the last axis's
    self-conjugate columns 0 and N/2."""
    axes = range(buf.ndim - 1)
    if len(axes) > 1:
        np.fft.ifft(buf, axis=0, out=buf)
        buf = buf[rows]
    for ax in axes[1:-1]:
        np.fft.ifft(buf, axis=ax, out=buf)
    return np.fft.irfft(buf, n=out.shape[axes[-1]], axis=axes[-1], out=out)


class Spectrum:
    """One field's spectral record: its transform and frequency grids.

    hat is fft(field), on the N_1 x ... x (N_n/2 + 1) half grid; xi[i] holds
    the axis-i frequencies 2 pi m_i / p_i of that grid (m_i in numpy fft
    order), shaped to broadcast over it; mag is |xi|; radius is each point
    of the whole grid's periodic distance |x| from the origin.  Each is
    built on first use and then kept.

    The Nyquist convention: on an even axis the entry |m_i| = N_i/2 of xi[i]
    is 0, while mag keeps the full |xi| there.  That index is its own
    conjugate (-m = m mod N), so an odd-order factor such as i xi_j or a
    symbol A(xi) of odd order is Hermitian, M(-m) = conj M(m), only if it
    vanishes there; then every multiplier of a real field is the half of a
    Hermitian one, and inverse gives the real field that it defines.  Even
    factors (e^{-t|xi|}, -|xi|) read mag and do not move (S. G. Johnson,
    "Notes on FFT-based differentiation", MIT 2011).

    extension.poisson_slab and extension.slab_derivatives take a Spectrum
    in place of a GridField; they are kept as the reference slab routes
    that the tests and bench/tracing.py use.  mollify and mollified take one
    too and read its hat and radius.  Fields on one grid can share one set
    of kernel half-spectra (kernel_hat at each scale; see
    norms.local_maximal), and then only the first field's radius is read,
    while the set is built.  local_maximal's helper thread reads only the
    hat, which the caller's thread builds before the helper starts; the
    radius is built and read by the caller alone (mollify_into).
    """

    def __init__(self, field):
        self.field = field

    @staticmethod
    def of(f):
        return f if isinstance(f, Spectrum) else Spectrum(f)

    @functools.cached_property
    def hat(self):
        return fft(self.field)

    def _frequencies(self, nyquist):
        f = self.field
        out = []
        for ax, (s, p) in enumerate(zip(f.shape, f.period)):
            m = (np.fft.rfftfreq if ax == f.n - 1 else np.fft.fftfreq)(
                s, d=1.0 / s)
            if not nyquist and s % 2 == 0:
                m[s // 2] = 0.0
            shape = [1] * f.n
            shape[ax] = m.size
            out.append(m.reshape(shape) * 2 * math.pi / p)
        return out

    @functools.cached_property
    def xi(self):
        return self._frequencies(nyquist=False)

    @functools.cached_property
    def mag(self):
        return np.sqrt(sum(x**2 for x in self._frequencies(nyquist=True)))

    @functools.cached_property
    def radius(self):
        f = self.field
        grids = np.meshgrid(*f.axes(), indexing="ij", sparse=True)
        return np.sqrt(_periodic_dist2(grids, f.period, (0.0,) * f.n))

    def inverse(self, multiplier, buf=None):
        """The real field (shape + (dimV,)) whose half-spectrum is hat *
        multiplier, the multiplier (shape: the half grid's) acting on every
        component.  The product is formed in buf, or else in a fresh array,
        which the inverse consumes."""
        buf = np.multiply(self.hat, multiplier[..., None], out=buf)
        return ifft(buf, np.empty(self.field.values.shape))

    def derivative(self, axis, buf=None):
        """d/dx_axis of every component; buf as in inverse."""
        return self.inverse(1j * self.xi[axis], buf)


def gradient(f):
    """[d_1 f, ..., d_n f] of a scalar field as arrays, spectrally.  Vector
    fields go one component at a time: at 256^2 two scalar transforms take
    less than half the time of one two-component transform.  The last
    derivative's product overwrites the (local) transform."""
    rec = Spectrum(f)
    return [rec.derivative(axis, rec.hat if axis == f.n - 1 else None)[..., 0]
            for axis in range(f.n)]


def jacobian(u):
    """det Du of a 2-component field on a 2D grid."""
    (u1x, u1y), (u2x, u2y) = gradient(u.component(0)), gradient(u.component(1))
    return u1x * u2y - u1y * u2x


def _check_operator(sym, f):
    if f.dimV != sym.dimV:
        raise ValueError(f"field has dimV={f.dimV}, operator expects {sym.dimV}")
    if f.n != sym.n:
        raise ValueError(f"field dimension {f.n} != operator dimension {sym.n}")


def _apply_stack(A, fhat, l, f):
    """The field on f's grid with half-spectrum i^l A fhat; A is complex
    (it keeps einsum off its mixed-dtype path, at half the cost)."""
    Af = np.einsum("...ij,...j->...i", A, fhat)
    Af *= 1j**l
    return GridField(ifft(Af, np.empty(f.shape + Af.shape[-1:])), f.period)


def apply_symbol(sym, f):
    """A f computed spectrally: (Af)^(m) = A(i xi_m) fhat(m) = i^l A(xi_m) fhat(m)."""
    _check_operator(sym, f)
    rec = Spectrum(f)
    A = sym_mod.evaluate(sym, np.stack(np.broadcast_arrays(*rec.xi), axis=-1))
    return _apply_stack(A.astype(complex), rec.hat, sym.l, f)


def _band_coefficients(rng, dimV):
    """random_bandlimited's modes, in draw order, as an (M, 2) integer
    array, and its normals (a_m, b_m) / (1 + |m|^2), shape (dimV, M, 2)."""
    modes = np.array([(m1, m2) for m1 in range(0, BANDLIMIT + 1)
                      for m2 in range(-BANDLIMIT, BANDLIMIT + 1)
                      if m1 > 0 or m2 > 0])
    weights = 1.0 + np.sum(modes**2, axis=1)
    return modes, rng.normal(size=(dimV, len(modes), 2)) / weights[:, None]


def random_bandlimited(rng, shape, dimV, cutoff=False):
    """Smooth random field on the torus [0, 2 pi)^n, n = len(shape) >= 2.

    Each component is sum_m a_m cos(m.x) + b_m sin(m.x) over the half-plane
    modes 0 <= m1 <= BANDLIMIT, |m2| <= BANDLIMIT (m1 = 0 needs m2 > 0) in
    the first two coordinates, with (a_m, b_m) standard normal over
    (1 + |m|^2).  The normals are drawn component by component, mode by
    mode.  cutoff (2D shapes only) multiplies each component by a C^infty
    bump of radius pi/2 about the box centre (peak 1), which makes the field
    compactly supported inside the box.

    The sum is synthesised with one inverse transform: (a_m - i b_m)/2 goes
    to frequency m and its conjugate to -m, where either lands in the (N1,
    N2 // 2 + 1, dimV) half-spectrum (aliased modes add up as the cos/sin
    terms do), inverted over the first two axes.  The plane is then copied
    along any further axes, and the cut-off applied last.
    """
    shape = tuple(shape)
    if cutoff and len(shape) != 2:
        raise ValueError("the cut-off is defined on 2D grids only")
    period = 2 * math.pi
    modes, coef = _band_coefficients(rng, dimV)
    N1, N2 = shape[:2]
    # scaled by N1 N2 against the inverse transform's 1 / (N1 N2)
    amp = (coef[..., 0] - 1j * coef[..., 1]).T * (N1 * N2 / 2)
    half = np.zeros((N1, N2 // 2 + 1, dimV), dtype=complex)
    for m, a in ((modes, amp), (-modes, amp.conj())):
        kept = m[:, 1] % N2 <= N2 // 2
        np.add.at(half, (m[kept, 0] % N1, m[kept, 1] % N2), a[kept])
    values = ifft(half, np.empty((N1, N2, dimV)))
    if len(shape) > 2:
        values = np.broadcast_to(
            values.reshape((N1, N2) + (1,) * (len(shape) - 2) + (dimV,)),
            shape + (dimV,)).copy()
    if cutoff:
        c = period / 2
        X, Y = np.meshgrid(*(np.arange(s) * period / s for s in shape),
                           indexing="ij")
        r = np.hypot(X - c, Y - c)
        values *= (standard_bump(r / (period / 4))
                   / standard_bump(np.zeros(1))[0])[..., None]
    return GridField(values, (period,) * len(shape))


# ---------------------------------------------------------------------------
# TrigPoly
# ---------------------------------------------------------------------------

def _neg(m):
    return tuple(map(operator.neg, m))


def _check_hermitian(keys, rows, index):
    """Raise on the first key m, in order, whose conjugate frequency is
    missing or has conj(a_{-m}) != a_m beyond atol = 1e-12 (1 + max|a_m|).

    The closeness test is np.allclose(conj(a_{-m}), a_m, rtol=0, atol=...)
    evaluated for all rows at once (so NaN and inf amplitudes get the same
    decision as there, without its warning about a non-finite atol).
    """
    neg = np.array([index.get(_neg(m), -1) for m in keys], dtype=np.intp)
    missing = neg < 0
    x = np.conj(rows[neg])
    atol = 1e-12 * (1 + np.max(np.abs(rows), axis=1))
    with np.errstate(invalid="ignore"):
        close = ((np.abs(x - rows) <= atol[:, None]) & np.isfinite(rows)) | (x == rows)
    bad = missing | ~np.all(close, axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if missing[i]:
            raise ValueError(f"missing conjugate frequency {_neg(keys[i])} for {keys[i]}")
        raise ValueError(f"Hermitian symmetry violated at {keys[i]}")


@dataclass
class TrigPoly:
    """Sparse real trig polynomial sum_m a_m e^{i m . x} on [0, 2 pi)^n.

    terms maps integer frequency tuples to complex amplitude vectors;
    Hermitian symmetry terms[-m] = conj(terms[m]) is enforced on construction
    (real-valuedness).  Frequencies are exact Python integers.  Exactly-zero
    amplitudes are dropped and keys equal after int() are summed.
    """

    n: int
    dimV: int = 1
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = [tuple(map(int, m)) for m in self.terms]
        for m in keys:
            if len(m) != self.n:
                raise ValueError(f"frequency {m} has wrong length (n={self.n})")
        # stored amplitudes are 0 + a, so no component is a negative zero
        rows = np.array([np.asarray(a, dtype=complex).reshape(self.dimV)
                         for a in self.terms.values()],
                        dtype=complex).reshape(len(keys), self.dimV) + 0
        keep = np.any(rows != 0, axis=1)
        if not keep.all():
            rows = rows[keep]
            keys = list(itertools.compress(keys, keep))
        index = dict(zip(keys, range(len(keys))))
        if len(index) < len(keys):
            summed = {}
            for m, a in zip(keys, rows):
                summed[m] = summed[m] + a if m in summed else a
            keys = list(summed)
            rows = np.array(list(summed.values())).reshape(len(keys), self.dimV)
            index = dict(zip(keys, range(len(keys))))
        if keys:
            _check_hermitian(keys, rows, index)
        self.terms = dict(zip(keys, rows))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(n, value, dimV=None):
        value = np.atleast_1d(np.asarray(value, dtype=complex))
        dimV = dimV or value.size
        return TrigPoly(n=n, dimV=dimV, terms={(0,) * n: value})

    @staticmethod
    def zero(n, dimV=1):
        return TrigPoly(n=n, dimV=dimV, terms={})

    @staticmethod
    def wave(n, m, kind="cos", amplitude=1.0, phase_vector=None):
        """amplitude * cos(m.x) or sin(m.x), optionally vector-valued.

        phase_vector: amplitude vector (defaults to scalar [amplitude]).
        """
        m = tuple(int(x) for x in m)
        vec = np.atleast_1d(np.asarray(phase_vector if phase_vector is not None
                                       else [amplitude], dtype=complex))
        if phase_vector is not None:
            vec = vec * amplitude
        if kind == "cos":
            half = 0.5 * vec
            terms = {m: half, tuple(-x for x in m): np.conj(half)}
        elif kind == "sin":
            half = -0.5j * vec
            terms = {m: half, tuple(-x for x in m): np.conj(half)}
        else:
            raise ValueError("kind must be 'cos' or 'sin'")
        if all(x == 0 for x in m):
            terms = {m: vec if kind == "cos" else 0 * vec}
        return TrigPoly(n=n, dimV=vec.size, terms=terms)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TrigPoly.constant(self.n, [other] * self.dimV, self.dimV)
        if self.n != other.n or self.dimV != other.dimV:
            raise ValueError("shape mismatch in TrigPoly addition")
        terms = dict(self.terms)
        for m, amp in other.terms.items():
            cur = terms.get(m)
            terms[m] = amp if cur is None else cur + amp
        return TrigPoly(n=self.n, dimV=self.dimV, terms=terms)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            raise TypeError("use trig_product for polynomial products")
        return TrigPoly(n=self.n, dimV=self.dimV,
                        terms={m: scalar * a for m, a in self.terms.items()})

    __rmul__ = __mul__

    def component(self, i):
        return TrigPoly(n=self.n, dimV=1,
                        terms={m: a[i : i + 1] for m, a in self.terms.items()})

    def derivative(self, axis):
        """d / dx_axis, exact per mode."""
        terms = {m: 1j * m[axis] * a for m, a in self.terms.items() if m[axis]}
        return TrigPoly(n=self.n, dimV=self.dimV, terms=terms)

    def render(self, shape):
        """Sample on a grid (exact when frequencies are grid-resolvable).

        Conjugate pairs share one exponential: the phase of -m is exactly
        minus that of m, so conj(e^{i m.x}) equals a fresh e^{-i m.x} to the
        last bit (a zero imaginary part may differ in sign, which the real
        part kept here never shows).  The first key of a pair keeps its e
        until its mirror's turn, which conjugates it in place.  The terms
        are summed one at a time in the dict's key order (summing a pair
        first would move the last bits)."""
        shape = tuple(int(s) for s in shape)
        axes = [np.arange(s) * (2 * math.pi / s) for s in shape]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        out = np.zeros(shape + (self.dimV,), dtype=complex)
        waiting = {}  # mirror key -> the exponential it will conjugate
        for m, a in self.terms.items():
            e = waiting.pop(m, None)
            if e is None:
                phase = sum(mi * g for mi, g in zip(m, grids))
                e = np.multiply(1j, phase, dtype=complex)
                del phase
                np.exp(e, out=e)
                mirror = tuple(-mi for mi in m)
                if mirror != m and mirror in self.terms:
                    waiting[mirror] = e
            else:
                np.conjugate(e, out=e)
            out += e[..., None] * a
        return GridField(np.real(out))


def trig_product(a, b):
    """Exact product of scalar trig polynomials (sparse convolution)."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.dimV != 1 or b.dimV != 1:
        raise ValueError("trig_product multiplies scalar polynomials; "
                         "use .component() for vectors")
    if len(a.terms) * len(b.terms) > TRIG_TERM_CAP:
        raise OverflowError(f"product would touch {len(a.terms) * len(b.terms)}"
                            f" terms (cap {TRIG_TERM_CAP})")
    bs = [(m2, a2[0]) for m2, a2 in b.terms.items()]
    terms = {}
    for m1, a1 in a.terms.items():
        c1 = a1[0]
        for m2, c2 in bs:
            m = tuple(map(operator.add, m1, m2))
            terms[m] = terms.get(m, 0.0) + c1 * c2
    # the constructor drops the modes that cancel exactly
    return TrigPoly(n=a.n, dimV=1, terms=terms)


def trig_integral(a):
    """Exact integral over the box: volume x zero-frequency amplitude."""
    vol = (2 * math.pi) ** a.n
    zero = a.terms.get((0,) * a.n)
    if zero is None:
        return np.zeros(a.dimV)
    return np.real(zero) * vol


def trig_pair(a, b):
    """Exact integral of a b over the box for scalar trig polynomials:
    vol sum_m a_m b_{-m}, summed over the smaller dict.  Equal to
    trig_integral(trig_product(a, b))[0] without building the product."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.dimV != 1 or b.dimV != 1:
        raise ValueError("trig_pair pairs scalar polynomials")
    vol = (2 * math.pi) ** a.n
    if len(b.terms) < len(a.terms):
        a, b = b, a
    total = 0.0
    for m, am in a.terms.items():
        bm = b.terms.get(_neg(m))
        if bm is not None:
            total += am[0] * bm[0]
    return float(np.real(total) * vol)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _bump_of_square(s):
    """exp(-1/(1-s)), the bump at s = r^2 < 1, for an array or one float.
    Each step rebinds s, so an array argument (the only reference to it)
    is freed as the next one is made: one temporary at a time, as in one
    expression."""
    s = 1.0 - s
    s = -1.0 / s
    return np.exp(s)


def standard_bump(r):
    """C^infty bump exp(-1/(1-r^2)) on r < 1, vectorized; not normalized.
    bump_at is its route for one float."""
    r = np.asarray(r)
    out = np.zeros_like(r, dtype=float)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = _bump_of_square(r[inside] ** 2)
    return out


def bump_at(r):
    """standard_bump([r])[0] for one float r, bit for bit, with no array
    (quadrature integrands call it once per node)."""
    return _bump_of_square(r * r) if abs(r) < 1.0 else 0.0


def kernel_hat(rec, t):
    """The real half-spectrum of kernel_t(x) = t^{-n} standard_bump(|x|/t)
    on the grid of the Spectrum rec, read from its radius grid: the one
    construction of a mollifier's kernel.

    The sampled kernel is renormalized to exact unit discrete integral, so
    mass is preserved to round-off.  A radial kernel is even on the
    periodic grid, so its transform is real; only its real part is kept,
    as a contiguous array of the half grid's shape + (1,).  A scale outside
    (0, min period / 2] or below grid resolution raises."""
    f = rec.field
    if t <= 0 or t > min(f.period) / 2:
        raise ValueError("scale t must lie in (0, min period / 2]")
    ker = standard_bump(rec.radius / t)
    total = ker.sum() * f.cell_volume
    if total <= 0:
        raise ValueError("kernel support is below grid resolution")
    return fft(GridField((ker / total)[..., None], f.period)).real.copy()


def mollify_into(rec, khat, buf, out, rows):
    """f * kernel_t written into out and returned, f the field of the
    Spectrum rec and khat = kernel_hat(rec, t): one scale of a mollifier
    sweep.

    The product hat * khat * cell volume is formed in buf, whose inverse
    (ifft, cut to the first axis's rows `rows`) consumes it.  Every write
    goes through out=, so a sweep allocates nothing per scale, and sweeps
    with their own buf and out can run on separate threads over one rec
    and one kernel set.  out has the field's shape + (dimV,), with only
    those rows, which keep the bits of the whole grid's (see ifft)."""
    np.multiply(khat, rec.hat, out=buf)
    buf *= rec.field.cell_volume
    return ifft(buf, out, rows)


def mollified(f, ts):
    """Yield f * kernel_t for each scale t of ts, in order, where
    kernel_t(x) = t^{-n} standard_bump(|x|/t) (kernel_hat) and the
    convolution is periodic.

    f may be a Spectrum, whose hat and radius grid are then reused.  f and
    the kernel are real, so every product lives on the half-spectrum
    (fft).  One product buffer and one output array, allocated here, serve
    every scale (mollify_into); each yielded array (shape shape + (dimV,))
    is that output, which the next scale overwrites.  A bad scale raises
    when the sweep reaches it.
    """
    rec = Spectrum.of(f)
    buf = np.empty_like(rec.hat)
    vals = np.empty(rec.field.values.shape)
    for t in ts:
        mollify_into(rec, kernel_hat(rec, t), buf, vals, slice(None))
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        yield vals


def mollify(f, t):
    """f * standard_bump_t as a GridField: the one scale t of mollified."""
    rec = Spectrum.of(f)
    return GridField(next(mollified(rec, (t,))), rec.field.period)
