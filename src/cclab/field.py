"""Periodic fields: dense grids with FFT calculus and sparse trig polynomials.

GridField holds samples of a vector-valued function on a uniform periodic
grid; all derivatives/multipliers act spectrally.  TrigPoly is a sparse
frequency -> amplitude map with exact product/integral arithmetic (frequencies
are Python integers, so constructions whose frequencies exceed any resolvable
grid remain exact).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import symbol as sym_mod

__all__ = [
    "GridField",
    "TrigPoly",
    "MultiplierSpec",
    "fft",
    "ifft",
    "apply_symbol",
    "apply_multiplier",
    "riesz_potential",
    "trig_product",
    "trig_integral",
    "trig_pair",
    "mollify",
    "standard_bump",
    "save_field",
    "load_field",
    "trigpoly_to_json",
    "trigpoly_from_json",
]

TRIG_TERM_CAP = 10**7


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

    @property
    def volume(self):
        return float(np.prod(self.period))

    def axes(self):
        """Per-axis coordinate arrays (grid points, left endpoints)."""
        return [np.arange(s) * (p / s) for s, p in zip(self.shape, self.period)]

    def meshgrid(self):
        return np.meshgrid(*self.axes(), indexing="ij")

    def component(self, i):
        return GridField(self.values[..., i : i + 1], self.period)

    def integral(self):
        """Vector of componentwise integrals over the box."""
        return self.values.reshape(-1, self.dimV).sum(axis=0) * self.cell_volume

    def lp_norm(self, p):
        if np.isinf(p):
            return float(np.max(np.abs(self.values)))
        return float((np.sum(np.abs(self.values) ** p) * self.cell_volume) ** (1.0 / p))

    def pointwise_norm(self):
        """Scalar GridField |f(x)| (euclidean over components)."""
        mag = np.sqrt(np.sum(self.values**2, axis=-1))[..., None]
        return GridField(mag, self.period)

    def map_values(self, fn):
        """New field fn(values); fn acts on the raw array."""
        return GridField(np.asarray(fn(self.values), dtype=float), self.period)

    @staticmethod
    def from_function(fn, shape, period=None, dimV=None):
        """Sample fn(X1, ..., Xn) -> array broadcast over the grid.

        fn gets meshgrid coordinate arrays; result may have a trailing
        component axis or be scalar-shaped (then dimV=1).
        """
        shape = tuple(int(s) for s in shape)
        n = len(shape)
        period = period or (2 * math.pi,) * n
        if np.isscalar(period):
            period = (float(period),) * n
        axes = [np.arange(s) * (p / s) for s, p in zip(shape, period)]
        grids = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(fn(*grids), dtype=float)
        if vals.shape == shape:
            vals = vals[..., None]
        return GridField(vals, tuple(period))


def freq_indices(shape):
    """Integer frequency index arrays m_i (numpy fft layout) for each axis."""
    return [np.fft.fftfreq(s, d=1.0 / s) for s in shape]


def xi_grids(f):
    """Real frequency arrays xi_i = 2 pi m_i / period_i, meshgridded."""
    ms = freq_indices(f.shape)
    xs = [2 * math.pi * m / p for m, p in zip(ms, f.period)]
    return np.meshgrid(*xs, indexing="ij")


def fft(f):
    """Forward FFT over the space axes; returns complex array, same layout."""
    return np.fft.fftn(f.values, axes=tuple(range(f.n)))


def ifft(fhat, period=()):
    """Inverse of fft; imaginary round-off is discarded."""
    vals = np.fft.ifftn(fhat, axes=tuple(range(fhat.ndim - 1)))
    return GridField(np.real(vals), period)


def apply_symbol(sym, f):
    """A f computed spectrally: (Af)^(m) = A(i xi_m) fhat(m) = i^l A(xi_m) fhat(m)."""
    if f.dimV != sym.dimV:
        raise ValueError(f"field has dimV={f.dimV}, operator expects {sym.dimV}")
    if f.n != sym.n:
        raise ValueError(f"field dimension {f.n} != operator dimension {sym.n}")
    fhat = fft(f)
    xis = xi_grids(f)
    out = np.zeros(f.shape + (sym.dimW,), dtype=complex)
    il = 1j**sym.l
    for alpha, mat in sym.coeffs.items():
        mono = np.ones(f.shape)
        for a, xi in zip(alpha, xis):
            if a:
                mono = mono * xi**a
        out += (il * mono)[..., None] * (fhat @ mat.T)
    return ifft(out, f.period)


@dataclass(frozen=True)
class MultiplierSpec:
    """Frequency multiplier m(xi): either matrix-valued per frequency or a
    vectorized scalar function of the xi arrays.

    func: for scalar=True, callable(list of xi meshgrids) -> real/complex array;
          otherwise callable(xi vector) -> (dimOut, dimIn) matrix.
    zero_value: explicit value at xi = 0 (scalar or matrix).
    degree: homogeneity metadata (informational).
    """

    func: object
    zero_value: object = 0.0
    degree: float = 0.0
    scalar: bool = True

    def __call__(self, arg):
        return self.func(arg)


def apply_multiplier(mult, f):
    """Frequency-wise multiplication with the declared zero-frequency value."""
    fhat = fft(f)
    xis = xi_grids(f)
    zero_idx = (0,) * f.n
    if mult.scalar:
        vals = np.asarray(mult.func(xis))
        vals = np.array(vals, dtype=complex, copy=True)
        vals[zero_idx] = mult.zero_value
        if not np.all(np.isfinite(vals)):
            raise ValueError("multiplier is non-finite at a needed frequency")
        out = vals[..., None] * fhat
    else:
        flat_xi = np.stack([x.ravel() for x in xis], axis=-1)
        nfreq = flat_xi.shape[0]
        fhat_flat = fhat.reshape(nfreq, f.dimV)
        probe = np.asarray(mult.func(flat_xi[1] if nfreq > 1 else flat_xi[0]))
        dim_out = probe.shape[0]
        out_flat = np.empty((nfreq, dim_out), dtype=complex)
        for k in range(nfreq):
            if not np.any(flat_xi[k]):
                m = np.asarray(mult.zero_value, dtype=complex)
                if m.ndim == 0:
                    m = m * np.eye(dim_out, f.dimV)
            else:
                m = np.asarray(mult.func(flat_xi[k]))
            if not np.all(np.isfinite(m)):
                raise ValueError("multiplier is non-finite at a needed frequency")
            out_flat[k] = m @ fhat_flat[k]
        out = out_flat.reshape(f.shape + (dim_out,))
    return ifft(out, f.period)


def riesz_potential(order):
    """MultiplierSpec for |xi|^{-order} (zero mode mapped to 0)."""
    def func(xis):
        mag = np.sqrt(sum(x**2 for x in xis))
        with np.errstate(divide="ignore"):
            out = np.where(mag > 0, mag ** (-float(order)), 0.0)
        return out
    return MultiplierSpec(func=func, zero_value=0.0, degree=-float(order), scalar=True)


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
    """Sparse real trig polynomial sum_m a_m e^{i m . x 2pi/period}.

    terms maps integer frequency tuples to complex amplitude vectors;
    Hermitian symmetry terms[-m] = conj(terms[m]) is enforced on construction
    (real-valuedness).  Frequencies are exact Python integers.  Exactly-zero
    amplitudes are dropped and keys equal after int() are summed.
    """

    n: int
    dimV: int = 1
    terms: dict = field(default_factory=dict)
    period: float = 2 * math.pi

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
    def constant(n, value, dimV=None, period=2 * math.pi):
        value = np.atleast_1d(np.asarray(value, dtype=complex))
        dimV = dimV or value.size
        return TrigPoly(n=n, dimV=dimV, terms={(0,) * n: value}, period=period)

    @staticmethod
    def zero(n, dimV=1, period=2 * math.pi):
        return TrigPoly(n=n, dimV=dimV, terms={}, period=period)

    @staticmethod
    def wave(n, m, kind="cos", amplitude=1.0, phase_vector=None, period=2 * math.pi):
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
        return TrigPoly(n=n, dimV=vec.size, terms=terms, period=period)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TrigPoly.constant(self.n, [other] * self.dimV, self.dimV, self.period)
        if self.n != other.n or self.dimV != other.dimV:
            raise ValueError("shape mismatch in TrigPoly addition")
        terms = dict(self.terms)
        for m, amp in other.terms.items():
            cur = terms.get(m)
            terms[m] = amp if cur is None else cur + amp
        return TrigPoly(n=self.n, dimV=self.dimV, terms=terms, period=self.period)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            raise TypeError("use trig_product for polynomial products")
        return TrigPoly(n=self.n, dimV=self.dimV,
                        terms={m: scalar * a for m, a in self.terms.items()},
                        period=self.period)

    __rmul__ = __mul__

    def component(self, i):
        return TrigPoly(n=self.n, dimV=1,
                        terms={m: a[i : i + 1] for m, a in self.terms.items()},
                        period=self.period)

    @staticmethod
    def stack(components):
        """Combine scalar TrigPolys into one vector-valued TrigPoly."""
        n, period = components[0].n, components[0].period
        dimV = len(components)
        terms = {}
        for i, c in enumerate(components):
            if c.dimV != 1:
                raise ValueError("stack expects scalar components")
            for m, a in c.terms.items():
                vec = terms.setdefault(m, np.zeros(dimV, dtype=complex))
                vec[i] += a[0]
        return TrigPoly(n=n, dimV=dimV, terms=terms, period=period)

    def derivative(self, axis, order=1):
        """d^order / dx_axis^order, exact per mode."""
        scale = 2 * math.pi / self.period
        terms = {}
        for m, a in self.terms.items():
            factor = (1j * m[axis] * scale) ** order
            if factor != 0:
                terms[m] = factor * a
        return TrigPoly(n=self.n, dimV=self.dimV, terms=terms, period=self.period)

    def apply_symbol(self, sym):
        """A f per mode (exact); operator acts on the component vector."""
        if sym.dimV != self.dimV or sym.n != self.n:
            raise ValueError("operator/field shape mismatch")
        scale = 2 * math.pi / self.period
        il = 1j**sym.l
        terms = {}
        for m, a in self.terms.items():
            xi = np.array(m, dtype=float) * scale
            mat = sym_mod.evaluate(sym, xi)
            amp = il * (mat @ a)
            if np.any(amp != 0):
                terms[m] = terms.get(m, 0) + amp
        return TrigPoly(n=self.n, dimV=sym.dimW, terms=terms, period=self.period)

    def render(self, shape):
        """Sample on a grid (exact when frequencies are grid-resolvable)."""
        shape = tuple(int(s) for s in shape)
        axes = [np.arange(s) * (self.period / s) for s in shape]
        grids = np.meshgrid(*axes, indexing="ij")
        scale = 2 * math.pi / self.period
        out = np.zeros(shape + (self.dimV,), dtype=complex)
        for m, a in self.terms.items():
            phase = sum(mi * g for mi, g in zip(m, grids)) * scale
            out += np.exp(1j * phase)[..., None] * a
        return GridField(np.real(out), (self.period,) * self.n)


def trig_product(a, b, cap=TRIG_TERM_CAP):
    """Exact product of scalar trig polynomials (sparse convolution)."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.dimV != 1 or b.dimV != 1:
        raise ValueError("trig_product multiplies scalar polynomials; "
                         "use .component() / dot helpers for vectors")
    if len(a.terms) * len(b.terms) > cap:
        raise OverflowError(
            f"product would touch {len(a.terms) * len(b.terms)} terms (cap {cap})")
    bs = [(m2, a2[0]) for m2, a2 in b.terms.items()]
    terms = {}
    for m1, a1 in a.terms.items():
        c1 = a1[0]
        for m2, c2 in bs:
            m = tuple(map(operator.add, m1, m2))
            terms[m] = terms.get(m, 0.0) + c1 * c2
    # the constructor drops the modes that cancel exactly
    return TrigPoly(n=a.n, dimV=1, terms=terms, period=a.period)


def trig_dot(a, b, cap=TRIG_TERM_CAP):
    """Exact pointwise dot product of two vector TrigPolys (scalar result)."""
    if a.dimV != b.dimV:
        raise ValueError("dimension mismatch")
    out = TrigPoly.zero(a.n, 1, a.period)
    for i in range(a.dimV):
        out = out + trig_product(a.component(i), b.component(i), cap)
    return out


def trig_integral(a):
    """Exact integral over the box: volume x zero-frequency amplitude."""
    vol = a.period**a.n
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
    vol = a.period**a.n
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

def standard_bump(r):
    """C^infty bump exp(-1/(1-r^2)) on r < 1, vectorized; not normalized."""
    r = np.asarray(r)
    out = np.zeros_like(r, dtype=float)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


def mollify(f, t, kernel=standard_bump):
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_field(f, path_prefix):
    """Write <prefix>.dat (little-endian f64, row-major) + <prefix>.json sidecar."""
    data = np.ascontiguousarray(f.values, dtype="<f8")
    with open(str(path_prefix) + ".dat", "wb") as fh:
        fh.write(data.tobytes())
    sidecar = {"n": f.n, "shape": list(f.shape), "period": list(f.period),
               "dimV": f.dimV}
    with open(str(path_prefix) + ".json", "w") as fh:
        json.dump(sidecar, fh)


def load_field(path_prefix):
    with open(str(path_prefix) + ".json") as fh:
        sidecar = json.load(fh)
    shape = tuple(sidecar["shape"]) + (sidecar["dimV"],)
    raw = np.fromfile(str(path_prefix) + ".dat", dtype="<f8").reshape(shape)
    return GridField(raw.astype(float), tuple(sidecar["period"]))


def trigpoly_to_json(a):
    return json.dumps([
        {"m": list(m), "re": np.real(amp).tolist(), "im": np.imag(amp).tolist()}
        for m, amp in sorted(a.terms.items())
    ])


def trigpoly_from_json(text, n=None, dimV=None, period=2 * math.pi):
    doc = json.loads(text)
    terms = {}
    for entry in doc:
        m = tuple(entry["m"])
        amp = np.array(entry["re"], dtype=float) + 1j * np.array(entry["im"], dtype=float)
        terms[m] = amp
    if not terms and (n is None or dimV is None):
        raise ValueError("empty serialization needs explicit n, dimV")
    some = next(iter(terms)) if terms else None
    n = n if n is not None else len(some)
    dimV = dimV if dimV is not None else terms[some].size
    return TrigPoly(n=n, dimV=dimV, terms=terms, period=period)
