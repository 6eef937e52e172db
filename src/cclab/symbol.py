"""Symbols of l-homogeneous constant-coefficient operators.

An operator A = sum_{|alpha|=l} A_alpha d^alpha is represented by its
coefficient matrices.  The symbol A(xi) = sum A_alpha xi^alpha is an exact
polynomial, evaluated by `evaluate` on frequencies of shape (..., n) into
matrices of shape (..., dimW, dimV); every other module goes through it.
Its rank structure (constant rank) is certified by sampling the unit
sphere, and the frequency-wise projection P(xi) onto ker A(xi) is what the
Helmholtz decomposition consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OperatorSymbol",
    "RankReport",
    "evaluate",
    "constant_rank_check",
    "kernel_projection",
    "adjoint_symbol",
    "unit_sphere_points",
    "make_operator",
    "NAMED_OPERATORS",
]

DEFAULT_TOL_SV = 1e-8

def _check_multi_index(alpha, n, l):
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected n={n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has negative entries")
    if sum(alpha) != l:
        raise ValueError(f"multi-index {alpha} has order {sum(alpha)}, expected l={l}")
    return alpha


@dataclass(frozen=True)
class OperatorSymbol:
    """A = sum_{|alpha|=l} A_alpha d^alpha with dimW x dimV coefficient matrices."""

    n: int
    l: int
    dimV: int
    dimW: int
    # multi-index alpha (tuple of n ints >= 0, sum l) -> (dimW, dimV) array
    coeffs: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.n < 1 or self.l < 1 or self.dimV < 1 or self.dimW < 1:
            raise ValueError("n, l, dimV, dimW must be positive")
        clean = {}
        any_nonzero = False
        for alpha, mat in self.coeffs.items():
            alpha = _check_multi_index(alpha, self.n, self.l)
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (self.dimW, self.dimV):
                raise ValueError(
                    f"coefficient for {alpha} has shape {mat.shape}, "
                    f"expected ({self.dimW}, {self.dimV})"
                )
            clean[alpha] = mat
            any_nonzero = any_nonzero or np.any(mat != 0.0)
        if not any_nonzero:
            raise ValueError("operator must have at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", clean)


@dataclass(frozen=True)
class RankReport:
    rank: object  # int, or the string "non-constant"
    witness: object  # unit frequency where the rank deviates, or None
    samples: int
    tolSV: float

    @property
    def is_constant(self):
        return isinstance(self.rank, (int, np.integer))


def evaluate(sym, xi):
    """Exact polynomial evaluation A(xi) = sum A_alpha xi^alpha.

    xi has shape (..., n), one frequency per trailing row, real or complex;
    the result has shape (..., dimW, dimV), complex for complex xi.  Only
    the nonzero coefficient entries are added (for finite xi, the bits of
    the full sum), so the inner loops run over the frequency stack.
    """
    xi = np.asarray(xi)
    if xi.shape[-1:] != (sym.n,):
        raise ValueError(f"frequency has shape {xi.shape}, expected (..., {sym.n})")
    out = np.zeros(xi.shape[:-1] + (sym.dimW, sym.dimV),
                   dtype=xi.dtype if xi.dtype.kind == "c" else float)
    for alpha, mat in sym.coeffs.items():
        mono = 1.0
        for i, a in enumerate(alpha):
            if a:
                mono = mono * xi[..., i] ** a
        for (r, c), m in np.ndenumerate(mat):
            if m:
                out[..., r, c] += mono * m
    return out


def unit_sphere_points(n, count):
    """Deterministic low-discrepancy points on the unit sphere in R^n, as one
    (count, n) array (fewer rows where the design has fewer points).

    n=1: the two signs; n=2: golden-angle sequence on the circle;
    n=3: Fibonacci sphere lattice; n>=4: tensorized angle grid.
    """
    if count < 1:
        raise ValueError("need at least one sample point")
    if n == 1:
        return np.array([[1.0], [-1.0]])[: min(count, 2)]
    if n == 2:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        return np.array([
            [math.cos(2 * math.pi * k * golden), math.sin(2 * math.pi * k * golden)]
            for k in range(count)
        ])
    if n == 3:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        pts = []
        for k in range(count):
            z = 1.0 - 2.0 * (k + 0.5) / count
            r = math.sqrt(max(0.0, 1.0 - z * z))
            th = 2 * math.pi * k / golden
            pts.append([r * math.cos(th), r * math.sin(th), z])
        return np.array(pts)
    # tensorized angles for n >= 4
    per_axis = max(2, int(round(count ** (1.0 / (n - 1)))))
    grids = np.meshgrid(*[np.linspace(0.1, math.pi - 0.1, per_axis) for _ in range(n - 2)]
                        + [np.linspace(0.1, 2 * math.pi - 0.1, per_axis)], indexing="ij")
    pts = []
    for idx in np.ndindex(*grids[0].shape):
        angles = [g[idx] for g in grids]
        x = np.ones(n)
        for i, th in enumerate(angles):
            x[i] *= math.cos(th)
            x[i + 1 :] *= math.sin(th)
        x /= np.linalg.norm(x)
        pts.append(x)
    return np.array(pts[:count])


def constant_rank_check(sym, samples=1000, tolSV=DEFAULT_TOL_SV):
    """Numerical rank of A(xi) over a deterministic sphere sample.

    The rank at a point counts the singular values above tolSV times the
    largest; the witness is the first point whose rank differs from the
    first point's.  Certified only up to sampling (the report records the
    sample count).
    """
    pts = unit_sphere_points(sym.n, samples)
    sv = np.linalg.svd(evaluate(sym, pts), compute_uv=False)
    ranks = np.sum(sv > tolSV * sv[:, :1], axis=-1)
    [off] = np.nonzero(ranks != ranks[0])
    if off.size:
        return RankReport(rank="non-constant", witness=pts[off[0]],
                          samples=len(pts), tolSV=tolSV)
    return RankReport(rank=int(ranks[0]), witness=None, samples=len(pts),
                      tolSV=tolSV)


def kernel_projection(sym, xi, tolSV=DEFAULT_TOL_SV):
    """Orthogonal projection P(xi) = I - pinv(A(xi)) A(xi) onto ker A(xi).

    Zero-homogeneous in xi; xi = 0 is an error (callers assign the zero mode
    to the kernel part by convention, i.e. P(0) := identity).
    """
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        raise ValueError("kernel_projection is undefined at xi = 0; handle the mean separately")
    A = evaluate(sym, xi / np.linalg.norm(xi))
    sv_max = np.linalg.svd(A, compute_uv=False)[0] if min(A.shape) else 0.0
    if sv_max == 0.0:
        return np.eye(sym.dimV)
    Adag = np.linalg.pinv(A, rcond=tolSV)
    return np.eye(sym.dimV) - Adag @ A


def adjoint_symbol(sym):
    """Formal adjoint A* = sum (-1)^l A_alpha^T d^alpha.

    evaluate gives the bare polynomial; field.apply_symbol applies the i^l
    factor.  With it, A A* acts at frequency xi as
    i^l A(xi) i^l (-1)^l A(xi)^T = A(xi) A(xi)^T.
    """
    sign = (-1.0) ** sym.l
    coeffs = {alpha: sign * mat.T for alpha, mat in sym.coeffs.items()}
    return OperatorSymbol(
        n=sym.n, l=sym.l, dimV=sym.dimW, dimW=sym.dimV, coeffs=coeffs,
        name=(sym.name + "*") if sym.name else "",
    )


# ---------------------------------------------------------------------------
# named operators
# ---------------------------------------------------------------------------

def _e(n, i):
    alpha = [0] * n
    alpha[i] = 1
    return tuple(alpha)


def _div(n):
    # A(v) = sum_i d_i v_i, V = R^n, W = R
    coeffs = {}
    for i in range(n):
        m = np.zeros((1, n))
        m[0, i] = 1.0
        coeffs[_e(n, i)] = m
    return OperatorSymbol(n=n, l=1, dimV=n, dimW=1, coeffs=coeffs, name=f"div{n}")


def _curl2():
    # A(v) = d1 v2 - d2 v1 on planar vector fields
    return OperatorSymbol(
        n=2, l=1, dimV=2, dimW=1,
        coeffs={(1, 0): np.array([[0.0, 1.0]]), (0, 1): np.array([[-1.0, 0.0]])},
        name="curl2",
    )


def _divcurl2():
    # A(v, vt) = (div v, curl vt) on R^4 = (v1, v2, vt1, vt2)
    c = {
        (1, 0): np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]),
        (0, 1): np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]]),
    }
    return OperatorSymbol(n=2, l=1, dimV=4, dimW=2, coeffs=c, name="divcurl2")


def _grad(n):
    coeffs = {}
    for i in range(n):
        m = np.zeros((n, 1))
        m[i, 0] = 1.0
        coeffs[_e(n, i)] = m
    return OperatorSymbol(n=n, l=1, dimV=1, dimW=n, coeffs=coeffs, name=f"grad(n={n})")


def _curl_matrix(n):
    """Row-wise curl on n x n matrix fields (row-major flattening).

    ker A(xi) = {a (x) xi}: exactly the gradients among matrix fields.
    """
    rows = [(i, j) for i in range(n) for j in range(i + 1, n)]  # curl index pairs
    dimV = n * n
    dimW = n * len(rows)
    coeffs = {}
    for ax in range(n):
        m = np.zeros((dimW, dimV))
        w = 0
        for r in range(n):  # matrix row
            for (i, j) in rows:
                # (curl of row r)_{ij} = d_i V_{rj} - d_j V_{ri}
                if ax == i:
                    m[w, r * n + j] += 1.0
                if ax == j:
                    m[w, r * n + i] -= 1.0
                w += 1
        if np.any(m):
            coeffs[_e(n, ax)] = m
    return OperatorSymbol(n=n, l=1, dimV=dimV, dimW=dimW, coeffs=coeffs,
                          name=f"curl_matrix_n(n={n})")


NAMED_OPERATORS = {
    "div2": lambda n=2: _div(int(n)),
    "curl2": lambda n=2: _curl2(),
    "divcurl2": lambda n=2: _divcurl2(),
    "grad": lambda n=2: _grad(int(n)),
    "curl_matrix_n": lambda n=2: _curl_matrix(int(n)),
}


def make_operator(spec):
    """Build a named operator from a string like "divcurl2" or "grad:n=3"."""
    if isinstance(spec, OperatorSymbol):
        return spec
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in NAMED_OPERATORS:
        close = sorted(NAMED_OPERATORS, key=lambda k: _name_distance(name, k))[0]
        raise KeyError(f"unknown operator {name!r}; did you mean {close!r}?")
    kwargs = {}
    if rest:
        for part in rest.split(","):
            k, _, v = part.partition("=")
            kwargs[k.strip()] = float(v) if "." in v else int(v)
    return NAMED_OPERATORS[name](**kwargs)


def _name_distance(a, b):
    # tiny edit-distance-ish score for suggestions
    return abs(len(a) - len(b)) + sum(ca != cb for ca, cb in zip(a, b))

