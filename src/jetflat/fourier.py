"""Truncated Fourier models of smooth functions on the circle and 2-torus.

A function is stored as its real coefficients against the axis basis
(cos 2 pi k q, sin 2 pi k q), k = 0..D, in every axis, so every represented
function is real, exactly 1-periodic in each coordinate, and differentiable
term by term.  Every kernel (scan, Newton, evaluation at points) reads that
one array, ``FourierFunction.coeffs``.  The truncation degree bounds the
oscillation: a circle scan takes 64 points per degree, and Bernstein's
coefficient bounds on f', f'' and f''' (_bounds) certify what lies between
its points, so the extrema and critical sets found by scan plus Newton do
not rest on the density of the scan alone.  A batch costs what its scans
cost: circle functions are scanned in stacks of one highest frequency,
sized by their CIRCLE_STACK scan values rather than by a count, and its
critical sets are assembled in array passes.

Coordinates live on [0, 1) with period 1 in every axis.  All values are
immutable after construction and every operation here is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .config import (
    DEFAULT_TORUS_SCAN,
    EQUALITY_TOL,
    NEWTON_MAX_ITER,
    NEWTON_RESIDUAL,
    PLATEAU_FRACTION,
    POINT_CLUSTER_TOL,
)
from .errors import DimensionMismatch, ViolationReport

TWO_PI = 2.0 * np.pi

# OpenBLAS runs a product of fewer than 2 * 2^18 multiply-adds on the calling
# thread, whatever the core count: the most a scan gives one BLAS call.
BLAS_CALL = 1 << 18
# A stack of circle functions of one degree holds at most this many scan
# values, 2 rows (f, f') of n points per function: 0.5 MB, 512 functions at
# degree 1 and 8 at degree 64.  Each stack is one product, reduced before the
# next is scanned.
CIRCLE_STACK = 1 << 16
# A circle scan of degree D takes the smallest power of two of at least
# this many points times max(D, 1) (_circle_size).
CIRCLE_POINTS_PER_DEGREE = 64
# A circle cell that may hold two roots of f' is sampled again at this many
# sub-cells, level by level (_circle_seeds).
SUBCELLS = 16


@dataclass(frozen=True)
class DomainDescriptor:
    """Closed manifold the functions live on: S1 or the 2-torus.

    Coordinates are taken mod 1; the period is exactly 1 in every axis.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("S1", "T2"):
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def ndim(self) -> int:
        return 1 if self.kind == "S1" else 2


CIRCLE = DomainDescriptor("S1")
TORUS2 = DomainDescriptor("T2")


class FourierFunction:
    """Real-valued truncated Fourier series on S1 or T2.

    The circle series of degree D is
        f(q) = a0 + sum_{k=1..D} a_k cos(2 pi k q) + b_k sin(2 pi k q)
    stored against the axis basis (cos 2 pi k q, sin 2 pi k q), k = 0..D,
    as coeffs of shape (2, D+1): (a0, a_1..a_D) over (0, b_1..b_D).  The
    torus series is stored with shape (2, D+1, 2, D+1): entry [i, k1, j, k2]
    multiplies basis i of the first axis at k1 times basis j of the second
    at k2, so the blocks [0, :, 0], [0, :, 1], [1, :, 0], [1, :, 1] are cc,
    cs, sc, ss with the mean at [0, 0, 0, 0].  The sin 0 slots are zeroed
    at construction.  d/dq takes the (cos, sin) pair of frequency k to
    2 pi k (sin, -cos), so derivatives are exact; no finite differences
    appear anywhere.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: DomainDescriptor, coeffs) -> None:
        c = np.asarray(coeffs)
        if c.dtype.kind not in "iuf":
            raise TypeError(f"coefficients must be real numbers, got dtype {c.dtype}")
        c = np.array(c, dtype=float, order="C")  # a copy of its own
        if c.ndim != 2 * domain.ndim:
            raise DimensionMismatch(
                f"coefficient array of rank {c.ndim} for domain {domain.kind}"
            )
        if c.shape != (2, c.shape[1]) * domain.ndim or c.shape[1] == 0:
            raise ValueError("coefficient arrays must have shape (2, D+1) per axis, one D for all axes")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c[1, 0] = 0.0  # sin 0 of the first axis
        if domain.ndim == 2:
            c[:, :, 1, 0] = 0.0  # and of the second
        c.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("FourierFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain: DomainDescriptor = CIRCLE) -> "FourierFunction":
        return cls.constant(0.0, domain)

    @classmethod
    def constant(cls, value: float, domain: DomainDescriptor = CIRCLE) -> "FourierFunction":
        c = np.zeros((2, 1) * domain.ndim)
        c.flat[0] = value
        return cls(domain, c)

    @classmethod
    def from_circle_coeffs(cls, a0: float, cos: Sequence[float] = (), sin: Sequence[float] = ()) -> "FourierFunction":
        a = np.asarray(cos, dtype=float)
        b = np.asarray(sin, dtype=float)
        c = np.zeros((2, max(len(a), len(b)) + 1))  # the shorter list is zero-padded
        c[0, 0] = a0
        c[0, 1 : len(a) + 1] = a
        c[1, 1 : len(b) + 1] = b
        return cls(CIRCLE, c)

    @classmethod
    def from_torus_coeffs(cls, a0, cc, cs=None, sc=None, ss=None) -> "FourierFunction":
        cc = np.atleast_2d(np.asarray(cc, dtype=float))
        n = cc.shape[0]
        if cc.shape != (n, n):
            raise ValueError("cc block must be square")
        cs, sc, ss = (np.zeros((n, n)) if b is None else np.asarray(b, dtype=float) for b in (cs, sc, ss))
        if not cs.shape == sc.shape == ss.shape == (n, n):
            raise ValueError("cs/sc/ss blocks must match the cc shape")
        c = np.stack([cc, cs, sc, ss]).reshape(2, 2, n, n).swapaxes(1, 2)
        c[0, 0, 0, 0] = float(a0) + float(cc[0, 0])  # fold any constant stored in cc
        return cls(TORUS2, c)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def mean_value(self) -> float:
        return float(self.coeffs.flat[0])

    def circle_cos_sin(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Real (a0, cos, sin) coefficient view; circle functions only."""
        if self.domain.kind != "S1":
            raise DimensionMismatch("circle_cos_sin on a torus function")
        c = self.coeffs
        return float(c[0, 0]), c[0, 1:], c[1, 1:]

    def torus_blocks(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Real (a0, cc, cs, sc, ss) blocks of shape (D+1, D+1), with the mean in a0 only."""
        if self.domain.kind != "T2":
            raise DimensionMismatch("torus_blocks on a circle function")
        blocks = self.coeffs.swapaxes(1, 2).reshape(4, self.degree + 1, -1).copy()
        blocks[0, 0, 0] = 0.0
        return (self.mean_value, *blocks)

    def pad_to_degree(self, d: int) -> "FourierFunction":
        cur = self.degree
        if d < cur:
            raise ValueError("cannot pad to a smaller degree")
        if d == cur:
            return self
        pad = ((0, 0), (0, d - cur)) * self.domain.ndim
        return FourierFunction(self.domain, np.pad(self.coeffs, pad))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FourierFunction):
            return NotImplemented
        if self.domain != other.domain:
            return False
        d = max(self.degree, other.degree)
        a = self.pad_to_degree(d).coeffs
        b = other.pad_to_degree(d).coeffs
        return bool(np.array_equal(a, b))

    __hash__ = None

    def __repr__(self) -> str:
        return f"FourierFunction({self.domain.kind}, degree={self.degree})"

    # -- arithmetic (exact on coefficients) --------------------------------

    def _binary(self, other, op):
        if isinstance(other, FourierFunction):
            if other.domain != self.domain:
                raise DimensionMismatch("domain mismatch in arithmetic")
            d = max(self.degree, other.degree)
            return FourierFunction(
                self.domain, op(self.pad_to_degree(d).coeffs, other.pad_to_degree(d).coeffs)
            )
        if isinstance(other, (int, float, np.integer, np.floating)):
            c = np.array(self.coeffs)
            c.flat[0] = op(c.flat[0], float(other))
            return FourierFunction(self.domain, c)
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda x, y: x - y)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FourierFunction(self.domain, -self.coeffs)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, np.integer, np.floating)):
            return NotImplemented
        return FourierFunction(self.domain, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def multiply(self, other: "FourierFunction") -> "FourierFunction":
        """Exact series product; the degree adds (used by oracle code paths)."""
        if other.domain != self.domain:
            raise DimensionMismatch("domain mismatch in multiply")
        t = _product_table(self.degree, other.degree)
        if self.domain.kind == "S1":
            c = np.einsum("ik,jl,ikjlmn->mn", self.coeffs, other.coeffs, t)
        else:
            c = np.einsum("ikIK,jlJL,ikjlmn,IKJLMN->mnMN", self.coeffs, other.coeffs, t, t, optimize=True)
        return FourierFunction(self.domain, c)

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int = 0) -> "FourierFunction":
        """Analytic partial derivative along the given coordinate axis."""
        if not 0 <= axis < self.domain.ndim:
            raise DimensionMismatch(f"axis {axis} for domain {self.domain.kind}")
        return FourierFunction(self.domain, _derivative_stack(self.coeffs[None])[0, 1 + axis])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """f at x: on S1 a scalar or 1-d array, taken mod 1; on T2 shape (2,) or (m, 2).

        Each S1 value is one _series_at sum in order of k, so a point has the
        same bits alone, in an array of any length and for a zero-padded f.
        """
        if self.domain.kind == "S1":
            xs = np.asarray(x, dtype=float)
            if xs.ndim > 1:
                raise DimensionMismatch("circle points must be scalars or 1-d arrays")
            vals = _series_at(self.coeffs[None], np.mod(xs, 1.0))
            return float(vals[0]) if xs.ndim == 0 else vals
        pts = np.asarray(x, dtype=float)
        if pts.shape == (2,):
            return float(_torus_at(self.coeffs[None], pts[None, :])[0, 0])
        if pts.ndim == 2 and pts.shape[1] == 2:
            return _torus_at(self.coeffs[None], pts)[:, 0]
        raise DimensionMismatch("torus points must have shape (2,) or (m, 2)")

    def values_on_grid(self, n: int) -> np.ndarray:
        """Value, gradient and Hessian grids at the uniform grid (i/n), stacked on a new leading axis.

        f, f', f'' on S1, shape (3, n), from the product of the circle scans
        (_circle_scans), which take f and f' only.  f, f_1, f_2, f_11, f_12,
        f_22 on T2, shape
        (6, n, n).  Each grid is one coefficient array of the real
        derivative stack against one cached basis table B: B v on S1 and
        B V B^T on T2, each product one stacked matmul over blocks of at
        most BLAS_CALL multiply-adds (_block), so it stays on this thread.
        """
        stack = _derivative_stack(self.coeffs[None])
        if self.domain.kind == "S1":
            return _circle_scans(stack, n)[0]
        b = _grid_basis(n, self.degree)
        k = b.shape[1]
        stack = stack[0]
        # B V for all six V in row blocks of B, then row blocks of the (6n, 2(D+1)) B V times B^T
        r = _block(n, k * k)
        bv = np.empty((6, n, k))
        np.matmul(b.reshape(-1, 1, r, k), stack.reshape(6, k, k), out=bv.reshape(6, -1, r, k).swapaxes(0, 1))
        return np.matmul(bv.reshape(-1, _block(6 * n, k * n), k), b.T).reshape(6, n, n)


def _circle_scans(stack: np.ndarray, n: int) -> np.ndarray:
    """The s series of every circle function of a stack (m, s, 2, D+1) at the grid i/n, shape (m, s, n).

    The series are rows of a derivative stack: f, f' for a scan, f, f', f''
    for values_on_grid.  One (sm, 2(D+1)) @ (2(D+1), n) product against the
    cached basis table, in column blocks of B^T of at most BLAS_CALL
    multiply-adds (_block).
    """
    b = _grid_basis(n, stack.shape[-1] - 1)
    rows, k = stack.shape[1] * len(stack), b.shape[1]
    c = _block(n, rows * k)
    out = np.empty(stack.shape[:2] + (n,))
    np.matmul(stack.reshape(rows, k), b.reshape(-1, c, k).swapaxes(1, 2), out=out.reshape(rows, -1, c).swapaxes(0, 1))
    return out


def _block(size: int, per_item: int) -> int:
    """The largest power of two dividing size with block * per_item <= BLAS_CALL, or 1."""
    block = size & -size
    while block > 1 and block * per_item > BLAS_CALL:
        block //= 2
    return block


def _basis(degree: int, x: np.ndarray) -> np.ndarray:
    """The real axis basis (cos 2 pi k x, sin 2 pi k x), k = 0..D, at every x: shape x.shape + (2, D+1)."""
    ang = x[..., None] * (TWO_PI * np.arange(degree + 1))
    b = np.empty(x.shape + (2, degree + 1))
    np.cos(ang, out=b[..., 0, :])
    np.sin(ang, out=b[..., 1, :])
    return b


@lru_cache(maxsize=64)
def _grid_basis(n: int, degree: int) -> np.ndarray:
    """The axis basis at the grid points i/n, flattened to rows of the coeffs layout: shape (n, 2(D+1))."""
    b = _basis(degree, grid_points(n)).reshape(n, -1)
    b.flags.writeable = False
    return b


@lru_cache(maxsize=64)
def _product_table(d1: int, d2: int) -> np.ndarray:
    """T with e_ik e_jl = sum_mn T[i, k, j, l, m, n] e_mn, shape (2, d1+1, 2, d2+1, 2, d1+d2+1).

    e_0k = cos 2 pi k q and e_1k = sin 2 pi k q are the axis basis; the
    product formulas take frequencies k, l to k + l and |k - l|, and
    sin 2 pi (k - l) q = sign(k - l) sin 2 pi |k - l| q.
    """
    k, l = np.meshgrid(np.arange(d1 + 1), np.arange(d2 + 1), indexing="ij")
    hi, lo, sg = k + l, np.abs(k - l), 0.5 * np.sign(k - l)
    t = np.zeros((2, d1 + 1, 2, d2 + 1, 2, d1 + d2 + 1))
    for i, j, m, n, w in (
        (0, 0, 0, hi, 0.5), (0, 0, 0, lo, 0.5),  # cos cos
        (1, 1, 0, lo, 0.5), (1, 1, 0, hi, -0.5),  # sin sin
        (1, 0, 1, hi, 0.5), (1, 0, 1, lo, sg),  # sin cos
        (0, 1, 1, hi, 0.5), (0, 1, 1, lo, -sg),  # cos sin
    ):
        np.add.at(t, (i, k, j, l, m, n), w)
    t[..., 1, 0] = 0.0  # sin 0
    t.flags.writeable = False
    return t


def _derivative_stack(r: np.ndarray) -> np.ndarray:
    """Real coefficients of f, f', f'' (S1) or f, f_1, f_2, f_11, f_12, f_22 (T2) for each f in r.

    r holds coeffs arrays, (m, 2, K) on S1 or (m, 2, K, 2, K) on T2;
    the result has the new axis after m.  d/dq takes the (cos, sin) pair
    of frequency k to 2 pi k (sin, -cos), so coefficients (a, b) go to
    2 pi k (b, -a), the pair reversed times (w, -w), and d^2/dq^2
    multiplies them by -(2 pi k)^2.
    """
    w = TWO_PI * np.arange(r.shape[-1])
    turn = np.array([w, -w])  # d/dq along the last axis, on the reversed pair
    bend = -(w * w)  # d^2/dq^2 along the last axis
    out = np.empty((len(r), 3 if r.ndim == 3 else 6) + r.shape[1:])
    out[:, 0] = r
    if r.ndim == 3:
        np.multiply(r[:, ::-1], turn, out=out[:, 1])
        np.multiply(r, bend, out=out[:, 2])
        return out
    np.multiply(r[:, ::-1], turn[:, :, None, None], out=out[:, 1])
    np.multiply(r[..., ::-1, :], turn, out=out[:, 2])
    np.multiply(r, bend[:, None, None], out=out[:, 3])
    np.multiply(out[:, 1, ..., ::-1, :], turn, out=out[:, 4])  # f_12 = d_2 f_1
    np.multiply(r, bend, out=out[:, 5])
    return out


def _padded(fs: Sequence[FourierFunction]) -> np.ndarray:
    """The coeffs arrays of functions of one domain, zero-padded to their top degree D and stacked.

    Shape (m, 2, D+1) on S1 and (m, 2, D+1, 2, D+1) on T2; functions of one
    degree are stacked as they are.
    """
    ndim = fs[0].domain.ndim
    d = max(f.degree for f in fs)
    if all(f.degree == d for f in fs):
        return np.array([f.coeffs for f in fs])
    r = np.zeros((len(fs),) + (2, d + 1) * ndim)
    for row, f in zip(r, fs):
        row[(slice(None), slice(f.degree + 1)) * ndim] = f.coeffs
    return r


def _stacks(fs: Sequence[FourierFunction]) -> np.ndarray:
    """Derivative stacks of functions of one domain, zero-padded to their top degree D.

    Shape (m, 3, 2, D+1) on S1 and (m, 6, 2, D+1, 2, D+1) on T2.
    """
    return _derivative_stack(_padded(fs))


def _torus_at(stack: np.ndarray, pts: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
    """The torus series stack[..., s, :, :, :, :] at each point of pts (m, 2), shape (m, s).

    stack holds coeffs arrays, one stack per point, (m, s, 2, K, 2,
    K), or one for all points, (s, 2, K, 2, K); with owner, one stack per
    function, point i reading stack[owner[i]], each function's points at
    once and without a copy of its stack.  The unoptimized einsum adds the
    terms one at a time in index order, so zero padding adds exact zeros
    and a padded stack gives the same bits.
    """
    if owner is not None:
        out = np.empty((len(pts), stack.shape[1]))
        for o in np.unique(owner).tolist():
            at = owner == o
            out[at] = _torus_at(stack[o], pts[at])
        return out
    k = stack.shape[-1]
    b = _basis(k - 1, np.mod(pts, 1.0)).reshape(len(pts), 2, 2 * k)
    stack = stack.reshape(stack.shape[:-4] + (2 * k, 2 * k))
    stack = np.broadcast_to(stack, (len(pts),) + stack.shape[-3:])
    return np.einsum("mi,msij,mj->ms", b[:, 0], stack, b[:, 1])


def grid_points(n: int) -> np.ndarray:
    return np.arange(n) / n


# ---------------------------------------------------------------------------
# extrema / critical sets: reductions over one scan per query
# ---------------------------------------------------------------------------

Mode = Literal["max", "min"]


class Extremum(NamedTuple):
    value: float
    point: tuple[float, ...]


class Extrema(NamedTuple):
    """Both signed extrema of f with their refined attaining points.

    Points come back sorted lexicographically, canonicalized to [0, 1); f
    rides along so that callers can evaluate candidates against it.
    """

    f: FourierFunction
    vmax: float
    vmin: float
    max_points: np.ndarray
    min_points: np.ndarray

    @property
    def norm(self) -> float:
        return max(self.vmax, -self.vmin)


@dataclass(frozen=True)
class CriticalSet:
    """Refined critical points and clustered critical values.

    points hold coordinates with |grad f| at or below point_tolerance, the
    scan's Newton residual; values are f at those points, clustered at the
    clustering tolerance and ascending (a constant reports its record's
    extrema).  plateau flags a non-isolated critical locus (reported once
    through its value).
    extrema is the record of f at tol from the same scan: attaining_set's,
    read on S1 from the rows of the critical points, so a flat extremum
    keeps one point per run of cells that meet the residual, not per seed.
    """

    points: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    tolerance: float
    point_tolerance: float
    extrema: Extrema = field(compare=False, repr=False)
    plateau: bool = False


def _circle_size(degree: int) -> int:
    """The circle scan size of degree D: the smallest power of two of at least 64 max(D, 1) points."""
    return 1 << (CIRCLE_POINTS_PER_DEGREE * max(degree, 1) - 1).bit_length()


def _bounds(c: np.ndarray) -> np.ndarray:
    """Bernstein's bounds M_j = sum_k (2 pi k)^j r_k >= max|f^(j)|, j = 1..4, of circle coeffs arrays (m, 2, K).

    Shape (m, 4), with r_k = sqrt(a_k^2 + b_k^2), the amplitude of frequency
    k (Ehlich & Zeller, Math. Z. 86, 1964).  Each is a sum over the
    coefficients, so it does not depend on any scan, and scaling f by 2^k
    scales it by exactly 2^k.
    """
    w = TWO_PI * np.arange(c.shape[-1])
    return (np.hypot(c[:, None, 0], c[:, None, 1]) * np.stack([w, w**2, w**3, w**4])).sum(axis=2)


def _circle_degree(c: np.ndarray) -> int:
    """The highest frequency with a nonzero coefficient of a circle coeffs array (2, D+1); 0 for a constant."""
    d = c.shape[-1] - 1
    while d and not (c[0, d] or c[1, d]):
        d -= 1
    return d


def _scan(c: np.ndarray) -> np.ndarray:
    """f and f' of every circle function with coeffs arrays c (m, 2, D+1) at _circle_size(D) points, shape (m, 2, n).

    One product (_circle_scans); the bounds of f'' and f''' come from the
    coefficients (_bounds).
    """
    return _circle_scans(_derivative_stack(c)[:, :2], _circle_size(c.shape[-1] - 1))


def _series_at(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k a_k cos(2 pi k x_i) + b_k sin(2 pi k x_i) with (a, b) = rows[i].

    rows holds circle coeffs arrays, (m, 2, K), or (m, s, 2, K) for s
    series at each point (result (m, s)).  The terms are summed strictly in
    order of k, so a zero-padded tail adds exact zeros and a row sums to
    the same bits whatever degree its batch was padded to.  It does not
    read _basis: two contiguous cos and sin arrays are a tenth faster here.
    """
    ang = x.reshape((-1,) + (1,) * (rows.ndim - 2)) * (TWO_PI * np.arange(rows.shape[-1]))
    return np.cumsum(rows[..., 0, :] * np.cos(ang) + rows[..., 1, :] * np.sin(ang), axis=-1)[..., -1]


@np.errstate(divide="ignore", invalid="ignore")  # a step at f'' = 0 is infinite: it leaves any bracket or window
def _newton_circle(stack: np.ndarray, seeds: np.ndarray, lo, hi, residual, sign) -> tuple[np.ndarray, np.ndarray]:
    """Newton for f'(x) = 0 from every seed at once: the roots and the value of f at each.

    stack[i] holds the derivative stack (_derivative_stack) of the function
    seed i belongs to, so one run serves the rows of many functions
    (_refine); lo <= seed <= hi, and lo, hi, residual and sign hold one
    value per seed.  A seed with sign +-1 lies in a bracket [lo, hi]
    with f' of that sign at lo and of the other at hi: each iterate narrows
    the bracket to the side that keeps the sign change, and a Newton step
    that leaves it or meets f'' = 0 goes to its midpoint instead (rtsafe;
    Press et al., Numerical Recipes, 9.4), so the row cannot be lost:
    bisection alone takes a scan cell of width w <= 1 / (64 D) to |f'| <=
    M2 w 2^-k <= 1e-12 M1 in k = 37 halvings.  A seed with sign 0 is NaN,
    root and value, once it leaves the window [lo, hi] or meets f'' = 0.  A
    row converges at |f'| <= residual, or is NaN after NEWTON_MAX_ITER
    steps.  f is summed with f' and f'' at every step, so a root's value
    costs no evaluation of its own.  Every seed is worked on its own.
    """
    x = np.asarray(seeds, dtype=float)
    bracket = sign != 0.0
    brackets = bracket.any()
    live, roots, values = np.arange(len(x)), np.full(x.shape, np.nan), np.full(x.shape, np.nan)
    for it in range(NEWTON_MAX_ITER + 1):  # every array but roots and values holds the live seeds only
        v, g, h = _series_at(stack, x).T
        done = np.abs(g) <= residual
        roots[live[done]], values[live[done]] = x[done], v[done]
        if done.all() or it == NEWTON_MAX_ITER:
            break
        step = x - g / h
        if brackets:  # f' keeps the sign of the left end on the side of x below the root
            slope = g * sign
            lo, hi = np.where(slope > 0.0, x, lo), np.where(slope < 0.0, x, hi)
            out = bracket & ~((lo < step) & (step < hi))
            if out.any():
                step = np.where(out, 0.5 * (lo + hi), step)
        ok = ~done & (lo <= step) & (step <= hi)
        x = step
        if not ok.all():
            live, stack, x, lo, hi, residual, sign, bracket = (a[ok] for a in (live, stack, x, lo, hi, residual, sign, bracket))
    return roots, values


def _canonical_mod1(x: np.ndarray) -> np.ndarray:
    y = np.mod(x, 1.0)
    # points that round back to 1.0 belong at 0
    y[np.abs(y - 1.0) < 1e-12] = 0.0
    return y


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The circular sup distance of the points a and b, row by row (broadcast)."""
    d = np.abs(a - b)
    return np.minimum(d, 1.0 - d).max(axis=-1)


def _near_pairs(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of points within tol < 1/4 of each other (_gap).

    One sweep over the points sorted on q1: each is compared only with the
    later ones whose q1 lies within 2 tol of its own, ahead of it or across
    the wrap at 0/1, so no array of all pairs is built.
    """
    m = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    q1, k = points[order, 0], np.arange(m)
    if np.diff(q1, append=q1[0] + 1.0).min() > 2.0 * tol:  # no two points near on q1, across the wrap either
        return k[:0], k[:0]
    # the partners of sorted position k: k < p < hi[k], q1[p] at most 2 tol above q1[k], and
    # 0 <= p < hi[m + k], q1[p] + 1 at most 2 tol above q1[k]
    lo = np.concatenate([k + 1, np.zeros(m, dtype=int)])
    hi = np.searchsorted(q1, np.concatenate([q1 + 2.0 * tol, q1 + (2.0 * tol - 1.0)]), "right")
    count = np.maximum(hi - lo, 0)
    a = order[np.repeat(np.concatenate([k, k]), count)]
    b = order[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)]
    i, j = np.minimum(a, b), np.maximum(a, b)
    near = _gap(points[i], points[j]) <= tol
    return i[near], j[near]


def _dedupe_points(points: np.ndarray, tol: float = POINT_CLUSTER_TOL) -> np.ndarray:
    """Points kept in order unless one kept before lies within tol (circular sup metric), sorted.

    The greedy rule is resolved in rounds over the near pairs (_near_pairs):
    a point goes once an earlier neighbour is kept and stays once all its
    earlier neighbours have gone, so the earliest open point is settled in
    every round.
    """
    if len(points) <= 1:
        return points
    i, j = _near_pairs(points, tol)
    if len(i):
        kept, open_ = np.zeros(len(points), dtype=bool), np.ones(len(points), dtype=bool)
        while open_.any():
            gone, wait = np.zeros_like(kept), np.zeros_like(kept)
            gone[j[kept[i]]] = True
            wait[j[open_[i]]] = True
            stay = open_ & ~gone & ~wait
            kept |= stay
            open_ &= ~(gone | stay)
        points = points[kept]
    return points[np.lexsort(points.T[::-1])]


# offsets of a grid point's periodic 3^ndim neighbourhood, itself included, shape (ndim, 3^ndim, 1)
_NEIGHBOURHOOD = {d: np.array(list(itertools.product((-1, 0, 1), repeat=d))).T[:, :, None] for d in (1, 2)}


# the role of a seed: a max or min seed (T2), or a free one (every circle
# row, and the torus critical seeds); a circle row is a bracket when its
# chord is not 0
MAX, MIN, FREE = range(3)


class _Batch(NamedTuple):
    """The scans of a stack reduced to per-function arrays and one seed table.

    Row i of the table is one Newton start: point x[i] of function owner[i]
    (its position in the batch), in role role[i], in a cell of width
    width[i].  A function's rows of one kind keep the order of its scan
    (and of the levels of _circle_seeds), which the deduplication of
    refined points reads.  A constant has no rows.
    """

    bound: np.ndarray  # (m, 4): M1..M4 (_bounds) on S1; the scanned max|grad f| and max|f_ij| on T2
    residual: np.ndarray  # Newton residual, NEWTON_RESIDUAL times the bound of |grad f|
    hi: np.ndarray  # largest scanned value
    lo: np.ndarray  # smallest scanned value
    margin: np.ndarray  # the max lies in [hi, hi + margin], the min in [lo - margin, lo] (checked by _refine)
    constant: np.ndarray  # the range [lo, hi] is within rounding of max|f|
    plateau: np.ndarray  # set by _critical
    owner: np.ndarray
    role: np.ndarray
    x: np.ndarray  # (rows, ndim)
    width: np.ndarray  # the grid or sub-grid spacing a row was seeded on
    # a / (|a| + |z|) on a circle bracket [x, x + width] with f' = a and z at its ends, neither of which
    # meets the residual, so a != 0: the sign of f' at x, and its chord's root at x + |chord| width; 0 on
    # every other row
    chord: np.ndarray


def _rounding(scale):
    """16 ulps of scale (a float or an array): a difference this small is rounding, not shape.

    With the caller's tol and the Newton residual (_peaks) it is every
    threshold of the engine, so scaling f and tol by 2^k scales every record
    by exactly 2^k.
    """
    return 16.0 * np.spacing(scale)


def _peaks(g: np.ndarray, tol: float, c: np.ndarray) -> _Batch:
    """The scans of a stack reduced to a _Batch, its table left to _seeds, _circle_seeds or _critical.

    g holds m scans, (m, 2, n) on S1 or (m, 6, n, n) on T2, of the functions
    with coeffs arrays c, reduced at once: one max and one min over all
    grids.  The bounds of |grad f| and |f_ij| are Bernstein's (_bounds) on
    S1 and the scan's maxima on T2; the residual is NEWTON_RESIDUAL times
    the first.  A scan whose range is within rounding of its max|f| is a
    constant, attained everywhere, and gets no rows.
    """
    m, ndim, n = len(g), g.ndim - 2, g.shape[-1]
    grids = g.reshape(m, g.shape[1], -1)
    top, bottom = grids.max(axis=2), grids.min(axis=2)
    hi, lo = top[:, 0], bottom[:, 0]
    size = np.maximum(-bottom, top)  # max |grid|; on a tie of -0 with +0, np.maximum keeps top's zero
    if ndim == 1:
        bound = _bounds(c)
    else:
        bound = np.zeros((m, 4))
        bound[:, 0], bound[:, 1] = size[:, 1:3].max(axis=1), size[:, 3:].max(axis=1)
    residual = NEWTON_RESIDUAL * bound[:, 0]
    constant = hi - lo <= _rounding(size[:, 0])
    # margin below which a grid point may still hide the global max: the
    # Taylor bound 0.5 max|f_ij| (ndim dq)^2 over a cell, plus the tolerance;
    # none is near for a constant
    dq = 1.0 / n
    margin = 10.0 * tol + 0.5 * ndim**2 * bound[:, 1] * dq * dq
    margin[constant] = -np.inf
    return _Batch(bound, residual, hi, lo, margin, constant, np.zeros(m, dtype=bool), *(None,) * 5)


def _seeds(g: np.ndarray, b: _Batch) -> _Batch:
    """b, the _peaks reduction of the scans g, with their max and min seeds as its table.

    The max seeds are the scan's local maxima within the margin of its top
    (one nonzero and one gather of neighbours for both signs), so maxima
    whose dip lies inside the margin each get one; the top itself is always
    one; the min seeds likewise.  A constant gets none.
    """
    ndim, n = g.ndim - 2, g.shape[-1]
    vals = g[:, 0].reshape(len(g), -1)
    up, down = vals >= (b.hi - b.margin)[:, None], vals <= (b.lo + b.margin)[:, None]
    rows, cells = np.divmod(np.flatnonzero(up | down), vals.shape[1])
    at = np.array(np.unravel_index(cells, g.shape[2:]))
    around = g[:, 0][(rows,) + tuple((at[:, None] + _NEIGHBOURHOOD[ndim]) % n)]
    here = vals[rows, cells]
    # candidate i is entry i of the seed mask as a max seed and entry len(rows) + i as a min seed
    is_max = up[rows, cells] & (here >= around.max(axis=0))
    is_min = down[rows, cells] & (here <= around.min(axis=0))
    role, i = np.divmod(np.flatnonzero(np.concatenate([is_max, is_min])), len(rows))  # MAX 0, MIN 1
    return b._replace(owner=rows[i], role=role, x=at[:, i].T / n, width=np.full(len(i), 1.0 / n), chord=np.zeros(len(i)))


def _circle_seeds(d: np.ndarray, c: np.ndarray, b: _Batch, every: bool) -> _Batch:
    """b with the circle table the cell rules give on the scans whose f' grids are d, (m, n).

    The rules read every cell with every (critical sets), else only the
    cell that f' at each max or min seed of b points into (the right cell
    of a max seed where f' > 0, the left one where f' < 0, and mirrored for
    a min seed), or the seed itself, with chord 0, where its |f'| already
    meets the residual.  A cell [x, x + w] that holds two or more roots of
    f' (with multiplicity) has |f'| <= L w^2 / 2 at both ends, L a bound of
    |f'''| on the cell, since f'(x) = f'''(xi)(x - r1)(x - r2) / 2; three or more
    roots meet the same bound as long as L >= M4 w / 2.  Both bounds used
    here do: M3 on the scan (M4 w / 2 <= M3 once w <= 1 / (pi D)) and, on
    sub-cells, |f'''| at the larger end plus M4 w / 2, which stays small
    where f' is flat around a root of high multiplicity.  So a cell that
    fails the bound at an end (with 16 ulps of M1 for the rounding of f')
    holds one root where f' changes sign or is zero (a bracket with its
    chord, or a row with chord 0 at an end that already meets the residual)
    and none elsewhere.  A cell that meets it at both ends is suspect.  A
    suspect cell whose ends both meet the residual is already critical as
    far as Newton can tell, and one narrower than POINT_CLUSTER_TOL merges its
    roots anyway: each run of adjacent such cells gets one row with chord 0,
    at its end of least |f'|.  The other suspect cells are sampled again at
    SUBCELLS sub-cells, f' and f''' of all of them in one _series_at call
    per level, and read by the same rules.  Every row is FREE, and
    points lie in [0, 1).
    """
    m1, _, m3, m4 = b.bound.T
    slack, residual, n = _rounding(m1), b.residual, d.shape[1]
    w, found = 1.0 / n, []
    # each level is rows of cells: cell j of row i spans [base[i] + j w, base[i] + (j + 1) w],
    # with f' = a[i, j] and z[i, j] at its ends and the bound t[i, j]; at the top a row is a
    # scan (every) or one seed cell
    if every:
        owner = np.flatnonzero(~b.constant)
        a = d[owner]
        z, base = np.roll(a, -1, axis=1), np.zeros(len(owner))
    else:
        o, i = b.owner, (b.x[:, 0] * n).astype(int)  # x = i / n exactly
        slope = d[o, i]
        met = np.abs(slope) <= residual[o]
        if met.any():
            found.append((o[met], b.x[met, 0], np.full(len(o), w)[met], 0.0 * slope[met]))
        j = (i - ((slope > 0.0) != (b.role == MAX)))[~met] % n  # the right cell, or the left one
        owner = o[~met]  # a cell that two seeds point into is read twice, to the same rows
        a, z, base = d[owner, j, None], d[owner, (j + 1) % n, None], j * w
    t = (0.5 * w * w * m3 + slack)[owner, None]
    while True:
        ends = np.abs(a), np.abs(z)
        suspect = np.maximum(*ends) <= t
        change = (np.sign(a) * np.sign(z) <= 0.0) & ~suspect  # a sign change or a zero
        i, j = np.nonzero(change)
        o, left, right = owner[i], ends[0][i, j], ends[1][i, j]
        at_left, at_right = left <= residual[o], right <= residual[o]  # an end that already meets the residual
        exact = at_left | at_right
        x = (base[i] + j * w + w * (at_right & ~at_left)) % 1.0
        chord = np.where(exact, 0.0, a[i, j] / (left + right))  # no change is suspect: |a| + |z| > 0
        found.append((o, x, np.full(len(o), w), chord))
        i, j = np.nonzero(suspect)  # from here on one entry per suspect cell, in scan order
        if not len(i):
            break
        owner, base, a, z, ends = owner[i], base[i] + j * w, a[i, j], z[i, j], np.stack(ends)[:, i, j]
        done = (ends.max(axis=0) <= residual[owner]) | (w < POINT_CLUSTER_TOL)
        if done.any():
            o, x, ends = owner[done], base[done], ends[:, done]
            run = np.cumsum(np.concatenate([[True], (o[1:] != o[:-1]) | (x[1:] != x[:-1] + w)]))
            order = np.lexsort((ends.min(axis=0), run))
            pick = order[np.flatnonzero(np.diff(run[order], prepend=0))]
            x = (x[pick] + w * (ends[1, pick] < ends[0, pick])) % 1.0
            found.append((o[pick], x, np.full(len(pick), w), np.zeros(len(pick))))
        owner, base, a, z = owner[~done], base[~done], a[~done], z[~done]
        if not len(owner):
            break
        d1 = _derivative_stack(c[owner])[:, 1]  # f', and f''' = -(2 pi k)^2 f' per frequency
        rows = np.stack([d1, d1 * -((TWO_PI * np.arange(c.shape[-1])) ** 2)], axis=1)
        w /= SUBCELLS
        at = (base[:, None] + w * np.arange(SUBCELLS + 1)).ravel()
        v = _series_at(np.repeat(rows, SUBCELLS + 1, axis=0), at).reshape(len(owner), SUBCELLS + 1, 2)
        v[:, 0, 0], v[:, -1, 0] = a, z  # the ends as the level above read them
        a, z, third = v[:, :-1, 0], v[:, 1:, 0], np.abs(v[..., 1])
        t = np.maximum(third[:, :-1], third[:, 1:]) + (0.5 * w * m4 + _rounding(m3))[owner, None]
        t = 0.5 * t * w * w + slack[owner, None]
    owner, x, width, chord = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
    return b._replace(owner=owner, role=np.full(len(owner), FREE), x=x[:, None], width=width, chord=chord)


def _critical(g: np.ndarray, b: _Batch, c: np.ndarray) -> _Batch:
    """b, the _peaks reduction of the stack g of the coeffs arrays c, with its plateau flags and its table.

    On S1 the table is the rows of every cell of the scans (_circle_seeds),
    and the record is read from them.  On T2 it is the max and min seeds
    (_seeds), then the critical seeds (FREE): the grid points whose
    max(|f_1|, |f_2|) already meets the residual, then the centres of the
    grid cells whose four corners see both signs of f_1 and both of f_2
    (zero counts as both), where a transversal zero of the gradient lies.  A
    constant is critical everywhere and gets no seeds.  A plateau is more
    than PLATEAU_FRACTION of the scan with |grad f| below 1e3 residuals in
    runs of three or more adjacent points along the last axis, so that
    isolated zeros of the gradient on grid points do not make one on a
    small scan.
    """
    m, ndim, n = len(g), g.ndim - 2, g.shape[-1]
    residual = b.residual.reshape((m,) + (1,) * ndim)
    dnorm = np.abs(g[:, 1]) if ndim == 1 else np.maximum(np.abs(g[:, 1]), np.abs(g[:, 2]))
    flat = dnorm < 1e3 * residual
    plateau = np.count_nonzero(flat, axis=tuple(range(1, ndim + 1))) / n**ndim > PLATEAU_FRACTION
    if plateau.any():  # count again the points in runs of three or more only
        flat &= np.roll(flat, 1, axis=-1) & np.roll(flat, -1, axis=-1)  # the middle of a run of three
        flat |= np.roll(flat, 1, axis=-1) | np.roll(flat, -1, axis=-1)
        plateau = np.count_nonzero(flat, axis=tuple(range(1, ndim + 1))) / n**ndim > PLATEAU_FRACTION
    if ndim == 1:
        return _circle_seeds(g[:, 1], c, b._replace(plateau=plateau), every=True)
    b = _seeds(g, b)
    live = ~b.constant[:, None, None]
    sides = np.stack([g[:, 1] >= 0.0, g[:, 1] <= 0.0, g[:, 2] >= 0.0, g[:, 2] <= 0.0], axis=1)
    sides |= np.roll(sides, -1, axis=2)  # cell (i, j) has corners (i, j) to (i + 1, j + 1), periodically
    sides |= np.roll(sides, -1, axis=3)
    met = np.unravel_index(np.flatnonzero((dnorm <= residual) & live), dnorm.shape)
    cells = np.unravel_index(np.flatnonzero(sides.all(axis=1) & live), dnorm.shape)
    owner = np.concatenate([met[0], cells[0]])
    x = np.concatenate([np.stack(met[1:], axis=1), np.stack(cells[1:], axis=1) + 0.5]) / n
    return b._replace(
        plateau=plateau,
        owner=np.concatenate([b.owner, owner]),
        role=np.concatenate([b.role, np.full(len(owner), FREE)]),
        x=np.concatenate([b.x, x]),
        width=np.concatenate([b.width, np.full(len(owner), 1.0 / n)]),
        chord=np.concatenate([b.chord, np.zeros(len(owner))]),
    )


def _newton_torus(
    stack: np.ndarray, seeds: np.ndarray, halfwidth, residual, owner: np.ndarray | None = None
) -> np.ndarray:
    """Newton for grad f = 0 from every seed at once.

    stack[i] holds the derivative stack (_derivative_stack) of seed i, or
    with owner, of function owner[i], read in place (_torus_at; a run with
    one owner reads its one stack for all seeds), so one run serves the
    max, min and critical seeds of many functions (_refine).  Each seed
    stays confined to max |x - seed| <= halfwidth and converges at
    max |grad f| <= residual (scalars or one value per seed); seeds that
    leave their window, step further than 0.1 (the basin guard of an
    unconfined run), meet a Hessian singular to rounding or do not converge
    come back as NaN.  Every seed is worked on its own, so its root does
    not depend on the other seeds.
    """
    x0 = np.array(seeds, dtype=float)
    width = np.zeros(len(x0)) + halfwidth
    tol = np.zeros(len(x0)) + residual
    roots = np.full(x0.shape, np.nan)
    live, x = np.arange(len(x0)), x0
    per_seed = owner is None
    d = stack[:, 1:].copy() if per_seed else stack[:, 1:]  # a stack per seed is dropped with its seed
    if not per_seed and len(owner) and (owner == owner[0]).all():
        d, owner = stack[owner[0], 1:], None  # one function: its stack for all seeds
    for it in range(NEWTON_MAX_ITER + 1):  # x, x0, width, tol, owner and a per-seed d hold the live seeds only
        a, b, m11, m12, m22 = _torus_at(d, x, owner).T
        done = np.maximum(np.abs(a), np.abs(b)) <= tol
        roots[live[done]] = x[done]
        if done.all() or it == NEWTON_MAX_ITER:
            break
        det = m11 * m22 - m12 * m12
        bad = np.abs(det) <= _rounding(np.abs(m11 * m22) + m12 * m12)
        det[bad] = 1.0
        step = np.stack([(m22 * a - m12 * b) / det, (m11 * b - m12 * a) / det], axis=1)
        x = x - step
        ok = ~(done | bad) & (np.max(np.abs(step), axis=1) <= 0.1) & (np.max(np.abs(x - x0), axis=1) <= width)
        if not ok.all():
            live, x, x0, width, tol = live[ok], x[ok], x0[ok], width[ok], tol[ok]
            if per_seed:
                d = d[ok]
            elif owner is not None:
                owner = owner[ok]
    return roots


def _refine(fs: Sequence[FourierFunction], b: _Batch, tol: float, critical: bool) -> tuple[list[Extrema], list[np.ndarray]]:
    """The attaining_set record and, with critical, the critical points of every function of a batch, from one Newton run.

    fs are the batch's functions, all of one domain.  The run refines b's
    whole table, w being a row's width.  On S1 a row with a nonzero chord
    is a bracket [x, x + w]: it starts at the root of its chord of f' and
    is kept in its bracket (_newton_circle); a row with chord 0 keeps
    within 2w and is dropped if it fails (one whose |f'| already meets the
    residual is its own root at step 0); every row is a critical row, and
    counts toward the max unless f' rises across it and toward the min
    unless f' falls.  On T2 every row keeps within 2w of its seed in the
    sup metric: MAX and MIN seeds count toward their sign and fall back to
    themselves, and FREE seeds are the critical rows, dropped if they fail.
    Each function keeps the points of its rows within tol of its best
    refined value per sign, which must lie in the enclosure [hi, hi +
    margin] (or [lo - margin, lo]) up to 16 ulps of max|f|, a bound proven
    on S1 (M2 from the coefficients) and read from the scanned Hessian on
    T2; one outside it raises ViolationReport.  A constant is attained
    everywhere and reported at the origin.  Critical points come back
    deduplicated and sorted, the root-found rows only (none for a constant or
    without critical rows).
    """
    m, ndim = len(fs), fs[0].domain.ndim
    origin = np.zeros((1, ndim))
    found = [[(hi, origin), (lo, origin)] for hi, lo in zip(b.hi.tolist(), b.lo.tolist())]
    crit = [np.zeros((0, ndim))] * m
    if len(b.role):
        owner, role, x, width = b.owner, b.role, b.x, b.width
        residual = b.residual[owner]
        stacks = _stacks(fs)
        if ndim == 1:
            x, window = x[:, 0], np.where(b.chord == 0.0, 2.0, 0.0) * width  # a bracket keeps to its cell
            bounds = x - window, x + np.maximum(window, width)
            roots, vals = _newton_circle(stacks[owner], x + np.abs(b.chord) * width, *bounds, residual, np.sign(b.chord))
            roots = roots[:, None]
            kinds = [b.chord >= 0.0, b.chord <= 0.0, np.full(len(role), critical)]
        else:
            roots = _newton_torus(stacks, x, 2.0 * width, residual, owner)
            seeded = role <= MIN
            roots = np.where(seeded[:, None] & np.isnan(roots), x, roots)
            vals = np.full(len(role), np.nan)
            vals[seeded] = _torus_at(stacks[:, :1], roots[seeded], owner[seeded])[:, 0]
            kinds = [role == MAX, role == MIN, role == FREE]
        # each row once per kind it counts for, in blocks by key: the max rows
        # of each function (key owner), its min rows (m + owner), then its
        # critical rows (2 m + owner), each block in table order
        kind, row = np.nonzero(np.stack(kinds))
        key = kind * m + owner[row]
        order = np.argsort(key, kind="stable")
        key, row = key[order], row[order]
        e = np.count_nonzero(key < 2 * m)
        sign = np.where(key[:e] < m, 1.0, -1.0)
        vals = sign * vals[row[:e]]
        cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
        blocks = key[cuts[:-1]].tolist()
        ext = [c for c in cuts if c < e]  # the first row of each max and min block
        top = np.concatenate([b.hi, -b.lo])[blocks[: len(ext)]]  # each block's scanned top: hi or -lo
        peak = np.fmax.reduceat(vals, ext)  # failed rows are NaN
        own = np.array(blocks[: len(ext)]) % m
        outside = np.flatnonzero(peak > top + b.margin[own] + _rounding(np.maximum(b.hi, -b.lo)[own]))
        if len(outside):
            i = outside[0]
            raise ViolationReport(
                f"refined extremum {sign[ext[i]] * peak[i]!r} of {fs[own[i]]!r} lies "
                f"{peak[i] - top[i]!r} beyond its scan, outside the enclosure margin {b.margin[own[i]]!r}"
            )
        best = np.fmax(peak, top)
        keep = vals >= np.repeat(best, [j - i for i, j in zip(ext, cuts[1:])]) - tol
        points = _canonical_mod1(roots[row])
        for k, lo, hi, value in zip(blocks, cuts, cuts[1:], (sign[ext] * best).tolist()):
            found[k % m][k // m] = (value, _dedupe_points(points[lo:hi][keep[lo:hi]]))
        for k, lo, hi in zip(blocks[len(ext) :], cuts[len(ext) :], cuts[len(ext) + 1 :]):
            r = points[lo:hi]
            crit[k - 2 * m] = _dedupe_points(r[~np.isnan(r[:, 0])])
    return [Extrema(f, vmax, vmin, pmax, pmin) for f, ((vmax, pmax), (vmin, pmin)) in zip(fs, found)], crit


def _reduce(fs: Sequence[FourierFunction], tol: float, critical: bool = False) -> list[tuple[list[int], _Batch]]:
    """Per domain, the positions in fs of its functions, in scan order, and their one _Batch.

    Circle functions are grouped by their highest nonzero frequency D
    (_circle_degree), their coefficients trimmed to it, so a zero-padded
    copy of f gets the scan, the bounds and the seeds of f itself.  A group
    is scanned in stacks of as many functions as CIRCLE_STACK scan values
    hold, 2 _circle_size(D) per function (512 at degree 1, 64 at degrees 5
    to 8, 8 at degrees 33 to 64), each stack in one product, and a torus
    function on its own; each stack is reduced (_peaks, then _critical with
    critical, else _seeds, on S1 through the cell rules of _circle_seeds)
    before the next is scanned, so no more than one is alive.
    The stack batches of a domain are then concatenated, each owner shifted
    by the functions before it.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for j, f in enumerate(fs):
        d = _circle_degree(f.coeffs) if f.domain.kind == "S1" else f.degree
        groups.setdefault((f.domain.kind, d), []).append(j)
    batches: dict[str, list[tuple[list[int], _Batch]]] = {}
    for (kind, d), js in groups.items():
        size = max(1, CIRCLE_STACK // (2 * _circle_size(d))) if kind == "S1" else 1
        for start in range(0, len(js), size):
            chunk = js[start : start + size]
            if kind == "S1":
                c = np.array([fs[j].coeffs[:, : d + 1] for j in chunk])
                g = _scan(c)
            else:
                c = fs[chunk[0]].coeffs[None]
                g = fs[chunk[0]].values_on_grid(DEFAULT_TORUS_SCAN)[None]
            b = _peaks(g, tol, c)
            if critical:
                b = _critical(g, b, c)
            elif kind == "S1":
                b = _circle_seeds(g[:, 1], c, _seeds(g, b), every=False)
            else:
                b = _seeds(g, b)
            batches.setdefault(kind, []).append((chunk, b))
            del g  # before the next stack is scanned
    out = []
    for parts in batches.values():
        if len(parts) > 1:
            js, bs = zip(*parts)
            shift = np.cumsum([0] + [len(c) for c in js[:-1]])
            b = _Batch(*map(np.concatenate, zip(*bs)))
            parts = [(sum(js, []), b._replace(owner=np.concatenate([c.owner + s for c, s in zip(bs, shift)])))]
        out += parts
    return out


def attaining_sets(fs: Iterable[FourierFunction], tol: float = EQUALITY_TOL) -> list[Extrema]:
    """The attaining_set record of every function, in one batch per domain.

    The scans are stacked and reduced chunk by chunk (_reduce); one Newton
    run per domain then refines the rows of all their max and min seeds (on
    S1 their cells).  A record does not depend on the batch it came in.  tol
    must be positive.
    """
    if not tol > 0.0:
        raise ValueError(f"attaining tolerance must be positive, got {tol}")
    fs = list(fs)
    out: list[Extrema] = [None] * len(fs)
    for js, b in _reduce(fs, tol):
        for j, record in zip(js, _refine([fs[j] for j in js], b, tol, critical=False)[0]):
            out[j] = record
    return out


def attaining_set(f: FourierFunction, tol: float = EQUALITY_TOL) -> Extrema:
    """Max and min of f with all points attaining each within tol, from one scan."""
    return attaining_sets([f], tol)[0]


def extremum(f: FourierFunction, mode: Mode = "max", *, record: Extrema | None = None) -> Extremum:
    """Global max or min with an attaining point: one side of the attaining_set record of f.

    Ties are broken toward the lexicographically smallest coordinates.
    record, the attaining_set record of f, is read instead of computing it
    again.
    """
    r = attaining_set(f) if record is None else record
    value, points = (r.vmin, r.min_points) if mode == "min" else (r.vmax, r.max_points)
    return Extremum(value, tuple(float(x) for x in points[0]))


def sup_norm(f: FourierFunction) -> float:
    """max |f|: both signed extrema, read from one record."""
    r = attaining_set(f)
    return max(extremum(f, "max", record=r).value, -extremum(f, "min", record=r).value)


def sup_norms_by_squaring(fs: Iterable[FourierFunction]) -> list[float]:
    """max |f| as sqrt(max f^2) for every f, using the exact series product.

    Independent formula route: the extremum engine runs on the squared
    series (double the degree) instead of on f itself, all squares in one
    batch; each value is read from the max of the square's record.
    """
    return [float(np.sqrt(max(r.vmax, 0.0))) for r in attaining_sets(f.multiply(f) for f in fs)]


def sup_norm_by_squaring(f: FourierFunction) -> float:
    """max |f| as sqrt(max f^2) (sup_norms_by_squaring)."""
    return sup_norms_by_squaring([f])[0]


def _cluster_values(values: Sequence[float] | np.ndarray, tol: float) -> list[float]:
    """The mean of each run of the sorted values whose steps are at most tol, bit for bit its own np.mean.

    The runs break where one np.diff over the stably sorted values exceeds
    tol.  np.mean sums from 0.0 in order and divides by the count, so a run
    of one is 0.0 + v and a run of two (0.0 + v + w) / 2; only longer runs
    go through np.mean.
    """
    vs = np.sort(np.asarray(values, dtype=float), kind="stable")
    if not len(vs):
        return []
    lo = np.flatnonzero(np.concatenate([[True], ~(np.diff(vs) <= tol)]))
    size = np.diff(lo, append=len(vs))
    means = np.where(size == 1, 0.0 + vs[lo], (0.0 + vs[lo] + vs[np.minimum(lo + 1, len(vs) - 1)]) / 2.0)
    for i in np.flatnonzero(size > 2).tolist():
        means[i] = np.mean(vs[lo[i] : lo[i] + size[i]])
    return means.tolist()


def critical_sets(fs: Iterable[FourierFunction], tol: float = EQUALITY_TOL) -> list[CriticalSet]:
    """The critical set of every function, from its one scan, in one batch per domain.

    The roots of f' (circle: every sign change, and every root a cell that
    may hold two hides, _circle_seeds) or the simultaneous zeros of the
    gradient (torus), refined in one Newton run (_refine); values are f at
    those points only, clustered at tol, and the record (at tol, read from
    the same rows on S1) rides along as extrema, adding no value.  A
    plateau (more than 1% of scan points with |grad f| below 1e3 Newton
    residuals, in runs of three or more) sets the plateau flag and
    contributes its value once;
    a constant (its scan's range within rounding, the rule that gives it no
    seeds) reports the record's extrema.  A critical set does not depend on
    the batch it came in.
    """
    fs = list(fs)
    out: list[CriticalSet] = [None] * len(fs)
    for js, b in _reduce(fs, tol, critical=True):
        facts = zip(js, b.constant.tolist(), b.plateau.tolist(), b.residual.tolist())
        for (j, constant, plateau, residual), ext, pts in zip(facts, *_refine([fs[j] for j in js], b, tol, critical=True)):
            f = ext.f
            if constant:  # every point is critical
                points, plateau = ((0.0,) * f.domain.ndim,), True
                values = [ext.vmax, ext.vmin]
            else:
                values = f(pts[:, 0] if f.domain.ndim == 1 else pts)
                points = tuple(map(tuple, pts.tolist()))
            out[j] = CriticalSet(points, tuple(_cluster_values(values, tol)), tol, residual, ext, plateau)
    return out


def critical_set(f: FourierFunction, tol: float = EQUALITY_TOL) -> CriticalSet:
    """All critical points found at scan resolution, Newton refined (critical_sets)."""
    return critical_sets([f], tol)[0]
