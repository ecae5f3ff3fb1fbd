"""Truncated Fourier models of smooth functions on the circle and 2-torus.

A function is stored as complex Fourier coefficients ``c[k]`` (circle) or
``c[k1, k2]`` (torus) with indices running over ``-D..D`` and the Hermitian
symmetry ``c[-k] = conj(c[k])``, so every represented function is real,
exactly 1-periodic in each coordinate, and differentiable term by term.
The kernels (scan, Newton, evaluation at points) read one real layout
instead, the cos/sin coefficients of ``FourierFunction.real_coeffs``.
The truncation degree bounds the oscillation, which is what makes
scan-plus-Newton extraction of extrema and critical values reliable.

Coordinates live on [0, 1) with period 1 in every axis.  All values are
immutable after construction and every operation here is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np
from scipy.signal import convolve2d

from .config import (
    DEFAULT_CIRCLE_SCAN,
    DEFAULT_TORUS_SCAN,
    NEWTON_MAX_ITER,
    NEWTON_RESIDUAL,
    PLATEAU_FRACTION,
    PLATEAU_POINT_TOL,
    POINT_CLUSTER_TOL,
    VALUE_CLUSTER_TOL,
)
from .errors import DimensionMismatch

TWO_PI = 2.0 * np.pi


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


def _hermitian_project(c: np.ndarray) -> np.ndarray:
    """Average c with its conjugate reversal; exact when already Hermitian."""
    rev = np.conj(c[::-1] if c.ndim == 1 else c[::-1, ::-1])
    return 0.5 * (c + rev)


class FourierFunction:
    """Real-valued truncated Fourier series on S1 or T2.

    The circle series of degree D is
        f(q) = a0 + sum_{k=1..D} a_k cos(2 pi k q) + b_k sin(2 pi k q)
    stored as ``c[k] = (a_k - i b_k) / 2`` with ``c[-k] = conj(c[k])``.
    The torus series is the analogous double sum stored as a (2D+1)^2
    complex array.  Derivatives multiply coefficients by ``2 pi i k`` and
    are therefore exact; no finite differences appear anywhere.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: DomainDescriptor, coeffs) -> None:
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != domain.ndim:
            raise DimensionMismatch(
                f"coefficient array of rank {c.ndim} for domain {domain.kind}"
            )
        if any(n % 2 == 0 for n in c.shape):
            raise ValueError("coefficient arrays must have odd length 2D+1 per axis")
        if domain.kind == "T2" and c.shape[0] != c.shape[1]:
            raise ValueError("torus coefficient array must be square")
        if not np.all(np.isfinite(c.view(float))):
            raise ValueError("coefficients must be finite")
        c = _hermitian_project(c)
        c.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("FourierFunction is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain: DomainDescriptor = CIRCLE) -> "FourierFunction":
        shape = (1,) * domain.ndim
        return cls(domain, np.zeros(shape, dtype=complex))

    @classmethod
    def constant(cls, value: float, domain: DomainDescriptor = CIRCLE) -> "FourierFunction":
        shape = (1,) * domain.ndim
        c = np.full(shape, complex(value))
        return cls(domain, c)

    @classmethod
    def from_circle_coeffs(cls, a0: float, cos: Sequence[float] = (), sin: Sequence[float] = ()) -> "FourierFunction":
        a = np.asarray(cos, dtype=float)
        b = np.asarray(sin, dtype=float)
        d = max(len(a), len(b))
        ab = np.zeros((2, d))  # the shorter list is zero-padded
        ab[0, : len(a)] = a
        ab[1, : len(b)] = b
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d] = a0
        c[d + 1 :] = 0.5 * (ab[0] - 1j * ab[1])
        c[:d] = np.conj(c[d + 1 :][::-1])
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
        d = n - 1
        c = np.zeros((2 * d + 1, 2 * d + 1), dtype=complex)
        c[d, d] = float(a0) + float(cc[0, 0])  # fold any constant stored in cc
        # Index k maps to d + k and -k to d - k, so a negative frequency block
        # is a reversed view.  Every entry is added onto a zero once, which
        # keeps the signed zeros of entry-by-entry accumulation.
        ax2 = 0.5 * (cc[0, 1:] - 1j * cs[0, 1:])  # cos/sin(2 pi k2 q2) terms
        ax1 = 0.5 * (cc[1:, 0] - 1j * sc[1:, 0])
        c[d, d + 1 :] += ax2
        c[d, :d][::-1] += np.conj(ax2)
        c[d + 1 :, d] += ax1
        c[:d, d][::-1] += np.conj(ax1)
        cc, cs, sc, ss = cc[1:, 1:], cs[1:, 1:], sc[1:, 1:], ss[1:, 1:]
        p = 0.25 * ((cc - ss) - 1j * (cs + sc))  # at (k1, k2)
        q = 0.25 * ((cc + ss) + 1j * (cs - sc))  # at (k1, -k2)
        c[d + 1 :, d + 1 :] += p
        c[:d, :d][::-1, ::-1] += np.conj(p)
        c[d + 1 :, :d][:, ::-1] += q
        c[:d, d + 1 :][::-1] += np.conj(q)
        return cls(TORUS2, c)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def mean_value(self) -> float:
        ctr = (self.degree,) * self.domain.ndim
        return float(self.coeffs[ctr].real)

    def real_coeffs(self) -> np.ndarray:
        """Coefficients against the real axis basis (cos 2 pi k q, sin 2 pi k q), k = 0..D.

        Shape (2, D+1) on S1: (a0, a_1..a_D) over (0, b_1..b_D).  Shape
        (2, D+1, 2, D+1) on T2: entry [i, k1, j, k2] multiplies basis i of
        the first axis at k1 times basis j of the second at k2, so the
        blocks [0, :, 0], [0, :, 1], [1, :, 0], [1, :, 1] are cc, cs, sc,
        ss with the mean at [0, 0, 0, 0].  The sin 0 slots hold zeros.
        """
        d, c = self.degree, self.coeffs
        if self.domain.kind == "S1":
            r = np.zeros((2, d + 1))
            r[0, 0] = c[d].real
            r[0, 1:] = 2.0 * c[d + 1 :].real
            r[1, 1:] = -2.0 * c[d + 1 :].imag
            return r
        p = c[d:, d:]  # (k1, k2) for k1, k2 >= 0
        q = c[d:, d::-1]  # (k1, -k2)
        u, v = p + q, q - p
        r = np.empty((2, d + 1, 2, d + 1))
        np.multiply(u.real, 2.0, out=r[0, :, 0])  # cc
        np.multiply(v.imag, 2.0, out=r[0, :, 1])  # cs
        np.multiply(u.imag, -2.0, out=r[1, :, 0])  # sc
        np.multiply(v.real, 2.0, out=r[1, :, 1])  # ss
        # on an axis p and q are one entry (k2 = 0) or conjugates (k1 = 0),
        # so u and v count it twice; halving is exact
        r[:, 0] *= 0.5
        r[..., 0] *= 0.5
        r[1, 0] = 0.0  # sin 0 of the first axis
        return r

    def circle_cos_sin(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Real (a0, cos, sin) coefficient view; circle functions only."""
        if self.domain.kind != "S1":
            raise DimensionMismatch("circle_cos_sin on a torus function")
        r = self.real_coeffs()
        return float(r[0, 0]), r[0, 1:], r[1, 1:]

    def torus_blocks(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Real (a0, cc, cs, sc, ss) blocks of shape (D+1, D+1), with the mean in a0 only."""
        if self.domain.kind != "T2":
            raise DimensionMismatch("torus_blocks on a circle function")
        cc, cs, sc, ss = self.real_coeffs().swapaxes(1, 2).reshape(4, self.degree + 1, -1)
        cc[0, 0] = 0.0
        return self.mean_value, cc, cs, sc, ss

    def pad_to_degree(self, d: int) -> "FourierFunction":
        cur = self.degree
        if d < cur:
            raise ValueError("cannot pad to a smaller degree")
        if d == cur:
            return self
        w = d - cur
        pad = ((w, w),) * self.domain.ndim
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
            ctr = (self.degree,) * self.domain.ndim
            c[ctr] = op(c[ctr], complex(other))
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
        if self.domain.kind == "S1":
            c = np.convolve(self.coeffs, other.coeffs)
        else:
            c = convolve2d(self.coeffs, other.coeffs)
        return FourierFunction(self.domain, c)

    # -- calculus ----------------------------------------------------------

    def derivative(self, axis: int = 0) -> "FourierFunction":
        """Analytic partial derivative along the given coordinate axis."""
        if not 0 <= axis < self.domain.ndim:
            raise DimensionMismatch(f"axis {axis} for domain {self.domain.kind}")
        d = self.degree
        k = np.arange(-d, d + 1)
        factor = TWO_PI * 1j * k
        if self.domain.ndim == 1:
            return FourierFunction(self.domain, self.coeffs * factor)
        if axis == 0:
            return FourierFunction(self.domain, self.coeffs * factor[:, None])
        return FourierFunction(self.domain, self.coeffs * factor[None, :])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        if self.domain.kind == "S1":
            xs = np.asarray(x, dtype=float)
            if xs.ndim > 1:
                raise DimensionMismatch("circle points must be scalars or 1-d arrays")
            scalar = xs.ndim == 0
            vals = self._eval_circle(np.atleast_1d(xs))
            return float(vals[0]) if scalar else vals
        pts = np.asarray(x, dtype=float)
        if pts.shape == (2,):
            return float(_torus_at(self.real_coeffs()[None], pts[None, :])[0, 0])
        if pts.ndim == 2 and pts.shape[1] == 2:
            return _torus_at(self.real_coeffs()[None], pts)[:, 0]
        raise DimensionMismatch("torus points must have shape (2,) or (m, 2)")

    def _eval_circle(self, x: np.ndarray) -> np.ndarray:
        a0, a, b = self.circle_cos_sin()
        d = self.degree
        if d == 0:
            return np.full(x.shape, a0)
        ang = TWO_PI * np.mod(x, 1.0)[:, None] * np.arange(1, d + 1)[None, :]
        return a0 + np.cos(ang) @ a + np.sin(ang) @ b

    def values_on_grid(self, n: int) -> np.ndarray:
        """Value, gradient and Hessian grids at the uniform grid (i/n), stacked on a new leading axis.

        f, f', f'' on S1, shape (3, n); f, f_1, f_2, f_11, f_12, f_22 on T2,
        shape (6, n, n).  Each grid is one coefficient array of the real
        derivative stack against one cached basis table B: B v on S1 and
        B V B^T on T2.
        """
        b = _grid_basis(n, self.degree)
        stack = _derivative_stack(self.real_coeffs()[None])[0]
        if self.domain.kind == "S1":
            return stack.reshape(3, -1) @ b.T
        # B V for all six V, then one (6n, 2(D+1)) @ B^T product: half the time of six
        return ((b @ stack.reshape(6, b.shape[1], -1)).reshape(-1, b.shape[1]) @ b.T).reshape(6, n, n)


def _basis(degree: int, x: np.ndarray) -> np.ndarray:
    """The real axis basis (cos 2 pi k x, sin 2 pi k x), k = 0..D, at every x: shape x.shape + (2, D+1)."""
    ang = x[..., None] * (TWO_PI * np.arange(degree + 1))
    b = np.empty(x.shape + (2, degree + 1))
    np.cos(ang, out=b[..., 0, :])
    np.sin(ang, out=b[..., 1, :])
    return b


@lru_cache(maxsize=64)
def _grid_basis(n: int, degree: int) -> np.ndarray:
    """The axis basis at the grid points i/n, flattened to rows of the real_coeffs layout: shape (n, 2(D+1))."""
    b = _basis(degree, grid_points(n)).reshape(n, -1)
    b.flags.writeable = False
    return b


def _derivative_stack(r: np.ndarray) -> np.ndarray:
    """Real coefficients of f, f', f'' (S1) or f, f_1, f_2, f_11, f_12, f_22 (T2) for each f in r.

    r holds real_coeffs arrays, (m, 2, K) on S1 or (m, 2, K, 2, K) on T2;
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


def _stacks(fs: Sequence[FourierFunction]) -> np.ndarray:
    """Derivative stacks of functions of one domain, zero-padded to their top degree D.

    Shape (m, 3, 2, D+1) on S1 and (m, 6, 2, D+1, 2, D+1) on T2.
    """
    ndim = fs[0].domain.ndim
    d = max(f.degree for f in fs)
    r = np.zeros((len(fs),) + (2, d + 1) * ndim)
    for row, f in zip(r, fs):
        row[(slice(None), slice(f.degree + 1)) * ndim] = f.real_coeffs()
    return _derivative_stack(r)


def _torus_at(stack: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The torus series stack[..., s, :, :, :, :] at each point of pts (m, 2), shape (m, s).

    stack holds real_coeffs arrays, one stack per point, (m, s, 2, K, 2,
    K), or one for all points, (s, 2, K, 2, K).  The unoptimized einsum
    adds the terms one at a time in index order, so zero padding adds
    exact zeros and a padded stack gives the same bits.
    """
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

    points hold coordinates with |grad f| at or below point_tolerance after
    Newton refinement; values are deduplicated at the clustering tolerance
    and always contain the global extremum values.  plateau flags a
    non-isolated critical locus (reported once through its value).  extrema
    is the attaining_set record of f, read from the same scan.
    """

    points: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    tolerance: float
    extrema: Extrema = field(compare=False, repr=False)
    plateau: bool = False
    point_tolerance: float = NEWTON_RESIDUAL


def _scan(f: FourierFunction) -> np.ndarray:
    """The stacked value, gradient and Hessian grids of f."""
    # never undersample relative to the degree
    n = max(DEFAULT_CIRCLE_SCAN, 8 * f.degree) if f.domain.kind == "S1" else DEFAULT_TORUS_SCAN
    return f.values_on_grid(n)


def _series_at(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k a_k cos(2 pi k x_i) + b_k sin(2 pi k x_i) with (a, b) = rows[i].

    rows holds circle real_coeffs arrays, (m, 2, K), or (m, s, 2, K) for s
    series at each point (result (m, s)).  The terms are summed strictly in
    order of k, so a zero-padded tail adds exact zeros and a row sums to
    the same bits whatever degree its batch was padded to.  It does not
    read _basis: two contiguous cos and sin arrays are a tenth faster here.
    """
    ang = x.reshape((-1,) + (1,) * (rows.ndim - 2)) * (TWO_PI * np.arange(rows.shape[-1]))
    return np.cumsum(rows[..., 0, :] * np.cos(ang) + rows[..., 1, :] * np.sin(ang), axis=-1)[..., -1]


def _newton_circle(
    stack: np.ndarray,
    seeds: np.ndarray,
    halfwidth,
    residual=NEWTON_RESIDUAL,
) -> np.ndarray:
    """Newton for f'(x) = 0 from every seed at once.

    stack[i] holds the derivative stack (_derivative_stack) of the function
    seed i belongs to, so one run serves the seeds of many functions.  Each
    seed stays confined to |x - seed| <= halfwidth and converges at |f'| <=
    residual (scalars or one value per seed); seeds that leave their
    window, meet f'' = 0 or do not converge come back as NaN.
    """
    d12 = stack[:, 1:]
    x0 = np.asarray(seeds, dtype=float)
    width = np.zeros_like(x0) + halfwidth
    tol = np.zeros_like(x0) + residual
    roots = np.full(x0.shape, np.nan)
    live, x = np.arange(len(x0)), x0
    for it in range(NEWTON_MAX_ITER + 1):  # d12, x0, tol and width hold the live seeds only
        g, h = _series_at(d12, x).T
        done = np.abs(g) <= tol
        roots[live[done]] = x[done]
        if done.all() or it == NEWTON_MAX_ITER:
            break
        x = x - g / np.where(h == 0.0, 1.0, h)
        ok = ~done & (h != 0.0) & (np.abs(x - x0) <= width)
        if not ok.all():
            live, d12, x, x0, tol, width = live[ok], d12[ok], x[ok], x0[ok], tol[ok], width[ok]
    return roots


def _ternary_max_circle(f: FourierFunction, lo: float, hi: float, iters: int = 80) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _canonical_mod1(x: np.ndarray) -> np.ndarray:
    y = np.mod(x, 1.0)
    # points that round back to 1.0 belong at 0
    y[np.abs(y - 1.0) < 1e-12] = 0.0
    return y


def _dedupe_points(points: np.ndarray, tol: float = POINT_CLUSTER_TOL) -> np.ndarray:
    """Points kept in order unless one kept before lies within tol (circular sup metric), sorted."""
    if len(points) <= 1:
        return points
    d = np.abs(points[:, None] - points[None, :])
    near = np.max(np.minimum(d, 1.0 - d), axis=-1) <= tol
    free = np.ones(len(points), dtype=bool)
    kept = []
    while free.any():
        i = int(np.argmax(free))
        kept.append(i)
        free &= ~near[i]
        free[i] = False
    kept = points[kept]
    return kept[np.lexsort(kept.T[::-1])]


# offsets of a grid point's periodic 3^ndim neighbourhood, itself included, shape (ndim, 3^ndim, 1)
_NEIGHBOURHOOD = {d: np.array(list(itertools.product((-1, 0, 1), repeat=d))).T[:, :, None] for d in (1, 2)}


def _local_max_mask(a: np.ndarray) -> np.ndarray:
    """Grid points at least as large as all their (periodic) neighbours."""
    mask = np.ones(a.shape, dtype=bool)
    for shift in _NEIGHBOURHOOD[a.ndim][:, :, 0].T:
        if shift.any():
            mask &= a >= np.roll(a, tuple(shift), axis=tuple(range(a.ndim)))
    return mask


def _local_maxima(a: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Indices (k, ndim) of the points of mask near where a is at least its neighbours; only those are tested."""
    idx = np.array(np.nonzero(near))
    nb = (idx[:, None] + _NEIGHBOURHOOD[a.ndim]) % a.shape[0]
    return idx.T[a[tuple(idx)] >= a[tuple(nb)].max(axis=0)]


class _Peaks(NamedTuple):
    """One scan reduced for one sign: all that the refinement reads."""

    n: int  # scan size per axis
    top: float  # largest scanned value of sign * f
    seeds: np.ndarray | None  # points that may neighbour the top; None for a constant
    residual: float  # Newton residual, scaled by max|grad f|


def _abs_max(a: np.ndarray) -> float:
    """max |a| without an |a| temporary the size of a scan."""
    return max(float(a.max()), -float(a.min()))


def _peaks(grids: np.ndarray, tol: float, signs: Sequence[int] = (1, -1)) -> list[_Peaks]:
    """Per sign, the top of a stacked scan and the seeds within the margin of it.

    Seeds are the scan's local maxima within the margin, so maxima whose dip
    lies inside the margin each get one; the top itself is always one.
    """
    ndim = grids.ndim - 1
    n = grids.shape[-1]
    hi, lo = float(grids[0].max()), float(grids[0].min())
    if hi - lo <= 1e-12:  # constant: attained everywhere
        return [_Peaks(n, hi if sign == 1 else -lo, None, 0.0) for sign in signs]
    dq = 1.0 / n
    residual = NEWTON_RESIDUAL * max(1.0, _abs_max(grids[1 : 1 + ndim]))
    # margin below which a grid point may still hide the global max: the
    # Taylor bound 0.5 max|f_ij| (ndim dq)^2 over a cell, plus the tolerance
    margin = 10.0 * tol + 0.5 * ndim**2 * _abs_max(grids[1 + ndim :]) * dq * dq
    peaks = []
    for sign in signs:
        vals = sign * grids[0]
        top = hi if sign == 1 else -lo
        seeds = _local_maxima(vals, vals >= top - margin)
        peaks.append(_Peaks(n, top, seeds / n, residual))
    return peaks


def _newton_torus(stack: np.ndarray, seeds: np.ndarray, residual) -> np.ndarray:
    """Newton for grad f = 0 from every seed at once.

    stack[i] holds the derivative stack (_derivative_stack) of the function
    seed i belongs to, so one run serves the seeds of many functions; each
    step reads the gradient and Hessian from one pair of axis bases.  Seeds
    converge at max |grad f| <= residual (a scalar or one value per seed);
    seeds that meet a singular Hessian, step further than 0.1 (the basin
    guard) or do not converge come back as NaN.
    """
    x = np.array(seeds, dtype=float)
    tol = np.zeros(len(x)) + residual
    roots = np.full(x.shape, np.nan)
    live = np.arange(len(x))
    for it in range(NEWTON_MAX_ITER + 1):
        a, b, m11, m12, m22 = _torus_at(stack[live, 1:], x[live]).T
        done = np.maximum(np.abs(a), np.abs(b)) <= tol[live]
        roots[live[done]] = x[live[done]]
        if done.all() or it == NEWTON_MAX_ITER:
            break
        det = m11 * m22 - m12 * m12
        bad = np.abs(det) < 1e-30
        det[bad] = 1.0
        step = np.stack([(m22 * a - m12 * b) / det, (m11 * b - m12 * a) / det], axis=1)
        ok = ~(done | bad) & (np.max(np.abs(step), axis=1) <= 0.1)
        live = live[ok]
        x[live] -= step[ok]
    return roots


def _refine(
    fs: Sequence[FourierFunction], peaks: Sequence[_Peaks], sign: int, tol: float
) -> list[tuple[float, np.ndarray]]:
    """Max (sign 1) or min (sign -1) of every f and its attaining points.

    peaks[j] is the scan of fs[j] reduced for this sign.  A constant is
    attained everywhere and reported at the origin.  One Newton run per
    domain refines the seeds of all other functions; a seed that fails falls
    back to golden-section search on its two grid cells (S1) or to itself
    (T2), and each function keeps its refined seeds within tol of its best
    value.
    """
    out = [(sign * p.top, np.zeros((1, f.domain.ndim))) for f, p in zip(fs, peaks)]
    for kind in ("S1", "T2"):
        js = [j for j, p in enumerate(peaks) if p.seeds is not None and fs[j].domain.kind == kind]
        if not js:
            continue
        counts = [len(peaks[j].seeds) for j in js]
        owner = np.repeat(np.arange(len(js)), counts)
        seeds = np.concatenate([peaks[j].seeds for j in js])
        residual = np.repeat([peaks[j].residual for j in js], counts)
        stack = _stacks([fs[j] for j in js])[owner]
        if kind == "S1":
            dq = np.repeat([1.0 / peaks[j].n for j in js], counts)
            roots = _newton_circle(stack, seeds[:, 0], 2.0 * dq, residual)
            for i in np.flatnonzero(np.isnan(roots)):
                roots[i] = _ternary_max_circle(sign * fs[js[owner[i]]], seeds[i, 0] - dq[i], seeds[i, 0] + dq[i])
            vals = sign * _series_at(stack[:, 0], roots)
            roots = roots[:, None]
        else:
            roots = _newton_torus(stack, seeds, residual)
            failed = np.isnan(roots[:, 0])
            roots[failed] = seeds[failed]
            vals = sign * _torus_at(stack[:, :1], roots)[:, 0]
        starts = np.cumsum([0] + counts[:-1])
        best = np.maximum(np.maximum.reduceat(vals, starts), [peaks[j].top for j in js])
        keep = vals >= best[owner] - tol
        points = _canonical_mod1(roots)
        for j, top, lo, m in zip(js, best.tolist(), starts.tolist(), counts):
            out[j] = (sign * top, _dedupe_points(points[lo : lo + m][keep[lo : lo + m]]))
    return out


def _records(fs: Sequence[FourierFunction], scans: Iterable[np.ndarray], tol: float) -> list[Extrema]:
    """The attaining_set record of each f from its stacked scan.

    Each scan is reduced to its peaks as it comes, so none needs to outlive
    the next one.
    """
    peaks = [_peaks(grids, tol) for grids in scans]
    highs = _refine(fs, [p[0] for p in peaks], 1, tol)
    lows = _refine(fs, [p[1] for p in peaks], -1, tol)
    return [Extrema(f, vmax, vmin, pmax, pmin) for f, (vmax, pmax), (vmin, pmin) in zip(fs, highs, lows)]


def attaining_sets(fs: Iterable[FourierFunction], tol: float = VALUE_CLUSTER_TOL) -> list[Extrema]:
    """The attaining_set record of every function, in one batch per domain.

    Each function is scanned on its own and reduced to its seeds at once;
    one Newton run per domain and sign then refines the seeds of all of them.
    A record does not depend on the batch it came in.  tol must be positive.
    """
    if not tol > 0.0:
        raise ValueError(f"attaining tolerance must be positive, got {tol}")
    fs = list(fs)
    return _records(fs, (_scan(f) for f in fs), tol)


def attaining_set(f: FourierFunction, tol: float = VALUE_CLUSTER_TOL) -> Extrema:
    """Max and min of f with all points attaining each within tol, from one scan."""
    return attaining_sets([f], tol)[0]


def extremum(
    f: FourierFunction,
    mode: Mode = "max",
    *,
    grids: np.ndarray | None = None,
) -> Extremum:
    """Global max or min with an attaining point.

    Uniform scan plus Newton refinement on the derivative; ties are broken
    toward the lexicographically smallest coordinates.  grids, a stacked
    scan of f from values_on_grid, is read instead of scanning again.
    """
    sign = -1 if mode == "min" else 1
    peaks = _peaks(_scan(f) if grids is None else grids, VALUE_CLUSTER_TOL, (sign,))
    ((value, pts),) = _refine([f], peaks, sign, VALUE_CLUSTER_TOL)
    return Extremum(value, tuple(float(x) for x in pts[0]))


def sup_norm(f: FourierFunction) -> float:
    """max |f|: both signed extrema, read from one scan."""
    grids = _scan(f)
    return max(extremum(f, "max", grids=grids).value, -extremum(f, "min", grids=grids).value)


def sup_norm_by_squaring(f: FourierFunction) -> float:
    """max |f| as sqrt(max f^2), using the exact series product.

    Independent formula route: the extremum engine runs on the squared
    series (double the degree) instead of on f itself.
    """
    sq = f.multiply(f)
    m = extremum(sq, "max").value
    return float(np.sqrt(max(m, 0.0)))


def _critical_points_circle(f: FourierFunction, grids: np.ndarray, residual: float) -> np.ndarray:
    n = grids.shape[-1]
    dvals = grids[1]
    dq = 1.0 / n
    xs = grid_points(n)
    # sign-change brackets, including the wrap-around interval
    change = (dvals == 0.0) | (np.sign(dvals) != np.sign(np.roll(dvals, -1)))
    # tangential zeros: strict local minima of |f'| away from any bracket
    absd = np.abs(dvals)
    local_min = (absd < np.roll(absd, 1)) & (absd <= np.roll(absd, -1))
    lo = xs[change]
    tangential = xs[local_min & ~change & ~np.roll(change, 1)]
    seeds = np.concatenate([0.5 * (lo + (lo + dq)), tangential])
    widths = np.concatenate([np.full(len(lo), dq), np.full(len(tangential), 2.0 * dq)])
    roots = _newton_circle(_stacks([f])[np.zeros(len(seeds), dtype=int)], seeds, widths, residual)
    bracketed = roots[: len(lo)]
    exact = dvals[change] == 0.0
    bracketed[exact] = lo[exact]
    for i in np.flatnonzero(np.isnan(bracketed)):
        bracketed[i] = _bisect_root(f.derivative(), lo[i], lo[i] + dq)
    return _dedupe_points(_canonical_mod1(roots[~np.isnan(roots), None]))


def _bisect_root(fp: FourierFunction, lo: float, hi: float) -> float:
    flo = fp(lo)
    if flo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fp(mid)
        if abs(fm) <= NEWTON_RESIDUAL or hi - lo < 1e-16:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _critical_points_torus(f: FourierFunction, grids: np.ndarray, residual: float) -> np.ndarray:
    gn = np.max(np.abs(grids[1:3]), axis=0)
    seeds = np.argwhere(_local_max_mask(-gn)) / grids.shape[-1]
    roots = _newton_torus(_stacks([f])[np.zeros(len(seeds), dtype=int)], seeds, residual)
    return _dedupe_points(_canonical_mod1(roots[~np.isnan(roots[:, 0])]))


def _cluster_values(values: Iterable[float], tol: float) -> list[float]:
    vs = sorted(values)
    if not vs:
        return []
    clusters: list[list[float]] = [[vs[0]]]
    for v in vs[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [float(np.mean(c)) for c in clusters]


def critical_set(f: FourierFunction, tol: float = VALUE_CLUSTER_TOL) -> CriticalSet:
    """All critical points found at scan resolution, Newton refined.

    Sign-change roots of f' (circle) or simultaneous zeros of the gradient
    (torus) plus tangential zeros; values are clustered at tol and always
    include the global extremum values, whose attaining_set record (at the
    default tolerance) rides along as extrema.  A plateau (more than 1% of
    scan points with |grad f| below the point tolerance) sets the plateau
    flag and contributes its value once.
    """
    grids = _scan(f)
    dnorm = np.max(np.abs(grids[1 : 1 + f.domain.ndim]), axis=0)
    plateau = float(np.mean(dnorm < PLATEAU_POINT_TOL)) > PLATEAU_FRACTION
    point_tol = NEWTON_RESIDUAL * max(1.0, float(np.max(dnorm)))
    (ext,) = _records([f], [grids], VALUE_CLUSTER_TOL)
    if float(np.max(dnorm)) < PLATEAU_POINT_TOL:
        # constant function: every point is critical, report the value once
        points, values, plateau = ((0.0,) * f.domain.ndim,), (f.mean_value,), True
    else:
        find = _critical_points_circle if f.domain.kind == "S1" else _critical_points_torus
        pts = find(f, grids, point_tol)
        values = list(f(pts[:, 0] if f.domain.ndim == 1 else pts)) + [ext.vmax, ext.vmin]
        pts = _dedupe_points(np.concatenate([pts, ext.max_points[:1], ext.min_points[:1]]))
        points = tuple(tuple(float(x) for x in p) for p in pts)
        values = tuple(_cluster_values(values, tol))
    return CriticalSet(
        points=points,
        values=values,
        tolerance=tol,
        extrema=ext,
        plateau=plateau,
        point_tolerance=point_tol,
    )
