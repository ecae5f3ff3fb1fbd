"""Reference extrema for checking benchmark outputs, independent of jetflat.

A function is read straight from its JSON spec into real trigonometric
coefficients.  Its maximum is found by a dense grid scan, then every grid
local maximum that could hide the global one is refined by repeated
quadratic fits on shrinking stencils.  Only function values are used: no
analytic derivatives and no Newton step from the program under test.  Every
value returned is a true function value, so the reference never overshoots
the exact maximum; the refinement brings it to within about 1e-13 of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Refinement stops once the stencil is this narrow; finite differences
# below it lose more to rounding than they gain in resolution.
_MIN_STEP = 1e-6


@dataclass(frozen=True)
class Series:
    """Real trigonometric series on S1 or T2.

    S1: f(x) = a0 + sum_k cos[k] cos(2 pi k x) + sin[k] sin(2 pi k x), k = 1..D.
    T2: f(x, y) = a0 + sum_{k1, k2 = 0..D} cc cos cos + cs cos sin + sc sin cos
    + ss sin sin, with the same block meaning as the jetflat spec.
    """

    domain: str
    a0: float
    blocks: tuple[np.ndarray, ...]

    @classmethod
    def from_spec(cls, spec: dict) -> "Series":
        if spec["domain"] == "S1":
            cos = np.asarray(spec.get("cos", []), dtype=float)
            sin = np.asarray(spec.get("sin", []), dtype=float)
            d = max(len(cos), len(sin))
            cos, sin = np.pad(cos, (0, d - len(cos))), np.pad(sin, (0, d - len(sin)))
            return cls("S1", float(spec.get("a0", 0.0)), (cos, sin))
        c = spec["coeffs"]
        blocks = tuple(np.asarray(c[key], dtype=float) for key in ("cc", "cs", "sc", "ss"))
        return cls("T2", float(c.get("a0", 0.0)), blocks)

    @property
    def degree(self) -> int:
        return len(self.blocks[0]) if self.domain == "S1" else len(self.blocks[0]) - 1

    def _padded(self, d: int) -> tuple[np.ndarray, ...]:
        w = d - self.degree
        if self.domain == "S1":
            return tuple(np.pad(b, (0, w)) for b in self.blocks)
        return tuple(np.pad(b, ((0, w), (0, w))) for b in self.blocks)

    def __sub__(self, other: "Series") -> "Series":
        return scaled_sum([(1.0, self), (-1.0, other)])

    def __neg__(self) -> "Series":
        return Series(self.domain, -self.a0, tuple(-b for b in self.blocks))

    def curvature_bound(self) -> float:
        """Upper bound on every second derivative of a T2 series."""
        k = np.arange(self.degree + 1)
        k2 = TWO_PI**2 * (k[:, None] ** 2 + k[None, :] ** 2)
        return float(np.sum(k2 * sum(np.abs(b) for b in self.blocks)))

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at points of shape (m,) on S1 or (m, 2) on T2."""
        pts = np.asarray(points, dtype=float)
        if self.domain == "S1":
            ang = TWO_PI * pts[:, None] * np.arange(1, self.degree + 1)[None, :]
            return self.a0 + np.cos(ang) @ self.blocks[0] + np.sin(ang) @ self.blocks[1]
        k = np.arange(self.degree + 1)
        ax, ay = TWO_PI * pts[:, :1] * k, TWO_PI * pts[:, 1:] * k
        cx, sx, cy, sy = np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay)
        cc, cs, sc, ss = self.blocks
        out = np.full(len(pts), self.a0)
        for left, block, right in ((cx, cc, cy), (cx, cs, sy), (sx, sc, cy), (sx, ss, sy)):
            out += np.einsum("mi,ij,mj->m", left, block, right)
        return out

    def grid(self, n: int) -> np.ndarray:
        """Values on the uniform grid i/n: shape (n,) on S1, (n, n) on T2."""
        if self.domain == "S1":
            spectrum = np.zeros(n // 2 + 1, dtype=complex)
            spectrum[0] = n * self.a0
            spectrum[1 : self.degree + 1] = 0.5 * n * (self.blocks[0] - 1j * self.blocks[1])
            return np.fft.irfft(spectrum, n)
        ang = TWO_PI * (np.arange(n) / n)[:, None] * np.arange(self.degree + 1)[None, :]
        c, s = np.cos(ang), np.sin(ang)
        cc, cs, sc, ss = self.blocks
        return self.a0 + c @ cc @ c.T + c @ cs @ s.T + s @ sc @ c.T + s @ ss @ s.T


def scaled_sum(terms) -> Series:
    """Sum of weight * series over (weight, series) pairs of one domain."""
    terms = [(float(w), f) for w, f in terms]
    domain = terms[0][1].domain
    if any(f.domain != domain for _, f in terms):
        raise ValueError("domain mismatch")
    d = max(f.degree for _, f in terms)
    blocks = [0.0] * len(terms[0][1].blocks)
    for w, f in terms:
        blocks = [acc + w * b for acc, b in zip(blocks, f._padded(d))]
    return Series(domain, sum(w * f.a0 for w, f in terms), tuple(blocks))


def _circle_maxima(fs: list[Series]) -> np.ndarray:
    """Maximum of each S1 series; all candidates are refined in lockstep."""
    d = max(f.degree for f in fs)
    a0 = np.array([f.a0 for f in fs])
    cos, sin = (np.stack(b) for b in zip(*(f._padded(d) for f in fs)))
    n = max(2048, 64 * d)
    spectrum = np.zeros((len(fs), n // 2 + 1), dtype=complex)
    spectrum[:, 0] = n * a0
    spectrum[:, 1 : d + 1] = 0.5 * n * (cos - 1j * sin)
    vals = np.fft.irfft(spectrum, n, axis=1)
    top = vals.max(axis=1)
    h = 1.0 / n
    k = np.arange(1, d + 1)
    curv = np.sum((TWO_PI * k) ** 2 * (np.abs(cos) + np.abs(sin)), axis=1)
    # a grid local maximum below top - margin cannot sit in the basin of the
    # global maximum, whose value exceeds its nearest node by <= curv * h^2 / 8
    margin = 0.5 * curv * h * h + 1e-12
    local = vals >= (top - margin)[:, None]
    local &= (vals >= np.roll(vals, 1, axis=1)) & (vals >= np.roll(vals, -1, axis=1))
    rows, idx = np.nonzero(local)
    x, step, best = idx * h, h, np.full(len(rows), -np.inf)
    while True:
        ang = TWO_PI * (x[:, None] + step * np.array([-1.0, 0.0, 1.0]))[:, :, None] * k
        v = a0[rows, None] + np.einsum("cpk,ck->cp", np.cos(ang), cos[rows])
        v += np.einsum("cpk,ck->cp", np.sin(ang), sin[rows])
        best = np.maximum(best, v.max(axis=1))
        if step < _MIN_STEP:
            break
        lo, mid, hi = v.T
        bend = lo - 2.0 * mid + hi
        concave = bend < 0.0
        vertex = 0.5 * step * (lo - hi) / np.where(concave, bend, -1.0)
        x = x + np.clip(np.where(concave, vertex, np.where(hi > lo, step, -step)), -step, step)
        step *= 0.25
    np.maximum.at(top, rows, best)
    return top


def sup_abs_many(fs: list[Series]) -> np.ndarray:
    """max |f| of each S1 series."""
    return np.maximum(_circle_maxima(fs), _circle_maxima([-f for f in fs]))


_STENCIL = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float)


def _refine_torus(f: Series, p: np.ndarray, h: float) -> float:
    best = -np.inf
    while True:
        v = f.values(p + h * _STENCIL).reshape(3, 3)
        best = max(best, float(v.max()))
        if h < _MIN_STEP:
            return best
        g = np.array([v[2, 1] - v[0, 1], v[1, 2] - v[1, 0]]) / (2.0 * h)
        hxx = (v[2, 1] - 2.0 * v[1, 1] + v[0, 1]) / h**2
        hyy = (v[1, 2] - 2.0 * v[1, 1] + v[1, 0]) / h**2
        hxy = (v[2, 2] - v[2, 0] - v[0, 2] + v[0, 0]) / (4.0 * h**2)
        det = hxx * hyy - hxy * hxy
        if hxx < 0.0 and det > 0.0:
            step = -np.array([hyy * g[0] - hxy * g[1], hxx * g[1] - hxy * g[0]]) / det
            p = p + np.clip(step, -h, h)
        else:
            i, j = np.unravel_index(int(np.argmax(v)), v.shape)
            p = p + h * np.array([i - 1.0, j - 1.0])
        h *= 0.25


def maximum(f: Series) -> float:
    """Global maximum of f, scanned densely and refined from every candidate."""
    if f.domain == "S1":
        return float(_circle_maxima([f])[0])
    n = max(160, 32 * f.degree)
    vals = f.grid(n)
    top = float(vals.max())
    h = 1.0 / n
    # as on the circle, with the nearest node up to h / sqrt(2) away
    margin = 0.5 * f.curvature_bound() * h * h + 1e-12
    local = vals >= top - margin
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            local &= vals >= np.roll(np.roll(vals, sx, axis=0), sy, axis=1)
    best = top
    for idx in np.argwhere(local):
        best = max(best, _refine_torus(f, idx * h, h))
    return best


def minimum(f: Series) -> float:
    return -maximum(-f)


def sup_abs(f: Series) -> float:
    return max(maximum(f), -minimum(f))


def close(value: float, reference: float, tol: float) -> bool:
    """|value - reference| <= tol * max(1, |reference|)."""
    return abs(value - reference) <= tol * max(1.0, abs(reference))
