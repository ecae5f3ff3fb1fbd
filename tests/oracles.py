"""Independent test oracles: direct trig summation, dense grids, grid sums.

Nothing here touches the package's evaluation or refinement machinery; the
formulas are written out from the real cos/sin coefficients so the oracles
stay independent of the code paths they check.  The partial derivatives
are written out the same way, term by term at points, for the package's
derivative stacks to be checked against.
"""

from itertools import zip_longest

import numpy as np


def eval_direct(a0, cos_coeffs, sin_coeffs, x):
    """Plain term-by-term series summation."""
    x = np.asarray(x, dtype=float)
    total = np.full(x.shape if x.shape else (1,), float(a0))
    for k, c in enumerate(cos_coeffs, start=1):
        total = total + c * np.cos(2 * np.pi * k * x)
    for k, s in enumerate(sin_coeffs, start=1):
        total = total + s * np.sin(2 * np.pi * k * x)
    return total if x.shape else float(total[0])


def eval_torus_direct(a0, cc, cs, sc, ss, pts):
    """Plain double-loop summation of the torus cos/sin blocks at points (m, 2)."""
    pts = np.asarray(pts, dtype=float)
    total = np.full(len(pts), float(a0))
    for k1 in range(len(cc)):
        c1, s1 = np.cos(2 * np.pi * k1 * pts[:, 0]), np.sin(2 * np.pi * k1 * pts[:, 0])
        for k2 in range(len(cc)):
            c2, s2 = np.cos(2 * np.pi * k2 * pts[:, 1]), np.sin(2 * np.pi * k2 * pts[:, 1])
            total = total + cc[k1][k2] * c1 * c2 + cs[k1][k2] * c1 * s2 + sc[k1][k2] * s1 * c2 + ss[k1][k2] * s1 * s2
    return total


def _parabolic_peak(vm, v0, vp):
    denom = 2.0 * v0 - vm - vp
    if denom <= 0.0:
        return v0
    return v0 + (vp - vm) ** 2 / (8.0 * denom)


def _grid_peak(vals):
    """max of a periodic grid plus 3-point parabolic refinement."""
    i = int(np.argmax(vals))
    return _parabolic_peak(vals[i - 1], vals[i], vals[(i + 1) % len(vals)])


def dense_max(a0, cos_coeffs, sin_coeffs, n=1 << 20):
    """max f via a dense grid plus 3-point parabolic refinement."""
    return _grid_peak(eval_direct(a0, cos_coeffs, sin_coeffs, np.arange(n) / n))


def dense_sup_norm(a0, cos_coeffs, sin_coeffs, n=1 << 20):
    """max |f| refined on each signed side separately, from one grid.

    Negating each term negates the sum exactly, so -vals is the grid of -f.
    """
    vals = eval_direct(a0, cos_coeffs, sin_coeffs, np.arange(n) / n)
    return max(_grid_peak(vals), _grid_peak(-vals))


def grid_path_gap(knot_values):
    """Sum of segment sup norms minus endpoint sup norm on shared samples."""
    knot_values = np.asarray(knot_values, dtype=float)
    deltas = np.diff(knot_values, axis=0)
    return float(
        np.sum(np.max(np.abs(deltas), axis=1))
        - np.max(np.abs(knot_values[-1] - knot_values[0]))
    )


def dedupe_points_loop(points, tol):
    """Greedy merge in the circular sup metric, one pair at a time, sorted.

    The pairwise loop the package's vectorized _dedupe_points replaced,
    kept as its bit-for-bit reference.
    """
    if len(points) == 0:
        return points
    kept = []
    for p in points:
        dup = False
        for q in kept:
            d = np.abs(p - q)
            if np.max(np.minimum(d, 1.0 - d)) <= tol:
                dup = True
                break
        if not dup:
            kept.append(p)
    order = sorted(range(len(kept)), key=lambda i: tuple(kept[i]))
    return np.array([kept[i] for i in order])


def partials_direct(a0, cos_coeffs, sin_coeffs, x):
    """(f, f', f'') at x, summing the differentiated series term by term."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((3,) + x.shape)
    out[0] = a0
    for k, (a, b) in enumerate(zip_longest(cos_coeffs, sin_coeffs, fillvalue=0.0), start=1):
        w = 2 * np.pi * k
        c, s = np.cos(w * x), np.sin(w * x)
        out = out + np.array([a * c + b * s, w * (b * c - a * s), -w * w * (a * c + b * s)])
    return out


def companion_critical_points(a0, cos_coeffs, sin_coeffs, polish=2):
    """The critical points of a circle series on [0, 1), from the eigenvalues of a companion matrix.

    With z = exp(2 pi i q), z^D f'(q) is a polynomial of degree 2D in z whose
    coefficient of z^(D + k) is pi k (b_k + i a_k) and of z^(D - k) is
    pi k (b_k - i a_k), D the top frequency with a nonzero coefficient; its
    roots on the unit circle are the critical points of f.  Only
    numpy.linalg.eigvals and the term-by-term partials_direct are used: the
    eigenvalues within 1e-3 of the circle are mapped to q = arg z / 2 pi,
    polished by `polish` Newton steps on f', and kept where |f'| is below
    1e-9 of its bound sum_k 2 pi k r_k.  A constant has none.  Boyd, "Computing the
    zeros, maxima and inflection points of Chebyshev, Legendre and Fourier
    series", J. Eng. Math. 56 (2006).
    """
    pairs = np.array(list(zip_longest(cos_coeffs, sin_coeffs, fillvalue=0.0)), dtype=float).reshape(-1, 2)
    top = np.flatnonzero(np.hypot(pairs[:, 0], pairs[:, 1]))
    if not len(top):
        return np.zeros(0)
    d = top[-1] + 1
    a, b = pairs[:d, 0], pairs[:d, 1]
    k = np.arange(1, d + 1)
    poly = np.zeros(2 * d + 1, dtype=complex)  # poly[j] multiplies z^j
    poly[d + k] = np.pi * k * (b + 1j * a)
    poly[d - k] = np.pi * k * (b - 1j * a)
    companion = np.zeros((2 * d, 2 * d), dtype=complex)
    companion[1:, :-1] = np.eye(2 * d - 1)
    companion[:, -1] = -poly[:-1] / poly[-1]
    z = np.linalg.eigvals(companion)
    q = np.mod(np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-3]) / (2 * np.pi), 1.0)
    with np.errstate(all="ignore"):
        for _ in range(polish):
            _, f1, f2 = partials_direct(a0, a, b, q)
            q = q - np.where(f2 != 0.0, f1 / f2, 0.0)  # a double root's f'' may vanish with f'
        slope = partials_direct(a0, a, b, q)[1]
    bound = np.sum(2 * np.pi * k * np.hypot(a, b))
    return np.sort(np.mod(q[np.abs(slope) <= 1e-9 * bound], 1.0))


def torus_partials_direct(a0, cc, cs, sc, ss, pts):
    """(f, f_1, f_2, f_11, f_12, f_22) at points (m, 2), by a double loop over the differentiated terms.

    The term of block coefficient a at (k1, k2) is a u(q1) v(q2), with u the
    cos or sin of 2 pi k1 q1 and v that of 2 pi k2 q2.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.zeros((6, len(pts)))
    out[0] = a0
    for k1 in range(len(cc)):
        w1 = 2 * np.pi * k1
        c1, s1 = np.cos(w1 * pts[:, 0]), np.sin(w1 * pts[:, 0])
        for k2 in range(len(cc)):
            w2 = 2 * np.pi * k2
            c2, s2 = np.cos(w2 * pts[:, 1]), np.sin(w2 * pts[:, 1])
            for (u, du), row in zip(((c1, -w1 * s1), (s1, w1 * c1)), ((cc, cs), (sc, ss))):
                for (v, dv), block in zip(((c2, -w2 * s2), (s2, w2 * c2)), row):
                    a = block[k1][k2]
                    out = out + a * np.array([u * v, du * v, u * dv, -w1 * w1 * u * v, du * dv, -w2 * w2 * u * v])
    return out


def scan_one_shot(coeffs, n):
    """The scan grids of a function with coeffs (2, K) or (2, K, 2, K), each stage one product.

    The real derivative stack and the basis table B at i/n are written out
    here; S1 is then S B^T for the (3, 2K) stack S, and T2 is (B V) B^T for
    the six (2K, 2K) matrices V, with B V as one (6n, 2K) array.  This is
    the scan without blocks, for the blocked one to be compared against.
    """
    c = np.asarray(coeffs, dtype=float)
    k = c.shape[1]
    w = 2.0 * np.pi * np.arange(k)
    ang = (np.arange(n) / n)[:, None] * w
    b = np.stack([np.cos(ang), np.sin(ang)], axis=1).reshape(n, 2 * k)
    if c.ndim == 2:
        s = np.stack([c, [c[1] * w, c[0] * -w], c * -(w * w)])
        return s.reshape(3, 2 * k) @ b.T
    turn = np.array([w, -w])
    d1 = c[::-1] * turn[:, :, None, None]
    s = np.stack([c, d1, c[..., ::-1, :] * turn, c * -(w * w)[:, None, None], d1[..., ::-1, :] * turn, c * -(w * w)])
    return ((b @ s.reshape(6, 2 * k, 2 * k)).reshape(-1, 2 * k) @ b.T).reshape(6, n, n)
