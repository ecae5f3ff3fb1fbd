"""Independent test oracles: direct trig summation, dense grids, grid sums.

Nothing here touches the package's evaluation or refinement machinery; the
formulas are written out from the real cos/sin coefficients so the oracles
stay independent of the code paths they check.
"""

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


def _parabolic_peak(vm, v0, vp):
    denom = 2.0 * v0 - vm - vp
    if denom <= 0.0:
        return v0
    return v0 + (vp - vm) ** 2 / (8.0 * denom)


def dense_max(a0, cos_coeffs, sin_coeffs, n=1 << 20):
    """max f via a dense grid plus 3-point parabolic refinement."""
    xs = np.arange(n) / n
    vals = eval_direct(a0, cos_coeffs, sin_coeffs, xs)
    i = int(np.argmax(vals))
    return _parabolic_peak(vals[i - 1], vals[i], vals[(i + 1) % n])


def dense_sup_norm(a0, cos_coeffs, sin_coeffs, n=1 << 20):
    """max |f| refined on each signed side separately."""
    hi = dense_max(a0, cos_coeffs, sin_coeffs, n)
    lo = dense_max(-a0, [-c for c in cos_coeffs], [-s for s in sin_coeffs], n)
    return max(hi, lo)


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
