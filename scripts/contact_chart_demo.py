#!/usr/bin/env python3
"""Walk one circle contactomorphism through the whole contact tool chain.

Builds a seeded random map x -> x + f(x), verifies the product chart and
the Legendrian property of its graph numerically, prints the translated
point spectrum and both norms, and closes with the optimizer upper bound.
Exits 1 when a chart residual (pullback, graph beta or chart image)
exceeds 1e-12, or the upper bound's gap over the spectral norm leaves
[-1e-9, 1e-4].

Usage:
    python3 scripts/contact_chart_demo.py --seed 5 --c1 0.35
"""

import argparse

import numpy as np

from jetflat.contact import (
    ProductChartMap,
    graph_beta_residuals,
    graph_of,
    graph_points,
    shelukhin_norm_upper,
    spectral_norm,
    translated_points,
)
from jetflat.sampling import random_contactomorphism


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--degree", type=int, default=6)
    ap.add_argument("--c1", type=float, default=0.35, help="target max|f'|")
    ap.add_argument("--restarts", type=int, default=8)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    phi = random_contactomorphism(rng, degree=args.degree, c1_target=args.c1)
    print(f"displacement degree {phi.displacement.degree}, max|f'| = {phi.c1_size():.4f}")
    print(f"min(1 + f') = {phi.min_jacobian():.4f}")

    pts = rng.uniform(-1.0, 1.0, (1000, 3))
    vecs = rng.standard_normal((1000, 3))
    pullback = ProductChartMap.pullback_residuals(pts, vecs).max()
    print(f"chart pullback residual (random samples): {pullback:.2e}")

    xs = rng.uniform(0.0, 1.0, 1000)
    beta = graph_beta_residuals(phi, xs).max()
    print(f"graph beta residual (graph tangents):     {beta:.2e}")

    # the chart sends the graph (x, x + f, log(1 + f')) to the 1-jet (x, g', g) of g = graph_of(phi);
    # the residual is taken relative to 1 + max|g'|
    g = graph_of(phi).generator
    gp = g.derivative()(xs)
    jet = np.stack([xs, gp, g(xs)], axis=1)
    image = np.abs(ProductChartMap.apply(graph_points(phi, xs)) - jet).max() / (1.0 + np.abs(gp).max())
    print(f"chart image residual (graph to 1-jet):    {image:.2e}")

    spec = translated_points(phi)
    print(f"translated-point spectrum ({len(spec.lengths)} values):")
    for v in spec.lengths:
        print(f"    {v:+.9f}")

    norm = spectral_norm(phi)
    print(f"c_plus = {norm.c_plus:.9f}, c_minus = {norm.c_minus:.9f}, norm = {norm.norm:.9f}")
    if norm.c1_advisory:
        print("  (advisory: outside the C1-small regime)")

    upper = shelukhin_norm_upper(phi, knots=6, restarts=args.restarts, seed=args.seed)
    gap = upper - norm.norm
    print(f"optimizer upper bound = {upper:.9f}  (gap {gap:.2e})")
    ok = max(pullback, beta, image) <= 1e-12 and -1e-9 <= gap <= 1e-4
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
