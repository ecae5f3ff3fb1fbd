#!/usr/bin/env python3
"""Optimizer-versus-flat-distance sweep over knot counts.

Draws seeded random endpoint pairs, runs the variational optimizer with an
increasing number of interior knots, and tabulates how far the best found
length sits above the certified lower bound max|f1 - f0|.  That best is the
straight path, which attains the bound, so each row also gives the median
excess of the perturbed restarts over the bound, which shows their descent,
and how many of them are stuck, ending more than 1e-6 above it ('-' for 2
knots, which have no interior knot to move).  A second block
measures the same optimizer on reversal-style detours, where the gap of the
initial path is large and descent has to close it.  A third block sweeps
4-segment paths with steps lambda_k h + eps g_k over the decades eps = 1e-2
.. 1e-10, whose length gap grows like eps^2, through the geodesic check at
tol 1e-9 and 1e-6.  Its gap and witness verdicts must agree whenever
gap <= tol/100 or gap >= 100 tol; it prints the median gap, the mismatch
count and the count of such out-of-band disagreements per decade.  The
script exits 1 when an optimizer gap leaves [-1e-9, 1e-4] or when any
out-of-band disagreement shows.

Usage:
    python3 scripts/geodesic_oracle_sweep.py --pairs 5 --seed 3
"""

import argparse
import sys
import time

import numpy as np

from jetflat.fourier import sup_norm
from jetflat.geodesics import minimizing_geodesic_check, optimize_path
from jetflat.paths import IsotopyPath
from jetflat.sampling import random_function, random_quasi_autonomous_path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--degree", type=int, default=8)
    ap.add_argument("--knots", type=int, nargs="+", default=[2, 4, 6, 10])
    ap.add_argument("--restarts", type=int, default=16)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'pair':>4} {'knots':>5} {'lower':>12} {'best':>12} {'gap':>10} {'restarts':>9} {'stuck':>5} {'secs':>6}")
    ok = True
    for case in range(args.pairs):
        f0 = random_function(rng, degree=args.degree)
        f1 = random_function(rng, degree=args.degree)
        lower = sup_norm(f1 - f0)
        for k in args.knots:
            t0 = time.time()
            r = optimize_path(f0, f1, knots=k, restarts=args.restarts, seed=args.seed + case)
            gap = r.length - lower
            ok &= -1e-9 <= gap <= 1e-4
            excess = [length - lower for length in r.restart_lengths[1:]]
            descent = f"{np.median(excess):.2e}" if excess else "-"
            stuck = sum(x > 1e-6 for x in excess) if excess else "-"
            row = f"{case:>4} {k:>5} {lower:>12.6f} {r.length:>12.6f} {gap:>10.2e}"
            print(f"{row} {descent:>9} {stuck:>5} {time.time()-t0:>6.2f}")

    print("\nreversal detours (gap of the unoptimized path):", file=sys.stderr)
    for case in range(args.pairs):
        f = random_function(rng, degree=args.degree)
        h = random_function(rng, degree=args.degree, zero_mean=True)
        detour = IsotopyPath.uniform([f, f + h, f])
        rep = minimizing_geodesic_check(detour)
        print(
            f"  case {case}: length {rep.length:.6f}, distance {rep.endpoint_distance:.2e}, "
            f"gap {rep.gap:.6f}, minimizing={rep.minimizing}",
            file=sys.stderr,
        )

    print(f"\n{'tol':>6} {'eps':>6} {'median gap':>11} {'mismatches':>10} {'out-of-band':>11}")
    for tol in (1e-9, 1e-6):
        for e in range(2, 11):
            rng = np.random.default_rng([args.seed, e])
            reps = [
                minimizing_geodesic_check(
                    random_quasi_autonomous_path(rng, n_knots=5, degree=args.degree, perturbation=10.0**-e),
                    tol,
                )
                for _ in range(args.pairs)
            ]
            mismatched = [r.gap for r in reps if r.cross_check_mismatch]
            out_of_band = sum(not tol / 100 < g < 100 * tol for g in mismatched)
            ok &= out_of_band == 0
            median = float(np.median([r.gap for r in reps]))
            print(f"{tol:>6.0e} {10.0**-e:>6.0e} {median:>11.2e} {len(mismatched):>10} {out_of_band:>11}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
