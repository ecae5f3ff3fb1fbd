#!/usr/bin/env python3
"""Digest of the extremum engine's records and critical sets on a fixed list of functions.

Builds 160 functions from one seed: random circle functions of every
degree 0-64 (two each), circle constants, tied and twin maxima, a maximum
straddling q = 0, a near-constant and scaled copies, and random, constant
and near-constant torus functions of degrees 1-4.  It runs attaining_sets
and critical_sets on the whole list in one batch each, at two tolerances,
and prints the sha256[:16] of every number they return, as exact hex
strings: the record's values and points, and the critical set's points,
values, point_tolerance and plateau flag.  Two source trees that print the
same combined digest give the engine the same bits on every function:

    PYTHONPATH=<tree>/src python3 scripts/engine_digest.py
"""

import hashlib
import sys

import numpy as np

from jetflat.fourier import TORUS2, FourierFunction, attaining_sets, critical_sets
from jetflat.sampling import random_function

SEED = 1
TOLERANCES = (1e-9, 1e-6)


def _functions() -> list[FourierFunction]:
    rng = np.random.default_rng(SEED)
    circle = FourierFunction.from_circle_coeffs
    fs = [random_function(rng, degree=d, decay=float(rng.uniform(0.0, 2.0))) for d in [*range(65)] * 2]
    w = 2 * np.pi * 1e-5  # cos 2 pi k (q + 1e-5) peaks between the last grid point and 0
    fs += [
        FourierFunction.constant(0.0),
        FourierFunction.constant(0.25),
        FourierFunction.constant(-3e8),
        circle(0.5, [0.999, -0.25]),  # tied maxima at +-arccos(0.999) / 2 pi
        circle(0.0, [2.5e-11, 1.0]),  # twin maxima at 0 and 1/2, 5e-11 apart
        circle(0.0, [0.0, 0.0, 1.0]),  # three equal maxima
        circle(0.05, [np.cos(w), 0.0, 0.01 * np.cos(3 * w)], [-np.sin(w), 0.0, -0.01 * np.sin(3 * w)]),
        circle(0.3, [1e-13], [2e-13]),  # near-constant
        circle(1.0 - 1e-15, [1e-15]),  # within rounding of a constant
    ]
    fs += [scale * random_function(rng, degree=6) for scale in (2.0**-30, 2.0**30, 1e-8, 1e8)]
    fs += [random_function(rng, TORUS2, d, decay=float(rng.uniform(0.0, 2.0))) for d in [1, 2, 3, 4] * 3]
    fs += [
        FourierFunction.constant(0.3, TORUS2),
        FourierFunction.from_torus_coeffs(0.3, [[0.0, 1e-13], [0.0, 0.0]]),  # near-constant
        FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]]),  # separable: cos 2 pi x + cos 2 pi y
        FourierFunction.from_torus_coeffs(0.0, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        1e-6 * random_function(rng, TORUS2, 2),
    ]
    return fs


def _hex(xs) -> str:
    return " ".join(float(x).hex() for x in np.ravel(xs))


def _record_lines(r) -> list[str]:
    return [f"{r.vmax.hex()} {r.vmin.hex()}", _hex(r.max_points), _hex(r.min_points)]


def main() -> int:
    fs = _functions()
    parts = {}
    for tol in TOLERANCES:
        lines = [line for r in attaining_sets(fs, tol) for line in _record_lines(r)]
        parts[f"attaining {tol:g}"] = lines
        lines = []
        for cs in critical_sets(fs, tol):
            lines += [_hex(cs.points), _hex(cs.values), f"{cs.point_tolerance.hex()} {cs.plateau}"]
            lines += _record_lines(cs.extrema)
        parts[f"critical {tol:g}"] = lines
    digests = []
    for name, lines in parts.items():
        digests.append(f"{name} {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()[:16]}")
        print(digests[-1], flush=True)
    print(f"functions {len(fs)}")
    print(f"combined {hashlib.sha256(chr(10).join(digests).encode()).hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
