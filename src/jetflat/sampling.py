"""Seeded random generators for functions, Legendrians, paths and maps.

Everything is a pure function of the numpy Generator handed in, so every
randomized suite in the package is reproducible from one integer seed.
"""

from __future__ import annotations

import numpy as np

from .contact import CircleContactomorphism
from .fourier import CIRCLE, DomainDescriptor, FourierFunction, sup_norm
from .jets import JetLegendrian
from .paths import IsotopyPath


def random_function(
    rng: np.random.Generator,
    domain: DomainDescriptor = CIRCLE,
    degree: int = 8,
    amplitude: float = 0.3,
    decay: float = 1.0,
    zero_mean: bool = False,
) -> FourierFunction:
    """Gaussian coefficients with power-law decay in the harmonic index."""
    if domain.kind == "S1":
        k = np.arange(1, degree + 1, dtype=float)
        scale = amplitude / (1.0 + k) ** decay
        a0 = 0.0 if zero_mean else amplitude * rng.standard_normal()
        return FourierFunction.from_circle_coeffs(
            a0, scale * rng.standard_normal(degree), scale * rng.standard_normal(degree)
        )
    k = np.arange(degree + 1, dtype=float)
    scale = amplitude / np.outer(1.0 + k, 1.0 + k) ** decay
    blocks = [scale * rng.standard_normal((degree + 1, degree + 1)) for _ in range(4)]
    a0 = 0.0 if zero_mean else amplitude * rng.standard_normal()
    blocks[0][0, 0] = 0.0
    return FourierFunction.from_torus_coeffs(a0, *blocks)


def random_legendrian(rng: np.random.Generator, **kwargs) -> JetLegendrian:
    return JetLegendrian(random_function(rng, **kwargs))


def random_path(
    rng: np.random.Generator,
    n_knots: int = 5,
    domain: DomainDescriptor = CIRCLE,
    degree: int = 6,
    amplitude: float = 0.3,
) -> IsotopyPath:
    knots = [random_function(rng, domain, degree, amplitude) for _ in range(n_knots)]
    return IsotopyPath.uniform(knots)


def random_quasi_autonomous_path(
    rng: np.random.Generator,
    n_knots: int = 5,
    degree: int = 6,
    amplitude: float = 0.3,
    perturbation: float = 0.0,
) -> IsotopyPath:
    """Knots f_{k+1} = f_k + lambda_k h with lambda_k > 0: one shared witness.

    A nonzero perturbation eps adds eps * g_k, a fresh random g_k per step,
    drawn after the lambdas: the path is then eps away from quasi-autonomy,
    and its length gap grows like eps^2.
    """
    h = random_function(rng, CIRCLE, degree, amplitude)
    start = random_function(rng, CIRCLE, degree, amplitude)
    lams = rng.uniform(0.2, 1.0, n_knots - 1)
    knots = [start]
    for lam in lams:
        step = float(lam) * h
        if perturbation:
            step = step + perturbation * random_function(rng, CIRCLE, degree, amplitude)
        knots.append(knots[-1] + step)
    return IsotopyPath.uniform(knots)


def random_monotone_path(
    rng: np.random.Generator,
    n_knots: int = 5,
    degree: int = 6,
    amplitude: float = 0.2,
) -> IsotopyPath:
    """Each increment is a bump plus a constant at least its sup norm."""
    knots = [random_function(rng, CIRCLE, degree, amplitude)]
    for _ in range(n_knots - 1):
        bump = random_function(rng, CIRCLE, degree, amplitude, zero_mean=True)
        lift = sup_norm(bump) + float(rng.uniform(0.0, 0.5))
        knots.append(knots[-1] + bump + lift)
    return IsotopyPath.uniform(knots)


def random_contactomorphism(
    rng: np.random.Generator,
    degree: int = 6,
    c1_target: float = 0.4,
) -> CircleContactomorphism:
    """Displacement rescaled so max|f'| hits the target below the C1 threshold."""
    f = random_function(rng, CIRCLE, degree, amplitude=0.3)
    size = sup_norm(f.derivative())
    if size > 0.0:
        f = f * (c1_target / size)
    return CircleContactomorphism(f)
