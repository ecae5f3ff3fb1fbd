"""Circle contactomorphisms through the contact product of the circle.

An orientation-preserving circle diffeomorphism x -> x + f(x) with
1 + f' > 0 has the Legendrian graph {(x, phi(x), g(x))} in the product
S1 x S1 x R carrying the contact form  beta = dy - e^s dx, where
g = log(1 + f') is the conformal factor.  The explicit strict chart

    (x, y, s)  ->  (q, p, z) = (x, e^s - 1, y - x)

pulls the jet form dz - p.dq back to beta exactly and sends the diagonal
to the zero section, so the graph of phi becomes the jet graph of the
displacement f itself.  Everything below rides on that identification:
translated points become critical points of f, the spectral norm becomes
the sup norm of f, and contact quasi-autonomy delegates to the jet-side
witness search.  The chart formula is exact on all of the product, but the
norm formulas are advertised only in the C1-small regime max|f'| < 0.5;
beyond it results carry an advisory flag rather than a judgement.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .config import EQUALITY_TOL, WITNESS_DERIV_TOL
from .errors import CrossCheckMismatch, NotADiffeomorphism
from .fourier import CIRCLE, Extrema, FourierFunction, attaining_set
from .geodesics import QAWitness, optimize_path, quasi_autonomy_check
from .jets import ChordSpectrum, JetLegendrian, chord_spectrum, zero_section
from .paths import IsotopyPath
from .selectors import selectors

log = logging.getLogger(__name__)

C1_ADVISORY_THRESHOLD = 0.5


@dataclass(frozen=True)
class CircleContactomorphism:
    """Circle diffeomorphism x -> x + f(x), f stored as a Fourier series.

    Construction scans f' once into the slope record and rejects f unless
    1 + f' > 0, so every instance is a diffeomorphism.
    """

    displacement: FourierFunction
    slope: Extrema = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.displacement.domain.kind != "S1":
            raise NotADiffeomorphism("displacement must live on the circle")
        slope = attaining_set(self.displacement.derivative())
        if 1.0 + slope.vmin <= 0.0:
            raise NotADiffeomorphism(f"min(1 + f') = {1.0 + slope.vmin:.6g} <= 0")
        object.__setattr__(self, "slope", slope)

    def min_jacobian(self) -> float:
        """min over the circle of 1 + f' (positive for a diffeomorphism)."""
        return 1.0 + self.slope.vmin

    def c1_size(self) -> float:
        return self.slope.norm

    def __call__(self, x):
        return np.mod(np.asarray(x, dtype=float) + self.displacement(x), 1.0)


def rotation(c: float) -> CircleContactomorphism:
    return CircleContactomorphism(FourierFunction.constant(c, CIRCLE))


class ProductChartMap:
    """The strict chart (x, y, s) -> (x, e^s - 1, y - x) and its differential.

    Pulls dz - p.dq back to dy - e^s dx and maps the diagonal {(x, x, 0)}
    onto the zero section; both facts are analytic identities, and the
    residual helpers verify them numerically on arbitrary samples.
    """

    @staticmethod
    def apply(points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        x, y, s = points[:, 0], points[:, 1], points[:, 2]
        return np.stack([x, np.expm1(s), y - x], axis=1)

    @staticmethod
    def differential(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        vx, vy, vs = vectors[:, 0], vectors[:, 1], vectors[:, 2]
        return np.stack([vx, np.exp(points[:, 2]) * vs, vy - vx], axis=1)

    @staticmethod
    def product_form(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """beta = dy - e^s dx evaluated on tangent vectors."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        return vectors[:, 1] - np.exp(points[:, 2]) * vectors[:, 0]

    @staticmethod
    def jet_form(points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """dz - p.dq evaluated on tangent vectors of the jet space."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        return vectors[:, 2] - points[:, 1] * vectors[:, 0]

    @classmethod
    def pullback_residuals(cls, points: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """|(jet form of the pushforward) - (product form)| per sample."""
        image = cls.apply(points)
        pushed = cls.differential(points, vectors)
        return np.abs(cls.jet_form(image, pushed) - cls.product_form(points, vectors))


def graph_points(phi: CircleContactomorphism, x: np.ndarray) -> np.ndarray:
    """Graph (x, phi(x), log(1 + f'(x))) in the contact product (lifted y)."""
    x = np.asarray(x, dtype=float)
    f = phi.displacement
    return np.stack([x, x + f(x), np.log1p(f.derivative()(x))], axis=1)


def graph_tangents(phi: CircleContactomorphism, x: np.ndarray) -> np.ndarray:
    """d/dx of the graph parametrization at the sample points."""
    x = np.asarray(x, dtype=float)
    fp = phi.displacement.derivative()
    fpp = fp.derivative()
    jac = 1.0 + fp(x)
    return np.stack([np.ones_like(x), jac, fpp(x) / jac], axis=1)


def graph_beta_residuals(phi: CircleContactomorphism, x: np.ndarray) -> np.ndarray:
    """beta along graph tangents; vanishes when the graph is Legendrian."""
    return np.abs(ProductChartMap.product_form(graph_points(phi, x), graph_tangents(phi, x)))


def graph_of(phi: CircleContactomorphism) -> JetLegendrian:
    """Image of the contactomorphism graph under the chart: the jet graph of f.

    The chart sends (x, x + f, log(1 + f')) to (x, f', f) exactly, so the
    image is the jet graph of the displacement itself; nothing is sampled.
    """
    return JetLegendrian(phi.displacement)


def translated_points(
    phi: CircleContactomorphism, tol: float = EQUALITY_TOL
) -> ChordSpectrum:
    """Translations t with phi(x) = x + t at a point where phi preserves dθ.

    On the circle the conditions read f'(x) = 0 and t = f(x), so the
    spectrum is the set of critical values of the displacement: the
    Reeb-chord spectrum of the graph against the zero section.
    """
    return chord_spectrum(graph_of(phi), zero_section(CIRCLE), tol=tol)


class SpectralNormResult(NamedTuple):
    c_plus: float
    c_minus: float
    norm: float
    c1_advisory: bool


def spectral_norm(phi: CircleContactomorphism, tol: float = EQUALITY_TOL) -> SpectralNormResult:
    """Chart formula for the selector pair of a contactomorphism.

    c_plus = max f, c_minus = min f, norm = max |f|: the selectors of the
    chart image against the zero section at membership tol, so the norm
    shares dist's membership rule; both selector values are asserted to be
    translated-point values.  When max|f'| exceeds the C1 threshold the
    result carries an advisory flag: the chart formula is reported, not
    asserted, outside the small regime.
    """
    c1 = phi.c1_size()
    advisory = c1 >= C1_ADVISORY_THRESHOLD
    if advisory:
        log.warning("spectral_norm outside the C1-small regime (max|f'| = %.3f)", c1)
    r = selectors(graph_of(phi), zero_section(CIRCLE), membership_tol=tol)
    if not r.in_spectrum:
        raise CrossCheckMismatch("selector values missing from the translated-point spectrum")
    return SpectralNormResult(r.ell_plus, r.ell_minus, r.d_spec, advisory)


def contact_qa_check(
    maps: Sequence[CircleContactomorphism], times: Sequence[float] | None = None, tol: float = EQUALITY_TOL
) -> QAWitness | None:
    """Quasi-autonomy of a contact path through its Legendrian graphs.

    The displacement path is fed to the jet-side witness search at tol; a
    witness base point q0 must also be a translated point of every knot,
    f_k'(q0) = 0.  Given the witness that is a condition on knot 0 alone:
    f_k' = f_0' + the derivatives of the segment differences, and those
    vanish at q0, where each attains its maximum.  It holds automatically
    for paths starting at the identity; a failure raises CrossCheckMismatch.
    """
    if not maps:
        raise ValueError("empty contact path")
    knots = tuple(graph_of(m).generator for m in maps)
    path = (
        IsotopyPath(knots=knots, times=tuple(float(t) for t in times))
        if times is not None
        else IsotopyPath.uniform(knots)
    )
    witness = quasi_autonomy_check(path, tol)
    if witness is not None:
        slope = knots[0].derivative()(witness.base_point[0])
        if abs(slope) > WITNESS_DERIV_TOL:
            raise CrossCheckMismatch(
                f"witness base point is not a translated point of knot 0 (f' = {slope:.3e})"
            )
    return witness


def shelukhin_norm_upper(
    phi: CircleContactomorphism,
    knots: int = 6,
    restarts: int = 16,
    seed: int = 0,
) -> float:
    """Optimizer upper bound for the sup-norm path norm of a contactomorphism.

    Runs the variational optimizer from the identity to the displacement in
    the chart and returns the best length.  Its gap against the optimizer's
    certified lower bound sup|f|, the spectral norm, is logged (it should
    close to ~1e-4 in the C1-small regime).
    """
    result = optimize_path(FourierFunction.zero(CIRCLE), phi.displacement, knots=knots, restarts=restarts, seed=seed)
    log.info("shelukhin upper bound %.6g vs spectral norm %.6g (gap %.2e)",
             result.length, result.certified_lower, result.gap)
    return result.length
