"""One-jet-space model: jet-graph Legendrians, Reeb chords, pointwise order.

The ambient space is the 1-jet space of the base manifold with contact form
dz - p.dq.  A Legendrian here is the graph of the 1-jet of a generating
function f, i.e. the set {(q, df(q), f(q))}; the Reeb flow translates the z
coordinate, and a Reeb chord between two jet graphs over the point q has
length f1(q) - f0(q) with both slopes agreeing, so chord lengths are exactly
the critical values of the generator difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .config import EQUALITY_TOL
from .errors import DimensionMismatch
from .fourier import CriticalSet, DomainDescriptor, FourierFunction, _rounding, critical_sets, extremum


@dataclass(frozen=True)
class JetLegendrian:
    """Graph of the 1-jet of a generating function.

    Two jet graphs are equal iff their generators are (the map from
    functions to jet graphs is injective).
    """

    generator: FourierFunction

    @property
    def domain(self) -> DomainDescriptor:
        return self.generator.domain

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetLegendrian):
            return NotImplemented
        return self.generator == other.generator

    __hash__ = None


def zero_section(domain: DomainDescriptor | None = None) -> JetLegendrian:
    from .fourier import CIRCLE

    return JetLegendrian(FourierFunction.zero(domain if domain is not None else CIRCLE))


@dataclass(frozen=True)
class ChordSpectrum:
    """Sorted Reeb-chord lengths between two jet graphs (units: Reeb time)."""

    lengths: tuple[float, ...]
    source: CriticalSet

    @property
    def plateau(self) -> bool:
        return self.source.plateau

    def contains(self, value: float, tol: float | None = None) -> bool:
        t = self.source.tolerance if tol is None else tol
        return any(abs(value - v) <= t for v in self.lengths)


def reeb_translate(legendrian: JetLegendrian, t: float) -> JetLegendrian:
    """Push a jet graph along the Reeb flow for time t (z-translation)."""
    return JetLegendrian(legendrian.generator + float(t))


def chord_spectra(
    pairs: Iterable[tuple[JetLegendrian, JetLegendrian]], tol: float = EQUALITY_TOL
) -> list[ChordSpectrum]:
    """Reeb-chord lengths from l0 to l1 for every pair (l1, l0): critical values of f1 - f0, in one batch."""
    diffs = []
    for l1, l0 in pairs:
        if l1.domain != l0.domain:
            raise DimensionMismatch("chord spectrum of Legendrians over different bases")
        diffs.append(l1.generator - l0.generator)
    return [ChordSpectrum(lengths=cs.values, source=cs) for cs in critical_sets(diffs, tol)]


def chord_spectrum(
    l1: JetLegendrian, l0: JetLegendrian, tol: float = EQUALITY_TOL
) -> ChordSpectrum:
    """Reeb-chord lengths from l0 to l1: critical values of f1 - f0."""
    return chord_spectra([(l1, l0)], tol)[0]


def pointwise_leq(l1: JetLegendrian, l0: JetLegendrian) -> bool:
    """Chart realization of the partial order: true iff f1 <= f0 everywhere.

    For jet graphs the global order relation is exactly the pointwise order
    of the generators, so the comparison reduces to one extremum, taken as
    non-positive up to rounding of the difference's coefficient sum.
    """
    if l1.domain != l0.domain:
        raise DimensionMismatch("order comparison of Legendrians over different bases")
    d = l1.generator - l0.generator
    return extremum(d, "max").value <= _rounding(abs(d.coeffs).sum())
