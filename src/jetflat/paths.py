"""Piecewise-linear isotopy paths in generating-function space.

A path is a time-knotted list of functions, interpolated linearly in
coefficient space between knots, so the generating Hamiltonian is constant
on each segment and equal to the knot difference divided by the segment
duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedPath
from .fourier import DomainDescriptor, FourierFunction

_TIME_TOL = 1e-12


@dataclass(frozen=True)
class IsotopyPath:
    """Time-knotted path of functions; times increase strictly from 0 to 1."""

    knots: tuple[FourierFunction, ...]
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise MalformedPath("a path needs at least two knots")
        if len(self.knots) != len(self.times):
            raise MalformedPath("knot count must equal time count")
        ts = np.asarray(self.times, dtype=float)
        if not np.isfinite(ts).all() or abs(ts[0]) > _TIME_TOL or abs(ts[-1] - 1.0) > _TIME_TOL:
            raise MalformedPath("times must be finite, start at 0 and end at 1")
        if np.any(np.diff(ts) <= 0):
            raise MalformedPath("times must be strictly increasing")
        dom = self.knots[0].domain
        if any(k.domain != dom for k in self.knots[1:]):
            raise MalformedPath("all knots must share one domain")

    @classmethod
    def uniform(cls, knots) -> "IsotopyPath":
        knots = tuple(knots)
        k = len(knots) - 1
        if k < 1:
            raise MalformedPath("a path needs at least two knots")
        return cls(knots=knots, times=tuple(i / k for i in range(k + 1)))

    @classmethod
    def straight(cls, start: FourierFunction, end: FourierFunction, n_knots: int = 2) -> "IsotopyPath":
        if n_knots < 2:
            raise MalformedPath("a path needs at least two knots")
        delta = end - start
        knots = [start + (i / (n_knots - 1)) * delta for i in range(n_knots)]
        return cls.uniform(knots)

    @property
    def domain(self) -> DomainDescriptor:
        return self.knots[0].domain

    @property
    def n_segments(self) -> int:
        return len(self.knots) - 1

    def segment_deltas(self) -> list[FourierFunction]:
        return [b - a for a, b in zip(self.knots[:-1], self.knots[1:])]

    def subpath(self, i: int, j: int) -> "IsotopyPath":
        """Sub-path between knot indices i < j, times renormalized to [0, 1]."""
        if not 0 <= i < j < len(self.knots):
            raise MalformedPath("bad subpath indices")
        ts = np.asarray(self.times[i : j + 1])
        ts = (ts - ts[0]) / (ts[-1] - ts[0])
        return IsotopyPath(knots=self.knots[i : j + 1], times=tuple(float(t) for t in ts))
