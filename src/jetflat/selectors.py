"""Order spectral selectors, spectral distance, and sup-norm length functionals.

In the jet chart the selectors of a pair of jet graphs are the extrema of
the generator difference,

    ell_plus = max (f1 - f0),   ell_minus = min (f1 - f0),

and the induced spectral distance max(ell_plus, -ell_minus) equals the sup
norm of the difference.  The chart makes these formulas global, so no
smallness of the generators is enforced here.  A piecewise-linear path's
length in that metric is the sum of its segment sup norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import EQUALITY_TOL
from .errors import DimensionMismatch, MalformedPath, ViolationReport
from .fourier import _rounding, attaining_set, attaining_sets, sup_norms_by_squaring
from .jets import ChordSpectrum, JetLegendrian, chord_spectra, chord_spectrum, reeb_translate
from .paths import IsotopyPath


@dataclass(frozen=True)
class SelectorReport:
    """Selector pair with the induced distance and spectrum membership."""

    ell_plus: float
    ell_minus: float
    d_spec: float
    plus_in_spectrum: bool
    minus_in_spectrum: bool
    spectrum: ChordSpectrum

    @property
    def in_spectrum(self) -> bool:
        return self.plus_in_spectrum and self.minus_in_spectrum


def _cluster_tol(membership_tol: float) -> float:
    """The clustering tol of spectra read at membership_tol: never coarser than the default, as a coarse mean drifts off the extrema."""
    return min(membership_tol, EQUALITY_TOL)


def selectors(
    l1: JetLegendrian,
    l0: JetLegendrian,
    membership_tol: float = EQUALITY_TOL,
) -> SelectorReport:
    """Spectral selectors of an ordered pair of jet graphs.

    ell_plus/ell_minus are the extrema of the generator difference, read
    from the extrema record of the chord spectrum's own scan; the
    membership flags record whether they land in the root-found Reeb-chord
    spectrum, clustered at _cluster_tol, within membership_tol.
    """
    spec = chord_spectrum(l1, l0, tol=_cluster_tol(membership_tol))
    ext = spec.source.extrema
    return SelectorReport(
        ell_plus=ext.vmax,
        ell_minus=ext.vmin,
        d_spec=ext.norm,
        plus_in_spectrum=spec.contains(ext.vmax, membership_tol),
        minus_in_spectrum=spec.contains(ext.vmin, membership_tol),
        spectrum=spec,
    )


def spectral_distance(l1: JetLegendrian, l0: JetLegendrian) -> float:
    """max(ell_plus, -ell_minus) = max|f1 - f0|, without the chord spectrum."""
    if l1.domain != l0.domain:
        raise DimensionMismatch("spectral distance of Legendrians over different bases")
    return attaining_set(l1.generator - l0.generator).norm


def sch_length(path: IsotopyPath) -> float:
    """Sup-norm length of a piecewise-linear path.

    The generating Hamiltonian is constant on each segment, so the time
    integral of its sup norm collapses to the sum of segment sup norms,
    independent of the time parametrization.
    """
    if not isinstance(path, IsotopyPath):
        raise MalformedPath("sch_length expects an IsotopyPath")
    return float(sum(r.norm for r in attaining_sets(path.segment_deltas())))


@dataclass(frozen=True)
class HamiltonianBounds:
    """The chain  int min H <= ell_minus <= ell_plus <= int max H."""

    int_min_h: float
    ell_minus: float
    ell_plus: float
    int_max_h: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.int_min_h, self.ell_minus, self.ell_plus, self.int_max_h)

    def worst_slack(self) -> float:
        return min(
            self.ell_minus - self.int_min_h,
            self.ell_plus - self.ell_minus,
            self.int_max_h - self.ell_plus,
        )


def hamiltonian_bounds_check(path: IsotopyPath, slack: float = EQUALITY_TOL) -> HamiltonianBounds:
    """Selector bounds by the time integrals of the Hamiltonian extrema.

    For piecewise-linear paths the integrals are the sums of the signed
    segment extrema.  The chain must hold; a violation beyond the slack is
    an implementation bug and raises ViolationReport.
    """
    *segs, total = attaining_sets([*path.segment_deltas(), path.knots[-1] - path.knots[0]])
    int_min = float(sum(r.vmin for r in segs))
    int_max = float(sum(r.vmax for r in segs))
    report = HamiltonianBounds(int_min, total.vmin, total.vmax, int_max)
    if report.worst_slack() < -slack:
        raise ViolationReport(
            f"selector bound chain violated: {report.as_tuple()} (slack {report.worst_slack():.3e})"
        )
    return report


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------


@dataclass
class AxiomResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok and len(self.failures) < 8:
            self.failures.append(detail)
        elif not ok:
            self.failures[-1] = "... more failures suppressed"


@dataclass
class AxiomSuiteReport:
    results: list[AxiomResult]
    sample_size: int
    tolerance: float
    membership_tolerance: float

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def by_name(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "tolerance": self.tolerance,
            "membership_tolerance": self.membership_tolerance,
            "all_pass": self.all_pass,
            "axioms": {
                r.name: {"pass": r.passed, "checks": r.checks, "failures": r.failures}
                for r in self.results
            },
        }


def axiom_suite(
    sample: Sequence[JetLegendrian],
    tol: float = EQUALITY_TOL,
    membership_tol: float = EQUALITY_TOL,
) -> AxiomSuiteReport:
    """Check the selector axioms over all pairs and triples of the sample.

    Covered: normalization at the diagonal, the Reeb shift identity,
    monotonicity along constructed comparable pairs, both triangle
    inequalities, Poincare duality, non-degeneracy of the induced distance,
    and spectrality against root-found chord spectra, clustered as
    selectors clusters them (_cluster_tol).  Failures are collected per
    axiom, never raised.
    """
    if not sample:
        raise ValueError("sample must be nonempty")
    n = len(sample)
    gens = [l.generator for l in sample]

    # ell_pm(i, j) from the records of the chord spectra for i <= j and of one
    # batch for i > j: each pair scanned once, duality comparing the routes
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    spectra = dict(zip(upper, chord_spectra(((sample[i], sample[j]) for i, j in upper), _cluster_tol(membership_tol))))
    lower = iter(attaining_sets(gens[i] - gens[j] for i in range(n) for j in range(i)))
    pairs = [spectra[i, j].source.extrema if i <= j else next(lower) for i in range(n) for j in range(n)]
    lp = np.array([r.vmax for r in pairs]).reshape(n, n)
    lm = np.array([r.vmin for r in pairs]).reshape(n, n)

    normalization = AxiomResult("normalization")
    reeb_shift = AxiomResult("reeb_shift")
    monotonicity = AxiomResult("monotonicity")
    triangle_plus = AxiomResult("triangle_plus")
    triangle_minus = AxiomResult("triangle_minus")
    duality = AxiomResult("poincare_duality")
    non_degeneracy = AxiomResult("non_degeneracy")
    spectrality = AxiomResult("spectrality")

    for i in range(n):
        ok = abs(lp[i, i]) <= tol and abs(lm[i, i]) <= tol
        normalization.record(ok, f"ell_pm({i},{i}) = ({lp[i,i]:.3e}, {lm[i,i]:.3e})")

    shift = 0.37
    shifted = [reeb_translate(l, shift).generator for l in sample]
    sh = iter(attaining_sets(si - gj for si in shifted for gj in gens))
    for i in range(n):
        for j in range(n):
            r = next(sh)
            ok = abs(r.vmax - (shift + lp[i, j])) <= tol and abs(r.vmin - (shift + lm[i, j])) <= tol
            reeb_shift.record(ok, f"shift identity failed at pair ({i},{j})")

    # comparable pairs by the squaring route: g_i <= g_j + c_ij with
    # c_ij = sup|g_i - g_j| = sqrt(max (g_i - g_j)^2), and the selectors of
    # the raised g_j are its ell_pm shifted by c_ij (the Reeb shift identity);
    # c_ij must also equal d_spec(i, j), else the two routes disagree
    c = np.zeros((n, n))
    apart = [(i, j) for i, j in upper if i < j]
    for (i, j), cij in zip(apart, sup_norms_by_squaring(gens[i] - gens[j] for i, j in apart)):
        c[i, j] = c[j, i] = cij
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if lp[i, j] > c[i, j] + tol:
                monotonicity.record(False, f"constructed pair ({i},{j}) not comparable")
                continue
            d = max(lp[i, j], -lm[i, j])
            if c[i, j] > d + tol:
                msg = f"squaring route {c[i, j]:.3e} above d_spec({i},{j}) = {d:.3e}"
                monotonicity.record(False, msg)
                continue
            for k in (0, (i + j) % n):
                ok = lp[i, k] <= lp[j, k] + c[i, j] + tol and lm[i, k] <= lm[j, k] + c[i, j] + tol
                monotonicity.record(ok, f"monotonicity failed at ({i},{j}) vs {k}")

    for i in range(n):
        for j in range(n):
            for k in range(n):
                ok = lp[i, k] <= lp[i, j] + lp[j, k] + tol
                triangle_plus.record(ok, f"ell_plus triangle failed at ({i},{j},{k})")
                ok = lm[i, k] >= lm[i, j] + lm[j, k] - tol
                triangle_minus.record(ok, f"ell_minus triangle failed at ({i},{j},{k})")

    for i in range(n):
        for j in range(n):
            ok = abs(lp[i, j] + lm[j, i]) <= tol
            duality.record(ok, f"duality failed at ({i},{j})")

    for i in range(n):
        for j in range(n):
            d = max(lp[i, j], -lm[i, j])
            if d <= tol:
                coef = np.abs((gens[i] - gens[j]).coeffs)
                # each cos/sin coefficient is at most 2 sup|f| per axis, so
                # sup|f| <= tol bounds the real coefficients by 2^ndim tol,
                # up to the rounding of d_spec
                non_degeneracy.record(
                    coef.max() <= 2.0 ** gens[i].domain.ndim * tol + _rounding(coef.sum()),
                    f"d_spec({i},{j}) = {d:.3e} but coefficient gap {coef.max():.3e}",
                )
            else:
                non_degeneracy.record(True, "")

    for (i, j), spec in spectra.items():
        ok = spec.contains(lp[i, j], membership_tol) and spec.contains(lm[i, j], membership_tol)
        spectrality.record(ok, f"ell_pm({i},{j}) not in spectrum at tol {membership_tol:.1e}")

    return AxiomSuiteReport(
        results=[
            normalization,
            reeb_shift,
            monotonicity,
            triangle_plus,
            triangle_minus,
            duality,
            non_degeneracy,
            spectrality,
        ],
        sample_size=n,
        tolerance=tol,
        membership_tolerance=membership_tol,
    )
