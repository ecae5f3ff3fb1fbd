"""Quasi-autonomy detection, geodesic verification, and the path optimizer.

A piecewise-linear isotopy is quasi-autonomous when one base point attains,
with one fixed sign, the sup norm of every segment difference.  On a closed
base an attained maximum is an interior one, so the point is also critical
for each difference: the lifted point rides a single Reeb orbit while the
Hamiltonian realizes +/- its sup norm.  That witness exists exactly when the
sup-norm length of the path collapses onto the flat distance of its
endpoints, which is what the checks here cross-validate.  Both sides use
one tolerance: a point q* attaining the endpoint distance attains every
segment within the gap, and a witness within tol bounds the gap by the
number of segments times tol.

The optimizer is an independent numerical oracle: multi-start subgradient
descent over interior knot coefficients, with the exact endpoint distance
as a certified lower bound.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import (
    EQUALITY_TOL,
    OPTIMIZER_ITERS,
    ORDER_BOUNDARY_TOL,
    RESTART_SIGMA,
    RESTART_STEP0,
    ZERO_SEGMENT_TOL,
)
from .errors import EquivalenceViolation, MalformedPath, ViolationReport
from .fourier import (
    TWO_PI,
    DomainDescriptor,
    Extrema,
    FourierFunction,
    _basis,
    _derivative_stack,
    _grid_basis,
    _newton_circle,
    _newton_torus,
    _series_at,
    _torus_at,
    attaining_sets,
    extremum,
    grid_points,
    sup_norm,
)
from .jets import JetLegendrian, pointwise_leq
from .paths import IsotopyPath
from .selectors import sch_length

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QAWitness:
    """Sign, base point, and per-segment residuals of a quasi-autonomy witness.

    residual_k = epsilon * delta_k(q0) - max|delta_k|; all residuals sit at
    zero up to tolerance when the witness is genuine.
    """

    epsilon: int
    base_point: tuple[float, ...]
    per_knot_residuals: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "base_point": list(self.base_point),
            "per_knot_residuals": list(self.per_knot_residuals),
        }


def _origin(domain: DomainDescriptor) -> tuple[float, ...]:
    return (0.0,) * domain.ndim


def _eval_at(f: FourierFunction, pt: np.ndarray) -> float:
    return float(f(pt if f.domain.ndim > 1 else float(pt[0])))


def common_attaining_point(records: Sequence[Extrema], tol: float = EQUALITY_TOL) -> QAWitness | None:
    """Search for (epsilon, q0) with eps * h_k(q0) >= max|h_k| - tol for all k.

    records are the attaining_set records of the functions h_k, taken at
    tol; the search evaluates h_k at candidate points only and never scans.
    Near-zero functions are skipped; near-constant ones constrain only the
    sign.  Candidates are the attaining points of the first non-constant
    function for the sign tried, filtered through the attainment condition
    of all others; that set is complete because a witness must attain every
    sup norm.  Residuals are in the original order.
    """
    domain = records[0].f.domain
    active = [r for r in records if r.norm > ZERO_SEGMENT_TOL]

    def witness(eps: int, pt: tuple[float, ...]) -> QAWitness:
        q = np.array(pt)
        res = tuple(0.0 if r.norm <= ZERO_SEGMENT_TOL else eps * _eval_at(r.f, q) - r.norm for r in records)
        return QAWitness(eps, tuple(float(x) for x in pt), res)

    if not active:
        return witness(1, _origin(domain))
    for eps in (1, -1):
        candidates: np.ndarray | None = None
        for r in active:
            if (r.vmax if eps == 1 else -r.vmin) < r.norm - tol:
                break  # this sign never attains the sup norm on this segment
            if r.vmax - r.vmin <= 1e-12:
                continue  # constant: no point constraint
            if candidates is None:
                candidates = r.max_points if eps == 1 else r.min_points
            else:
                candidates = candidates[[eps * _eval_at(r.f, p) >= r.norm - tol for p in candidates]]
            if len(candidates) == 0:
                break
        else:
            # no candidates means only constants: any base point witnesses this sign
            return witness(eps, _origin(domain) if candidates is None else min(tuple(p) for p in candidates))
    return None


def _records(path: IsotopyPath, tol: float) -> list[Extrema]:
    return attaining_sets(path.segment_deltas(), tol)


def quasi_autonomy_check(path: IsotopyPath, tol: float = EQUALITY_TOL) -> QAWitness | None:
    """Witness search for the whole path at tol; None when no witness exists.

    The witness point must attain every segment's sup norm with a common
    sign.  No separate critical-point test is needed: on a closed base an
    attained maximum is interior, so the slope of the lifted point never
    moves and it stays on one Reeb orbit.
    """
    return common_attaining_point(_records(path, tol), tol)


@dataclass(frozen=True)
class SegmentationReport:
    """Maximal quasi-autonomous windows of a path, in knot indices.

    A window (i, j) covers knots i..j, i.e. segments i..j-1.  A single
    segment always carries a witness, so the windows cover every segment;
    the multi-segment windows show where consecutive segments share a
    witness (the straddling information).
    """

    windows: tuple[tuple[int, int], ...]
    multi_segment_windows: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "windows": [list(w) for w in self.windows],
            "multi_segment_windows": [list(w) for w in self.multi_segment_windows],
        }


def local_quasi_autonomy_check(path: IsotopyPath) -> SegmentationReport:
    """Maximal knot-index windows on which the witness search succeeds.

    Every segment difference is scanned once, into one extrema record, and
    each window's search reads the records of its segments.  The search
    draws its candidates from the first non-constant segment of a window,
    so extending a window to the right only adds filters: from each start
    the passing windows are exactly those up to one end e(i), and a
    two-pointer sweep finds all maximal windows.
    """
    return _segmentation(_records(path, EQUALITY_TOL), EQUALITY_TOL)


def _segmentation(records: Sequence[Extrema], tol: float) -> SegmentationReport:
    """Maximal windows of consecutive segments whose records share a witness."""
    k = len(records)

    def window_ok(i: int, j: int) -> bool:
        return common_attaining_point(records[i : j + 1], tol) is not None

    # a window from i is maximal exactly when e(i) passes every earlier end,
    # so j carries over from the previous start and only windows beyond it
    # are searched.  Dropping segments on the left changes the candidates,
    # so shrinking is hereditary only up to the tolerances; the sweep never
    # relies on it, since the windows it skips lie inside a stored one.
    windows: list[tuple[int, int]] = []
    j = 0
    for i in range(k):
        j = max(j, i)
        while j + 1 < k and window_ok(i, j + 1):
            j += 1
        win = (i, j + 1)  # knot indices i .. j+1 = segments i .. j
        if not windows or win[1] > windows[-1][1]:
            windows.append(win)
    multi = tuple(w for w in windows if w[1] - w[0] >= 2)
    return SegmentationReport(windows=tuple(windows), multi_segment_windows=multi)


@dataclass(frozen=True)
class IntegralCriterionReport:
    holds: bool
    lhs: float
    rhs: float
    gap: float
    witness: tuple[int, tuple[float, ...]] | None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
            "witness": None
            if self.witness is None
            else {"epsilon": self.witness[0], "point": list(self.witness[1])},
        }


def integral_criterion(
    family: IsotopyPath, tol: float = EQUALITY_TOL
) -> IntegralCriterionReport:
    """Equality of the integrated sup norm with the sup norm of the integral.

    Condition (1): trapezoid(max|g_t|) equals max_x |trapezoid(g_t(x))|;
    condition (2): a single (epsilon, x0) attains eps*g_t(x0) = max|g_t| at
    every sample.  For the sampled data the two are equivalent, and the
    check asserts that; disagreement raises EquivalenceViolation with the
    gap (resolution diagnosis).
    """
    funcs = list(family.knots)
    times = np.asarray(family.times)
    w = np.empty(len(funcs))
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    if len(funcs) > 2:
        w[1:-1] = 0.5 * (times[2:] - times[:-2])
    records = attaining_sets(funcs, tol)
    lhs = float(sum(wi * r.norm for wi, r in zip(w, records)))
    integral = funcs[0] * float(w[0])
    for wi, g in zip(w[1:], funcs[1:]):
        integral = integral + g * float(wi)
    rhs = sup_norm(integral)
    gap = lhs - rhs
    holds = gap <= tol
    found = common_attaining_point(records, tol)
    witness = None if found is None else (found.epsilon, found.base_point)
    if holds != (witness is not None):
        raise EquivalenceViolation(
            f"integral criterion mismatch: gap={gap:.3e}, witness={witness}"
        )
    return IntegralCriterionReport(holds=holds, lhs=lhs, rhs=rhs, gap=gap, witness=witness)


@dataclass(frozen=True)
class GeodesicCheckReport:
    length: float
    endpoint_distance: float
    gap: float
    minimizing: bool
    witness: QAWitness | None
    cross_check_mismatch: bool
    segmentation: SegmentationReport

    def to_json_dict(self) -> dict:
        return {
            "length": self.length,
            "d_spec": self.endpoint_distance,
            "gap": self.gap,
            "minimizing": self.minimizing,
            "qa_witness": None if self.witness is None else self.witness.to_json_dict(),
            "cross_check_mismatch": self.cross_check_mismatch,
            "segmentation": self.segmentation.to_json_dict(),
        }


def minimizing_geodesic_check(path: IsotopyPath, tol: float = EQUALITY_TOL) -> GeodesicCheckReport:
    """Gap between the sup-norm length of a path and its endpoint distance.

    Minimizing means every knot window's length L(i, j) matches the distance
    d(i, j) of its endpoints.  L is additive over knots and d is a metric,
    so the window gaps are superadditive: g(i', j') >= g(i', i) + g(i, j) +
    g(j, j') >= g(i, j) for i' <= i < j <= j'.  The whole path's gap is thus
    the largest, and it alone decides.  The verdict is cross-checked against
    the witness search, which reads the same segment records as the length
    and the segmentation; a disagreement is reported (discretization too
    coarse), not raised.
    """
    records = _records(path, tol)
    length = float(sum(r.norm for r in records))
    dist = sup_norm(path.knots[-1] - path.knots[0])
    gap = length - dist
    witness = common_attaining_point(records, tol)
    minimizing = gap <= tol
    mismatch = minimizing != (witness is not None)
    if mismatch:
        log.warning("geodesic cross-check mismatch: gap %.3e, witness %s", gap, witness)
    return GeodesicCheckReport(
        length=length,
        endpoint_distance=dist,
        gap=gap,
        minimizing=minimizing,
        witness=witness,
        cross_check_mismatch=mismatch,
        segmentation=_segmentation(records, tol),
    )


def monotone_check(path: IsotopyPath, boundary: float = ORDER_BOUNDARY_TOL) -> bool:
    """Non-negative generating Hamiltonian == monotone for the pointwise order.

    Both formulations are evaluated and must agree exactly; they reduce to
    the same extremum up to an exact sign flip, so a disagreement raises
    EquivalenceViolation.
    """
    deltas = path.segment_deltas()
    by_hamiltonian = all(extremum(d, "min").value >= -boundary for d in deltas)
    by_order = all(
        pointwise_leq(JetLegendrian(a), JetLegendrian(b), boundary)
        for a, b in zip(path.knots[:-1], path.knots[1:])
    )
    if by_hamiltonian != by_order:
        raise EquivalenceViolation(
            f"monotone verdicts disagree: hamiltonian={by_hamiltonian}, order={by_order}"
        )
    return by_hamiltonian


# ---------------------------------------------------------------------------
# coarse-grid model (exhaustive verification oracle)
# ---------------------------------------------------------------------------


def grid_flatness_gap(deltas: np.ndarray) -> float:
    """Sum of segment sup norms minus the endpoint sup norm, on grid samples.

    deltas has shape (segments, grid points); this is the discrete model in
    which the flatness lower bound and its equality case are exact.
    """
    deltas = np.asarray(deltas, dtype=float)
    return float(np.sum(np.max(np.abs(deltas), axis=1)) - np.max(np.abs(deltas.sum(axis=0))))


def grid_quasi_autonomy_witness(
    deltas: np.ndarray, tol: float = 1e-12
) -> tuple[int, int] | None:
    """(epsilon, grid index) witnessing joint sup-norm attainment, or None."""
    deltas = np.asarray(deltas, dtype=float)
    m = np.max(np.abs(deltas), axis=1)
    active = m > tol
    if not active.any():
        return (1, 0)
    d = deltas[active]
    ma = m[active][:, None]
    for eps in (1, -1):
        mask = np.all(eps * d >= ma - tol, axis=0)
        if mask.any():
            return (eps, int(np.argmax(mask)))
    return None


# ---------------------------------------------------------------------------
# variational path optimizer (numerical oracle)
# ---------------------------------------------------------------------------


def to_real_vector(f: FourierFunction) -> np.ndarray:
    """Coefficients against products of the axis bases (cos 2 pi k q, then sin 2 pi k q, k = 0..D): real_coeffs, flattened.

    (a0, a_1..a_D, 0, b_1..b_D) on S1; on T2 the matrix [[cc, cs], [sc, ss]]
    with the mean at cc[0, 0], flattened.  The sin 0 slots multiply zero.
    """
    return f.real_coeffs().ravel()


def from_real_vector(domain: DomainDescriptor, vec: np.ndarray, degree: int) -> FourierFunction:
    n = degree + 1
    if domain.kind == "S1":
        return FourierFunction.from_circle_coeffs(vec[0], vec[1:n], vec[n + 1 :])
    return FourierFunction.from_torus_coeffs(0.0, *np.reshape(vec, (2, n, 2, n)).swapaxes(1, 2).reshape(4, n, n))


def _real_basis(domain: DomainDescriptor, degree: int, pts: np.ndarray) -> np.ndarray:
    """B with B[i] the basis-function values (to_real_vector order) at pts[i], shape (m, dim)."""
    axes = _basis(degree, pts).reshape(len(pts), domain.ndim, -1)  # (m, ndim, 2(D+1))
    if domain.kind == "S1":
        return axes[:, 0]
    return (axes[:, 0, :, None] * axes[:, 1, None, :]).reshape(len(pts), -1)


def _subgradient_grid(domain: DomainDescriptor, degree: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Points (N, ndim), spacing and per-axis basis (n, 2(D+1)) of the coarse scan of _segment_sups.

    16 points per top-frequency period on S1, 8 per period and axis on T2.
    """
    n = (16 if domain.kind == "S1" else 8) * max(degree, 1)
    axis = grid_points(n)
    pts = np.stack(np.meshgrid(*[axis] * domain.ndim, indexing="ij"), axis=-1).reshape(-1, domain.ndim)
    return pts, 1.0 / n, _grid_basis(n, degree)


def _segment_sups(
    seg: np.ndarray, domain: DomainDescriptor, degree: int, grid: tuple[np.ndarray, float, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """max |v| of each function with real vector v = seg[i], and the signed basis row where it is attained.

    The coarse scan (_subgradient_grid) is B v on S1 and B V B^T on T2, with
    V the coefficient matrix of v; each argmax of |v| is finished by the
    Newton kernel of the extremum search, and stays where Newton fails or
    lowers |v|.  Every row gets its own products of the same shape and the
    Newton kernels work seed by seed, so a row's result does not depend on
    the other rows.
    """
    pts, dq, basis = grid
    coef = seg.reshape(len(seg), len(basis.T), -1)  # (m, 2(D+1), 1) on S1, (m, 2(D+1), 2(D+1)) on T2
    v = (basis @ coef if domain.kind == "S1" else basis @ coef @ basis.T).reshape(len(seg), -1)
    m = np.arange(len(seg))
    idx = np.argmax(np.abs(v), axis=1)
    top = v[m, idx]
    q0 = pts[idx]
    # a slope residual r leaves |v| short by about r^2 / 2|v''|, so 1e-8 of the
    # Bernstein bound |grad v| <= 2 pi D max|v| reaches the value to rounding
    residual = 1e-8 * np.maximum(1.0, TWO_PI * degree * np.abs(top))
    real = seg.reshape((len(seg),) + (2, degree + 1) * domain.ndim)  # real_coeffs layout
    stack = _derivative_stack(real)
    if domain.kind == "S1":
        # Newton starts at the vertex of the parabola through the argmax and its two neighbours
        lo, hi = v[m, idx - 1], v[m, (idx + 1) % len(pts)]
        bend = lo - 2.0 * top + hi
        start = q0[:, 0] + 0.5 * dq * (lo - hi) / np.where(bend == 0.0, np.inf, bend)
        q = _newton_circle(stack, start, dq, residual)[:, None]
        val = _series_at(real, q[:, 0])
    else:
        q = _newton_torus(stack, q0, residual)
        val = _torus_at(stack[:, :1], q)[:, 0]
    stay = ~(np.abs(val) >= np.abs(top))  # NaN where Newton failed
    q[stay], val[stay] = q0[stay], top[stay]
    return np.abs(val), np.sign(val)[:, None] * _real_basis(domain, degree, q)


@dataclass(frozen=True)
class OptimizeResult:
    path: IsotopyPath
    length: float
    certified_lower: float
    restart_lengths: tuple[float, ...]

    @property
    def gap(self) -> float:
        return self.length - self.certified_lower


def _run_restart(x: np.ndarray, domain: DomainDescriptor, degree: int) -> np.ndarray:
    """The best iterate of subgradient descent from each start x[r] (knots, dim), all in lockstep."""
    grid = _subgradient_grid(domain, degree)
    x, best_x = np.array(x), np.array(x)
    r, k, dim = x.shape
    best_val = np.full(r, np.inf)
    for it in range(OPTIMIZER_ITERS + 1):
        sups, rows = _segment_sups(np.diff(x, axis=1).reshape(-1, dim), domain, degree, grid)
        val = np.sum(sups.reshape(r, k - 1), axis=1)
        better = val < best_val
        best_val[better], best_x[better] = val[better], x[better]
        if it < OPTIMIZER_ITERS:  # interior knot i moves against rows[i - 1] - rows[i]
            x[:, 1:-1] += (RESTART_STEP0 / np.sqrt(it + 1.0)) * np.diff(rows.reshape(r, k - 1, dim), axis=1)
    return best_x


def optimize_path(
    f0: FourierFunction,
    f1: FourierFunction,
    knots: int = 6,
    restarts: int = 16,
    seed: int = 0,
) -> OptimizeResult:
    """Minimize the sup-norm length over interior knot coefficient vectors.

    Multi-start subgradient descent, all restarts in lockstep, with the
    subgradient taken at a point attaining each segment's sup norm.  The
    straight path is always a candidate and restart 0 starts from it;
    restart r > 0 starts from it perturbed by its own Gaussian draw from
    default_rng([seed, r]).  Every candidate is re-measured with the exact
    extremum machinery, and the result is certified against the endpoint
    distance lower bound.
    """
    if knots < 2:
        raise MalformedPath("optimize_path needs at least two knots")
    if f0.domain != f1.domain:
        raise MalformedPath("endpoint domains disagree")
    domain = f0.domain
    degree = max(f0.degree, f1.degree)
    v0, v1 = (to_real_vector(f.pad_to_degree(degree)) for f in (f0, f1))
    straight = np.array([v0 + (i / (knots - 1)) * (v1 - v0) for i in range(knots)])

    candidates = [straight]
    if knots > 2 and restarts > 0:
        starts = np.repeat(straight[None], restarts, axis=0)
        for r in range(1, restarts):
            rng = np.random.default_rng([seed, r])
            starts[r, 1:-1] += RESTART_SIGMA * rng.standard_normal(straight[1:-1].shape)
        candidates += list(_run_restart(starts, domain, degree))

    paths = [IsotopyPath.uniform([from_real_vector(domain, row, degree) for row in c]) for c in candidates]
    lengths = [sch_length(p) for p in paths]  # every candidate re-measured exactly
    best_len, best_path = min(zip(lengths, paths), key=lambda lp: lp[0])
    lower = sup_norm(f1 - f0)
    if best_len < lower - 1e-9:
        raise ViolationReport(f"optimizer undercut the certified lower bound: {best_len} < {lower}")
    if best_len >= lengths[0] - 1e-12:
        log.info("optimizer found no path shorter than the straight one (length %.6g)", best_len)
    return OptimizeResult(best_path, best_len, lower, restart_lengths=tuple(lengths[1:]))
