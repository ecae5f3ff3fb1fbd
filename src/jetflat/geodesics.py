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
descent over interior knot coefficients.  The exact endpoint distance is
both its certified lower bound and its known optimum, so each restart takes
a relaxed Polyak step toward it and stops once it gets there.  The bound
stays a check: every candidate is re-measured exactly, so an engine that
underestimates a sup norm still shows as a candidate below it.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import EQUALITY_TOL, NEWTON_MAX_ITER, OPTIMIZER_ITERS, POLYAK_RELAXATION, RESTART_SIGMA
from .errors import EquivalenceViolation, MalformedPath, ViolationReport
from .fourier import (
    TWO_PI,
    DomainDescriptor,
    Extrema,
    FourierFunction,
    _basis,
    _circle_scans,
    _derivative_stack,
    _newton_torus,
    _padded,
    _rounding,
    _series_at,
    _torus_at,
    _torus_scans,
    attaining_sets,
    sup_norm,
)
from .jets import JetLegendrian, pointwise_leq
from .paths import IsotopyPath

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


def _values(c: np.ndarray, idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """h_idx[j] at every point of pts (n, ndim), shape (n, len(idx)), for the coeffs arrays c of the h_k.

    One _series_at call on S1, whose terms are summed in order of k as the
    records' values are, and one _torus_at call with an owner per record on
    T2.
    """
    n, m = len(pts), len(idx)
    if c.ndim == 3:
        return _series_at(c[np.tile(idx, n)], np.repeat(pts[:, 0], m)).reshape(n, m)
    return _torus_at(c[:, None], np.repeat(pts, m, axis=0), np.tile(idx, n))[:, 0].reshape(n, m)


class _Search(NamedTuple):
    """The attaining_set records of h_1..h_k as the witness search reads them, from any start on.

    Per sign (index 0 for eps = 1, 1 for eps = -1): end[start] is the
    first record from start on whose extremum of that sign misses its sup
    norm by more than tol, which rules the sign out (k if none), and tied
    lists the records that constrain the candidates, those whose other
    extremum misses it too (a near-constant or near-zero h_k constrains no
    point).
    """

    records: Sequence[Extrema]
    c: np.ndarray  # the coeffs arrays of the h_k, zero-padded to one degree (_padded)
    need: np.ndarray  # max|h_k| - tol
    end: tuple[list[int], list[int]]
    tied: tuple[list[int], list[int]]


def _search(records: Sequence[Extrema], tol: float) -> _Search:
    """The _Search of the records at tol."""
    vmax, vmin, norm = np.array([(r.vmax, r.vmin, r.norm) for r in records]).T
    need, k = norm - tol, len(records)
    end, tied = [], []
    for top, bottom in ((vmax, vmin), (-vmin, -vmax)):
        out = np.append(np.flatnonzero(top < need), k)
        end.append(out[np.searchsorted(out, np.arange(k))].tolist())
        tied.append(np.flatnonzero(bottom < need).tolist())
    return _Search(records, _padded([r.f for r in records]), need, tuple(end), tuple(tied))


def _survivors(s: _Search, eps: int, start: int = 0) -> tuple[int, np.ndarray | None]:
    """The end of the passing run of sign eps over the records from start on, and the witness candidates left.

    The run ends at the first record that rules the sign out or leaves no
    candidate, or at k.  Candidates, None until a record constrains, are
    the attaining points of the first constraining record filtered by each
    later one; they are evaluated against the later constraining records
    in chunks of 1, 2, 4, ... records, one call of _values per chunk, so a
    search that fails at the next record pays for about that one and a
    search over k records makes O(log k) calls.
    """
    sign = (1 - eps) // 2
    end, tied = s.end[sign][start], s.tied[sign]
    lo, hi = bisect_left(tied, start), bisect_left(tied, end)
    if lo == hi:
        return end, None
    r = s.records[tied[lo]]
    candidates = r.max_points if eps == 1 else r.min_points
    rest, size = np.array(tied[lo + 1 : hi], dtype=int), 1
    while len(rest):
        idx, rest, size = rest[:size], rest[size:], 2 * size
        alive = np.logical_and.accumulate(eps * _values(s.c, idx, candidates) >= s.need[idx], axis=1)
        gone = np.flatnonzero(~alive.any(axis=0))
        if len(gone):
            return int(idx[gone[0]]), candidates[:0]
        candidates = candidates[alive[:, -1]]
    return end, candidates


def common_attaining_point(records: Sequence[Extrema], tol: float = EQUALITY_TOL) -> QAWitness | None:
    """Search for (epsilon, q0) with eps * h_k(q0) >= max|h_k| - tol for all k.

    records are the attaining_set records of the functions h_k, taken at
    tol; the search evaluates h_k at candidate points only and never scans.
    Each sign's candidates are those left after every record (_survivors),
    complete because a witness must attain every sup norm; without a
    constraining record the origin witnesses.  The witness's residuals, in
    the original order, take one more evaluation of all the h_k.
    """
    return _witness(_search(records, tol))


def _witness(s: _Search) -> QAWitness | None:
    """The witness of common_attaining_point, from the built search s."""
    records = s.records
    for eps in (1, -1):
        end, candidates = _survivors(s, eps)
        if end == len(records):
            pt = [0.0] * records[0].f.domain.ndim if candidates is None else min(candidates.tolist())
            res = eps * _values(s.c, np.arange(len(records)), np.array([pt]))[0] - [r.norm for r in records]
            return QAWitness(eps, tuple(pt), tuple(res.tolist()))
    return None


def quasi_autonomy_check(path: IsotopyPath, tol: float = EQUALITY_TOL) -> QAWitness | None:
    """Witness search for the whole path at tol; None when no witness exists.

    The witness point must attain every segment's sup norm with a common
    sign.  No separate critical-point test is needed: on a closed base an
    attained maximum is interior, so the slope of the lifted point never
    moves and it stays on one Reeb orbit.
    """
    return common_attaining_point(attaining_sets(path.segment_deltas(), tol), tol)


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


def _segmentation(s: _Search) -> SegmentationReport:
    """Maximal windows of consecutive segments whose records share a witness, from their search s.

    Extending a window to the right only adds filters to the search, so the
    windows from a start i that pass are those up to one end e(i): the
    longer passing prefix of the two signs, one search of the records from i on.
    """
    k = len(s.records)
    # a window from i is maximal exactly when e(i) passes every earlier end,
    # so a start is searched only while an end beyond the last one is left.
    # Dropping segments on the left changes the candidates, so shrinking is
    # hereditary only up to the tolerances; the sweep never relies on it,
    # since the windows it skips lie inside a stored one.
    windows: list[tuple[int, int]] = []
    j = 0
    for i in range(k):
        j = max(j, i)
        if j + 1 < k:
            j = max(j, max(_survivors(s, eps, i)[0] for eps in (1, -1)) - 1)
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
    # one ordered sum over the zero-padded knots, term by term as g_0 w_0 + g_1 w_1 + ...
    c = _padded(funcs)
    integral = FourierFunction(family.domain, np.add.reduce(c * w.reshape((-1,) + (1,) * (c.ndim - 1)), axis=0))
    *records, total = attaining_sets([*funcs, integral], tol)
    lhs = float(sum(wi * r.norm for wi, r in zip(w, records)))
    rhs = total.norm
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
    the witness search, which reads the same segment records (one batch with
    the endpoint difference) as the length and the segmentation; a
    disagreement is reported (discretization too coarse), not raised.
    """
    *records, ends = attaining_sets([*path.segment_deltas(), path.knots[-1] - path.knots[0]], tol)
    length = float(sum(r.norm for r in records))
    dist = ends.norm
    gap = length - dist
    search = _search(records, tol)
    witness = _witness(search)
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
        segmentation=_segmentation(search),
    )


def monotone_check(path: IsotopyPath) -> bool:
    """Non-negative generating Hamiltonian == monotone for the pointwise order.

    Both formulations are evaluated and must agree exactly; they reduce to
    the same extremum up to an exact sign flip, each taken up to rounding
    of the segment's coefficient sum, so a disagreement raises
    EquivalenceViolation.
    """
    deltas = path.segment_deltas()
    by_hamiltonian = all(r.vmin >= -_rounding(abs(d.coeffs).sum()) for d, r in zip(deltas, attaining_sets(deltas)))
    by_order = all(
        pointwise_leq(JetLegendrian(a), JetLegendrian(b)) for a, b in zip(path.knots[:-1], path.knots[1:])
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


def _real_basis(domain: DomainDescriptor, degree: int, pts: np.ndarray) -> np.ndarray:
    """B with B[i] the basis-function values (coeffs order, flattened) at pts[i], shape (m, dim); m may be 0."""
    axes = _basis(degree, pts).reshape(len(pts), domain.ndim, 2 * (degree + 1))
    if domain.kind == "S1":
        return axes[:, 0]
    return (axes[:, 0, :, None] * axes[:, 1, None, :]).reshape(len(pts), axes.shape[-1] ** 2)


@np.errstate(divide="ignore", invalid="ignore")  # a step at f'' = 0 is infinite: it leaves the window
def _window_newton(stack: np.ndarray, x: np.ndarray, dq: float, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton for f'(q) = 0 from each start x[i] within [x[i] - dq, x[i] + dq]: f at each root, and the basis rows.

    stack[i] is the S1 derivative stack (f, f', f'') of row i, all rows of
    one degree.  Each step evaluates the three series of every row at once,
    one per-row contraction against the basis (cos 2 pi k q, sin 2 pi k q)
    at the iterates, with no BLAS call, so a row's bits do not depend on the
    other rows.  A row is frozen by a mask once |f'| <= residual[i] (its
    root), once a step leaves its window, or after NEWTON_MAX_ITER steps;
    its value is NaN unless it converged.  The rows returned are the basis
    at each row's last iterate, shape (m, 2(D+1)).
    """
    lo, hi = x - dq, x + dq
    coeffs = stack.reshape(len(x), 3, -1)
    val, live = np.full(len(x), np.nan), np.ones(len(x), dtype=bool)
    for it in range(NEWTON_MAX_ITER + 1):
        basis = _basis(stack.shape[-1] - 1, x).reshape(len(x), -1)
        v, g, h = np.einsum("msk,mk->ms", coeffs, basis).T
        done = live & (np.abs(g) <= residual)
        val[done] = v[done]
        live &= ~done
        if it == NEWTON_MAX_ITER or not live.any():
            break
        step = x - g / h
        live &= (lo <= step) & (step <= hi)
        x = np.where(live, step, x)
    return val, basis


def _segment_sups(seg: np.ndarray, domain: DomainDescriptor, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """max |v| of each function with real vector v = seg[i], and the signed basis row where it is attained.

    The coarse scan is the engine's grid product at n points per axis, 16
    per top-frequency period on S1 (_circle_scans) and 8 per period and
    axis on T2 (_torus_scans).  Each argmax of |v| is finished by Newton:
    on S1 by the optimizer's own _window_newton, from the vertex of the
    parabola through the argmax and its two neighbours within one grid
    step, and on T2 by the extremum search's _newton_torus.  A row stays at
    its grid point where Newton fails or lowers |v|, and its subgradient
    row is the basis at its final point.  Newton works row by row, but the
    scan is one stacked product, whose OpenBLAS kernel may change with the
    number of rows: a row's coarse values can then move by a few ulps (S1
    degree 15, and a lone row at degree 1, among S1 degrees 0-64 and T2
    degrees 0-16).
    """
    real = seg.reshape((len(seg),) + (2, degree + 1) * domain.ndim)  # coeffs layout
    stack = _derivative_stack(real)
    n = (16 if domain.kind == "S1" else 8) * max(degree, 1)
    v = (_circle_scans(stack[:, :1], n) if domain.kind == "S1" else _torus_scans(real, n)).reshape(len(seg), -1)
    m = np.arange(len(seg))
    idx = np.argmax(np.abs(v), axis=1)
    top = v[m, idx]
    # a slope residual r leaves |v| short by about r^2 / 2|v''|, so 1e-8 of the
    # Bernstein bound |grad v| <= 2 pi D max|v| reaches the value to rounding
    residual = 1e-8 * np.maximum(1.0, TWO_PI * degree * np.abs(top))
    if domain.kind == "S1":
        # Newton starts at the vertex of the parabola through the argmax and its two neighbours
        q0, dq = (idx / n)[:, None], 1.0 / n
        lo, hi = v[m, idx - 1], v[m, (idx + 1) % n]
        bend = lo - 2.0 * top + hi
        start = q0[:, 0] + 0.5 * dq * (lo - hi) / np.where(bend == 0.0, np.inf, bend)
        val, rows = _window_newton(stack, start, dq, residual)
    else:
        q0 = np.stack(divmod(idx, n), axis=1) / n
        q = _newton_torus(stack, q0, np.inf, residual)
        val, rows = _torus_at(stack[:, :1], q)[:, 0], _real_basis(domain, degree, q)
    stay = ~(np.abs(val) >= np.abs(top))  # NaN where Newton failed
    rows[stay], val[stay] = _real_basis(domain, degree, q0[stay]), top[stay]
    return np.abs(val), np.sign(val)[:, None] * rows


@dataclass(frozen=True)
class OptimizeResult:
    path: IsotopyPath
    length: float
    certified_lower: float
    restart_lengths: tuple[float, ...]

    @property
    def gap(self) -> float:
        return self.length - self.certified_lower


def _run_restart(x: np.ndarray, domain: DomainDescriptor, degree: int, target: float) -> np.ndarray:
    """The best iterate of relaxed Polyak subgradient descent from each start x[r] (knots, dim).

    target is the known optimum d_spec: the segments of every path telescope
    to f1 - f0, so no path is shorter and the straight one attains it.
    Restart r steps by t_r = POLYAK_RELAXATION * (F_r - target) / |g_r|^2,
    with F_r its coarse length and g_r its subgradient, and freezes once its
    best coarse length is within EQUALITY_TOL of target; a restart at or
    below the target thus takes no step, and the loop ends when every
    restart is frozen or after OPTIMIZER_ITERS steps.  The live restarts
    run in lockstep, one scan and one Newton run over all their segments
    per step (_segment_sups).  Newton works segment by segment, so restart
    r depends on how many run only through the ulps by which the scan's
    gemm may round a row apart with its size.
    """
    x, best_x = np.array(x), np.array(x)
    r, k, dim = x.shape
    best_val = np.full(r, np.inf)
    live = np.arange(r)
    for it in range(OPTIMIZER_ITERS + 1):
        sups, rows = _segment_sups(np.diff(x[live], axis=1).reshape(-1, dim), domain, degree)
        val = np.sum(sups.reshape(len(live), k - 1), axis=1)
        better = val < best_val[live]
        best_val[live[better]], best_x[live[better]] = val[better], x[live[better]]
        keep = best_val[live] > target + EQUALITY_TOL
        if it == OPTIMIZER_ITERS or not keep.any():
            break
        # interior knot i moves against its subgradient rows[i - 1] - rows[i]
        live, excess, step = live[keep], val[keep] - target, np.diff(rows.reshape(-1, k - 1, dim), axis=1)[keep]
        norm2 = np.sum(step * step, axis=(1, 2))
        t = POLYAK_RELAXATION * np.divide(excess, norm2, out=np.zeros_like(norm2), where=norm2 > 0.0)
        x[live, 1:-1] += t[:, None, None] * step
    return best_x


def optimize_path(
    f0: FourierFunction,
    f1: FourierFunction,
    knots: int = 6,
    restarts: int = 16,
    seed: int = 0,
) -> OptimizeResult:
    """Minimize the sup-norm length over interior knot coefficient vectors.

    Multi-start relaxed Polyak subgradient descent toward the endpoint
    distance (_run_restart), the live restarts in lockstep, with the
    subgradient taken at a point attaining each segment's sup norm.  The
    straight path is always a candidate and restart 0 starts from it;
    restart r > 0 starts from it perturbed by its own Gaussian draw from
    default_rng([seed, r]).  Every candidate is re-measured with the exact
    extremum machinery, and the result is certified against the endpoint
    distance lower bound.
    """
    if knots < 2:
        raise ValueError(f"knots must be at least 2, got {knots}")
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    if f0.domain != f1.domain:
        raise MalformedPath("endpoint domains disagree")
    domain = f0.domain
    degree = max(f0.degree, f1.degree)
    v0, v1 = (f.pad_to_degree(degree).coeffs.ravel() for f in (f0, f1))
    straight = np.array([v0 + (i / (knots - 1)) * (v1 - v0) for i in range(knots)])

    lower = sup_norm(f1 - f0)
    candidates = [straight]
    if knots > 2 and restarts > 0:
        starts = np.repeat(straight[None], restarts, axis=0)
        for r in range(1, restarts):
            rng = np.random.default_rng([seed, r])
            starts[r, 1:-1] += RESTART_SIGMA * rng.standard_normal(straight[1:-1].shape)
        candidates += list(_run_restart(starts, domain, degree, lower))

    shape = (2, degree + 1) * domain.ndim
    paths = [IsotopyPath.uniform([FourierFunction(domain, row.reshape(shape)) for row in c]) for c in candidates]
    # every candidate re-measured exactly, in one batch: its sch_length
    norms = [r.norm for r in attaining_sets(d for p in paths for d in p.segment_deltas())]
    lengths = [float(sum(norms[i : i + knots - 1])) for i in range(0, len(norms), knots - 1)]
    # the earliest candidate within 1e-12 of the shortest: candidates that tie
    # to rounding must not swap places on a one-ulp change
    best = next(i for i, v in enumerate(lengths) if v <= min(lengths) + 1e-12)
    best_len, best_path = lengths[best], paths[best]
    if best_len < lower - 1e-9:
        raise ViolationReport(f"optimizer undercut the certified lower bound: {best_len} < {lower}")
    if best_len >= lengths[0] - 1e-12:
        log.info("optimizer found no path shorter than the straight one (length %.6g)", best_len)
    return OptimizeResult(best_path, best_len, lower, restart_lengths=tuple(lengths[1:]))
