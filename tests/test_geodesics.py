from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetflat import fourier, geodesics
from jetflat.config import EQUALITY_TOL
from jetflat.errors import MalformedPath, ViolationReport
from jetflat.fourier import CIRCLE, TORUS2, FourierFunction, attaining_set, sup_norm
from jetflat.geodesics import (
    grid_flatness_gap,
    grid_quasi_autonomy_witness,
    integral_criterion,
    minimizing_geodesic_check,
    monotone_check,
    optimize_path,
    quasi_autonomy_check,
)
from jetflat.paths import IsotopyPath
from jetflat.sampling import (
    random_function,
    random_monotone_path,
    random_path,
    random_quasi_autonomous_path,
)
from jetflat.selectors import sch_length

from conftest import fn
from oracles import dense_max, eval_direct, eval_torus_direct, grid_path_gap


def bump(shift, amp=0.2):
    # amp * cos(2 pi (q - shift))
    return fn(0.0, [amp * np.cos(2 * np.pi * shift)], [amp * np.sin(2 * np.pi * shift)])


def rotating_bump_path(n_segments=8):
    return IsotopyPath.uniform([bump(k / n_segments) for k in range(n_segments + 1)])


def reversal_path(h=None):
    h = h if h is not None else fn(0.0, [], [0.5])
    f = fn(0.0, [0.1])
    return IsotopyPath.uniform([f, f + h, f])


# -- path validation -------------------------------------------------------


def test_path_validation():
    f = fn(0.0, [0.1])
    with pytest.raises(MalformedPath):
        IsotopyPath(knots=(f,), times=(0.0,))
    with pytest.raises(MalformedPath):
        IsotopyPath(knots=(f, f), times=(0.0, 0.5))
    with pytest.raises(MalformedPath):
        IsotopyPath(knots=(f, f, f), times=(0.0, 0.6, 0.4))
    # every comparison with NaN is false, so only a finiteness check rejects these
    for times in [(0.0, np.nan, 1.0), (0.0, 0.5, np.nan), (np.nan, 0.5, 1.0), (0.0, np.inf, 1.0)]:
        with pytest.raises(MalformedPath, match="finite"):
            IsotopyPath(knots=(f, f, f), times=times)


# -- quasi-autonomy ----------------------------------------------------------


def test_straight_path_is_quasi_autonomous():
    h = fn(0.0, [0.3], [0.1])
    path = IsotopyPath.uniform([fn(0.0), 0.5 * h, h])
    w = quasi_autonomy_check(path)
    assert w is not None
    assert w.epsilon in (1, -1)
    assert all(r >= -1e-9 for r in w.per_knot_residuals)
    # witness point attains max h
    assert h(w.base_point[0]) == pytest.approx(sup_norm(h), abs=1e-9)


def test_rotating_bump_has_no_witness():
    assert quasi_autonomy_check(rotating_bump_path()) is None


def test_reversal_has_no_witness():
    assert quasi_autonomy_check(reversal_path()) is None


def test_constant_segments_witness_by_sign():
    up = IsotopyPath.uniform([fn(0.0), fn(0.3), fn(0.5)])
    w = quasi_autonomy_check(up)
    assert w is not None and w.epsilon == 1
    wiggle = IsotopyPath.uniform([fn(0.0), fn(0.3), fn(0.1)])
    assert quasi_autonomy_check(wiggle) is None


def test_zero_segments_are_skipped():
    h = fn(0.0, [0.2])
    path = IsotopyPath.uniform([fn(0.0), fn(0.0), h, h])
    w = quasi_autonomy_check(path)
    assert w is not None
    assert len(w.per_knot_residuals) == 3


# -- local windows -----------------------------------------------------------


def covered_segments(seg):
    """Segment indices lying in some window of the segmentation."""
    return {s for a, b in seg.windows for s in range(a, b)}


def test_local_windows_quasi_autonomous_path():
    h = fn(0.0, [0.3])
    path = IsotopyPath.uniform([fn(0.0), 0.3 * h, h])
    seg = minimizing_geodesic_check(path).segmentation
    assert seg.windows == ((0, 2),)
    assert covered_segments(seg) == {0, 1}


def test_local_windows_reversal():
    seg = minimizing_geodesic_check(reversal_path()).segmentation
    assert seg.windows == ((0, 1), (1, 2))
    assert covered_segments(seg) == {0, 1}  # covered, though not minimizing
    assert seg.multi_segment_windows == ()


def test_local_windows_rotating_bump():
    seg = minimizing_geodesic_check(rotating_bump_path()).segmentation
    # consecutive attaining sets are disjoint: no window straddles a knot
    assert seg.multi_segment_windows == ()
    assert all(b - a == 1 for a, b in seg.windows)


def _maximal_windows(path):
    """Brute force: the windows whose witness search succeeds and that no
    other such window contains, with the tolerances of the sweep; every
    window's search scans its segments afresh."""
    deltas = path.segment_deltas()
    k = len(deltas)

    def search(window):
        records = [attaining_set(d, EQUALITY_TOL) for d in window]
        return geodesics.common_attaining_point(records)

    ok = {(i, j): search(deltas[i:j]) is not None for i in range(k) for j in range(i + 1, k + 1)}
    return tuple(
        sorted(
            w
            for w, good in ok.items()
            if good and not any(ok[v] and v != w and v[0] <= w[0] and w[1] <= v[1] for v in ok)
        )
    )


def _counted_evaluations(monkeypatch) -> list:
    """A list that grows by the number of (point, record) values at each call of the witness search's evaluator."""
    calls = []
    evaluate = geodesics._values

    def counted(c, idx, pts):
        calls.append(len(pts) * len(idx))
        return evaluate(c, idx, pts)

    monkeypatch.setattr(geodesics, "_values", counted)
    return calls


def test_local_windows_match_brute_force_on_two_blocks(monkeypatch):
    # two quasi-autonomous blocks joined at knot 4: the first block's steps
    # attain their sup norm at q = 0, the second block's at q = 1/4
    knots = [fn(0.0)]
    for step in (bump(0.0), 0.5 * bump(0.0), bump(0.0), 0.7 * bump(0.0)) + (
        bump(0.25), 2.0 * bump(0.25), bump(0.25), 0.3 * bump(0.25)
    ):
        knots.append(knots[-1] + step)
    path = IsotopyPath.uniform(knots)
    k = len(knots) - 1
    maximal = _maximal_windows(path)
    assert maximal == ((0, 4), (4, 8))

    calls = _counted_evaluations(monkeypatch)
    seg = minimizing_geodesic_check(path).segmentation
    assert seg.windows == maximal
    assert seg.multi_segment_windows == maximal
    assert covered_segments(seg) == set(range(k))
    # one search per start while an end beyond the last is left: every step's
    # max and min both reach its sup norm, so each sign keeps one candidate
    # and tests it against the later records in chunks of 1, 2, 4, ... up to
    # the chunk holding the first that fails, segment 4 from starts 0-3
    # (1 + 2 + 4, 1 + 2, 1 + 2 and 1 tests) and the path's end from start 4
    # (1 + 2 tests); starts 5-7 cannot pass knot 8.  The chunks at most
    # double the 4 + 3 + 2 + 1 + 3 tests of a record-by-record search.  The
    # check's witness search over the whole path comes first and makes the
    # 1 + 2 + 4 tests of start 0 once more
    assert sum(calls) == 2 * (7 + 7 + 3 + 3 + 1 + 3)


def _blocks_path(rng, near_tie):
    # two blocks of three steps; each block's steps share a direction h, and
    # with near_tie every step also carries a term of size 1e-12..1e-7 that
    # moves its peak by about the witness tolerances
    knots = [random_function(rng, CIRCLE, 3, 0.2)]
    for _ in range(2):
        h = random_function(rng, CIRCLE, 3, 0.3)
        g = random_function(rng, CIRCLE, 3, 0.3)
        for _ in range(3):
            tie = 10.0 ** rng.uniform(-12, -7) if near_tie else 0.0
            knots.append(knots[-1] + float(rng.uniform(0.2, 1.0)) * h + tie * g)
    return IsotopyPath.uniform(knots)


@pytest.mark.parametrize("kind", ["random", "blocks", "near_tie"])
def test_local_windows_match_brute_force_on_random_paths(kind):
    rng = np.random.default_rng(11)
    for _ in range(8):
        if kind == "random":
            path = random_path(rng, n_knots=6, degree=3)
        else:
            path = _blocks_path(rng, near_tie=kind == "near_tie")
        assert minimizing_geodesic_check(path).segmentation.windows == _maximal_windows(path)


def test_witness_on_a_torus_path_of_one_direction(rng):
    h = random_function(rng, TORUS2, 3)
    knots = [random_function(rng, TORUS2, 3)]
    for lam in (0.4, 1.0, 0.7, 0.2):
        knots.append(knots[-1] + lam * h)
    path = IsotopyPath.uniform(knots)
    w = quasi_autonomy_check(path)
    assert w is not None
    assert max(abs(r) for r in w.per_knot_residuals) <= 1e-9
    rep = minimizing_geodesic_check(path)
    assert rep.segmentation.windows == ((0, 4),)
    assert rep.minimizing and not rep.cross_check_mismatch
    assert rep.witness == w


def test_no_witness_on_a_torus_path_of_two_directions(rng):
    h1, h2 = random_function(rng, TORUS2, 3), random_function(rng, TORUS2, 3)
    knots = [FourierFunction.zero(TORUS2)]
    for step in (h1, h2, h1, h2):
        knots.append(knots[-1] + step)
    path = IsotopyPath.uniform(knots)
    assert quasi_autonomy_check(path) is None
    seg = minimizing_geodesic_check(path).segmentation
    assert seg.windows == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert seg.multi_segment_windows == ()


@pytest.mark.parametrize("domain", [CIRCLE, TORUS2], ids=["S1", "T2"])
def test_witness_search_reads_records_without_scanning(rng, scanned, domain):
    h = random_function(rng, domain, 3)
    records = [attaining_set(lam * h, EQUALITY_TOL) for lam in (0.5, 1.0, 2.0)]
    assert scanned  # the records' own scans are counted
    scanned.clear()
    found = geodesics.common_attaining_point(records)
    assert isinstance(found, geodesics.QAWitness)
    assert scanned == []


@pytest.mark.parametrize("n_knots", [16, 64])
def test_quasi_autonomous_check_evaluations_are_linear(monkeypatch, n_knots):
    # k segments: the witness search tests its one candidate against the k - 1
    # later records, its residuals evaluate all k, and the segmentation's
    # search from knot 0 passes the k - 1 later records and ends the sweep;
    # each search evaluates in chunks of 1, 2, 4, ... records, so it makes
    # O(log k) calls
    path = random_quasi_autonomous_path(np.random.default_rng(1), n_knots)
    k = path.n_segments
    calls = _counted_evaluations(monkeypatch)
    rep = minimizing_geodesic_check(path)
    assert rep.minimizing and rep.segmentation.windows == ((0, k),)
    assert sum(calls) == (k - 1) + k + (k - 1)
    assert len(calls) == 2 * (k - 1).bit_length() + 1


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("domain", [CIRCLE, TORUS2], ids=["S1", "T2"])
def test_batched_endpoint_norms_equal_sup_norm(rng, domain, tol):
    # the integral and the endpoint difference ride in their command's batch;
    # a record's extrema depend neither on its batch nor on tol
    degree = 5 if domain is CIRCLE else 2
    for _ in range(3):
        path = random_path(rng, 5, domain, degree)
        rep = minimizing_geodesic_check(path, tol=tol)
        assert rep.endpoint_distance == sup_norm(path.knots[-1] - path.knots[0])
        # the trapezoid weights of five uniform knots are dyadic, so this is
        # the integral the criterion forms, bit for bit
        fam = IsotopyPath.uniform(path.knots)
        integral = fam.knots[0] * 0.125
        for wi, g in zip((0.25, 0.25, 0.25, 0.125), fam.knots[1:]):
            integral = integral + g * wi
        assert integral_criterion(fam, tol=tol).rhs == sup_norm(integral)


# -- integral criterion --------------------------------------------------------


@pytest.mark.parametrize("domain", [CIRCLE, TORUS2], ids=["S1", "T2"])
def test_integral_is_the_ordered_sum_of_the_knots(monkeypatch, domain):
    # the criterion sums the zero-padded knot coefficients in one ordered
    # reduction; it must give the bits of the loop g_0 w_0 + g_1 w_1 + ...
    # over the knots themselves, for mixed degrees and uneven times
    rng = np.random.default_rng(61)
    batches = []
    batch = geodesics.attaining_sets

    def spy(fs, tol):
        batches.append(list(fs))
        return batch(batches[-1], tol)

    monkeypatch.setattr(geodesics, "attaining_sets", spy)
    for k in (2, 3, 9, 64):
        degrees = rng.integers(0, 6 if domain is CIRCLE else 3, k)
        knots = [random_function(rng, domain, int(d)) for d in degrees]
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, k - 2)), [1.0]])
        fam = IsotopyPath(knots=tuple(knots), times=tuple(times))
        w = np.empty(k)
        w[0], w[-1] = 0.5 * (times[1] - times[0]), 0.5 * (times[-1] - times[-2])
        w[1:-1] = 0.5 * (times[2:] - times[:-2])
        want = knots[0] * float(w[0])
        for wi, g in zip(w[1:], knots[1:]):
            want = want + g * float(wi)
        batches.clear()
        rep = integral_criterion(fam)
        got = batches[-1][-1]
        assert got.degree == want.degree and np.array_equal(got.coeffs, want.coeffs)
        assert rep.rhs == attaining_set(want).norm


def test_integral_criterion_time_independent():
    g = fn(0.0, [0.4], [0.1])
    fam = IsotopyPath.uniform([g, g, g])
    r = integral_criterion(fam)
    assert r.holds and r.witness is not None
    assert r.gap == pytest.approx(0.0, abs=1e-12)


def test_integral_criterion_sign_flip_family():
    # g_t = 2t - 1, sampled so that the kink t = 1/2 is a node: the
    # trapezoid values are exact dyadic sums
    ts = np.arange(65) / 64.0
    fam = IsotopyPath(knots=tuple(fn(2 * t - 1) for t in ts), times=tuple(ts))
    r = integral_criterion(fam)
    assert not r.holds and r.witness is None
    assert r.lhs == 0.5
    assert r.rhs == 0.0


def test_integral_criterion_growing_cosine():
    ts = np.linspace(0.0, 1.0, 33)
    fam = IsotopyPath(knots=tuple(fn(0.0, [1.0 + t]) for t in ts), times=tuple(ts))
    r = integral_criterion(fam)
    assert r.holds
    eps, point = r.witness
    assert eps == 1
    assert point[0] == pytest.approx(0.0, abs=1e-9)
    assert r.lhs == pytest.approx(1.5, abs=1e-12)


# -- minimizing geodesic check ----------------------------------------------------


def test_straight_path_minimizing():
    f, g = fn(0.0, [0.2]), fn(0.1, [], [0.3])
    rep = minimizing_geodesic_check(IsotopyPath.straight(f, g, n_knots=4))
    assert rep.minimizing
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.witness is not None
    assert not rep.cross_check_mismatch


def test_reversal_not_minimizing_but_gap_explicit():
    h = fn(0.0, [], [0.5])
    rep = minimizing_geodesic_check(reversal_path(h))
    assert not rep.minimizing
    assert rep.gap == pytest.approx(2 * sup_norm(h), abs=1e-12)
    assert rep.witness is None
    assert not rep.cross_check_mismatch


def test_rotating_bump_gap_matches_grid_oracle():
    path = rotating_bump_path(8)
    rep = minimizing_geodesic_check(path)
    xs = np.arange(1 << 16) / (1 << 16)
    values = np.stack([k(xs) for k in path.knots])
    assert rep.gap == pytest.approx(grid_path_gap(values), abs=1e-6)
    assert not rep.minimizing and rep.witness is None


def _max_window_gap(path):
    # reference: max(0, max_{i<j} L(i, j) - d(i, j)) over every knot window
    seg_len = [sup_norm(d) for d in path.segment_deltas()]
    n = len(path.knots)
    gaps = (
        sum(seg_len[i:j]) - sup_norm(path.knots[j] - path.knots[i])
        for i in range(n)
        for j in range(i + 1, n)
    )
    return max(0.0, max(gaps))


@pytest.mark.parametrize(
    "domain,kind,knots",
    [
        (CIRCLE, "random", 4),
        (CIRCLE, "random", 16),
        (CIRCLE, "qa", 4),
        (CIRCLE, "qa", 16),
        (TORUS2, "random", 4),
    ],
    ids=["S1-random-4", "S1-random-16", "S1-qa-4", "S1-qa-16", "T2-random-4"],
)
def test_whole_path_gap_is_the_largest_window_gap(domain, kind, knots):
    rng = np.random.default_rng(knots)
    if kind == "qa":
        path = random_quasi_autonomous_path(rng, n_knots=knots, degree=5)
    else:
        path = random_path(rng, n_knots=knots, domain=domain, degree=5 if domain is CIRCLE else 3)
    rep = minimizing_geodesic_check(path)
    reference = _max_window_gap(path)
    assert abs(reference - max(0.0, rep.gap)) <= 1e-12
    assert rep.minimizing == (reference <= EQUALITY_TOL)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15)
def test_witness_iff_zero_gap_random(seed):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        path = random_quasi_autonomous_path(rng, n_knots=4, degree=5)
    else:
        path = random_path(rng, n_knots=4, degree=5)
    rep = minimizing_geodesic_check(path)
    assert not rep.cross_check_mismatch
    assert rep.minimizing == (rep.witness is not None)


@pytest.mark.parametrize("tol", [EQUALITY_TOL, 1e-6])
def test_verdicts_agree_outside_the_tolerance_band(tol):
    # steps lambda_k h + eps g_k: the length gap grows like eps^2, so nine
    # decades of eps sweep it from far above tol to far below.  A point
    # attaining the endpoint distance attains every segment within the gap,
    # and a witness within tol bounds the gap by 4 tol; so the two verdicts
    # must agree whenever gap <= tol/100 or gap >= 100 tol
    rng = np.random.default_rng(7)
    sides = set()
    for e in range(2, 11):
        for _ in range(6):
            path = random_quasi_autonomous_path(rng, n_knots=5, degree=6, perturbation=10.0**-e)
            rep = minimizing_geodesic_check(path, tol)
            if tol / 100 < rep.gap < 100 * tol:
                continue
            assert rep.minimizing == (rep.witness is not None), (e, rep.gap)
            assert not rep.cross_check_mismatch, (e, rep.gap)
            sides.add(rep.minimizing)
    assert sides == {True, False}


def test_witness_stability():
    # residuals at -1e-12 or better force the minimizing gap below 1e-9
    rng = np.random.default_rng(7)
    for _ in range(10):
        path = random_quasi_autonomous_path(rng, n_knots=5, degree=6)
        w = quasi_autonomy_check(path)
        assert w is not None
        if all(r >= -1e-12 for r in w.per_knot_residuals):
            rep = minimizing_geodesic_check(path)
            assert rep.gap <= 1e-9


# -- monotone --------------------------------------------------------------------


def test_monotone_examples():
    assert monotone_check(IsotopyPath.uniform([fn(0.0), fn(0.35), fn(0.7)]))
    sin_path = IsotopyPath.uniform([fn(0.0), fn(0.0, [], [0.5]), fn(0.0, [], [1.0])])
    assert not monotone_check(sin_path)


def test_monotone_concatenation_closure(rng):
    a = random_monotone_path(rng, n_knots=3)
    b_knots = [a.knots[-1]]
    for _ in range(2):
        bump_fn = random_function(rng, degree=4, amplitude=0.1, zero_mean=True)
        b_knots.append(b_knots[-1] + bump_fn + (sup_norm(bump_fn) + 0.05))
    glued = IsotopyPath.uniform(list(a.knots) + b_knots[1:])
    assert monotone_check(glued)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20)
def test_monotone_two_formulations_agree(seed):
    rng = np.random.default_rng(seed)
    path = (
        random_monotone_path(rng, n_knots=4)
        if seed % 2
        else random_path(rng, n_knots=4, degree=5)
    )
    monotone_check(path)  # raises EquivalenceViolation on any disagreement


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15)
def test_length_dominates_endpoint_distance(seed):
    path = random_path(np.random.default_rng(seed), n_knots=4, degree=5)
    dist = sup_norm(path.knots[-1] - path.knots[0])
    assert sch_length(path) >= dist - 1e-9


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10)
def test_knot_granularity_geodesic_invariant(seed):
    # singleton windows always carry a witness and single-segment gaps are
    # identically zero, so the two sides of the biconditional co-vary
    path = random_path(np.random.default_rng(seed), n_knots=4, degree=5)
    seg = minimizing_geodesic_check(path).segmentation
    single_gaps = [
        minimizing_geodesic_check(path.subpath(i, i + 1)).gap
        for i in range(path.n_segments)
    ]
    assert covered_segments(seg) == set(range(path.n_segments))
    assert all(g <= 1e-9 for g in single_gaps)


# -- coarse-grid model -------------------------------------------------------------


def test_grid_biconditional_small_exhaustive():
    xs = np.arange(32) / 32.0
    table = {}
    for a0 in (-1, 0, 1):
        for a1 in (-1, 0, 1):
            table[(a0, a1)] = a0 + a1 * np.cos(2 * np.pi * xs)
    keys = list(table)
    violations = 0
    for k1 in keys:
        for k2 in keys:
            for k3 in keys:
                knots = np.stack([np.zeros(32), table[k1], table[k2], table[k3]])
                deltas = np.diff(knots, axis=0)
                gap = grid_flatness_gap(deltas)
                witness = grid_quasi_autonomy_witness(deltas)
                if (gap <= 1e-9) != (witness is not None):
                    violations += 1
    assert violations == 0


def test_grid_witness_forces_zero_gap():
    xs = np.arange(32) / 32.0
    h = np.cos(2 * np.pi * xs)
    deltas = np.stack([0.5 * h, 1.5 * h, h])
    assert grid_quasi_autonomy_witness(deltas) is not None
    assert grid_flatness_gap(deltas) == pytest.approx(0.0, abs=1e-12)


# -- optimizer ----------------------------------------------------------------------


def test_optimize_constants():
    r = optimize_path(fn(0.0), fn(0.7), knots=4, restarts=2, seed=5)
    assert r.length == pytest.approx(0.7, abs=1e-12)
    assert r.gap >= -1e-9


@pytest.mark.parametrize("knots", [1, 0, -2])
def test_optimize_rejects_fewer_than_two_knots(knots):
    # a bad knot count is a bad argument, as a negative restart count is,
    # not a malformed path
    with pytest.raises(ValueError, match="knots") as info:
        optimize_path(fn(0.0), fn(0.0, [0.5]), knots=knots)
    assert not isinstance(info.value, MalformedPath)


def test_optimize_cosine_target():
    r = optimize_path(fn(0.0), fn(0.0, [0.5]), knots=6, restarts=16, seed=42)
    assert abs(r.length - 0.5) <= 1e-4
    assert r.gap >= -1e-9
    # the perturbed restarts independently descend back toward the optimum
    assert min(r.restart_lengths[1:]) <= 0.5 + 1e-5


def test_optimize_torus_restarts_descend():
    # the Polyak step reaches the optimum on T2 too: a blind 0.1/sqrt(k)
    # step left the median restart 0.28 above d_spec here
    rng = np.random.default_rng(11)
    excess = []
    for _ in range(2):
        f0, f1 = random_function(rng, TORUS2, 4), random_function(rng, TORUS2, 4)
        r = optimize_path(f0, f1, knots=6, restarts=16, seed=5)
        excess += [length - r.certified_lower for length in r.restart_lengths[1:]]
    assert np.median(excess) <= 0.05


def test_restarts_at_the_optimum_stay_put(monkeypatch):
    # a restart whose coarse length is at or below the target takes no step
    # and freezes, and the loop ends once every restart is frozen: with the
    # target at or above every start's coarse length, one scan returns the
    # starts bit for bit
    rng = np.random.default_rng(8)
    f0, f1 = random_function(rng, degree=4), random_function(rng, degree=4)
    v0, v1 = f0.coeffs.ravel(), f1.coeffs.ravel()
    starts = np.repeat(np.linspace(v0, v1, 5)[None], 4, axis=0)
    starts[:, 1:-1] += 0.2 * rng.standard_normal(starts[:, 1:-1].shape)
    sups, _ = geodesics._segment_sups(np.diff(starts, axis=1).reshape(-1, len(v0)), CIRCLE, 4)
    coarse = sups.reshape(4, 4).sum(axis=1)
    scans = []
    segment_sups = geodesics._segment_sups
    monkeypatch.setattr(geodesics, "_segment_sups", lambda *a: scans.append(1) or segment_sups(*a))
    for target in (coarse.max(), coarse.max() + 1.0):
        scans.clear()
        out = geodesics._run_restart(starts, CIRCLE, 4, target)
        assert out.tobytes() == starts.tobytes() and len(scans) == 1


def test_optimizer_rejects_a_length_below_the_lower_bound(monkeypatch):
    # the restarts step toward d_spec, but the bound stays a check: an
    # engine that underestimates every sup norm must be caught
    measure = geodesics.attaining_sets
    monkeypatch.setattr(
        geodesics, "attaining_sets", lambda fs, *a: [SimpleNamespace(norm=r.norm / 2) for r in measure(fs, *a)]
    )
    with pytest.raises(ViolationReport):
        optimize_path(fn(0.0), fn(0.0, [0.5]), knots=4, restarts=2, seed=1)


def test_optimize_random_regression(rng):
    for _ in range(3):
        f0 = random_function(rng, degree=8)
        f1 = random_function(rng, degree=8)
        r = optimize_path(f0, f1, knots=6, restarts=8, seed=11)
        assert -1e-9 <= r.gap <= 1e-4


def test_optimize_reproducible():
    f0, f1 = fn(0.0), fn(0.0, [0.3], [0.2])
    a = optimize_path(f0, f1, knots=5, restarts=4, seed=3)
    b = optimize_path(f0, f1, knots=5, restarts=4, seed=3)
    assert a.length == b.length


def test_restarts_do_not_depend_on_how_many_run():
    rng = np.random.default_rng(606)
    f0 = random_function(rng, degree=8, amplitude=0.3)
    f1 = random_function(rng, degree=8, amplitude=0.3)
    many = optimize_path(f0, f1, knots=6, restarts=16, seed=617)
    few = optimize_path(f0, f1, knots=6, restarts=3, seed=617)
    assert many.restart_lengths[:3] == few.restart_lengths


def test_optimizer_keeps_the_earliest_of_tied_candidates(monkeypatch):
    # restarts that tie the straight path to an ulp must not displace it:
    # a one-ulp change in a length would otherwise swap the reported path
    # (the candidates are re-measured in one batch of their 3 segments each,
    # and each candidate's length is put on its first segment here)
    measured = []
    tied = [0.5 + 2.2e-16, 0.5, 0.5 + 1.1e-16]

    def records(deltas):
        measured.extend(deltas)
        return [SimpleNamespace(norm=tied[i // 3] if i % 3 == 0 else 0.0) for i in range(len(measured))]

    monkeypatch.setattr(geodesics, "attaining_sets", records)
    r = optimize_path(fn(0.0), fn(0.0, [0.5]), knots=4, restarts=2, seed=1)
    assert len(measured) == 9
    assert r.path.segment_deltas() == measured[:3] and r.length == 0.5 + 2.2e-16
    assert r.restart_lengths == tuple(tied[1:])


@pytest.mark.parametrize("degree", [2, 3])
def test_optimize_torus(degree):
    rng = np.random.default_rng(40 + degree)
    f0, f1 = random_function(rng, TORUS2, degree), random_function(rng, TORUS2, degree)
    a = optimize_path(f0, f1, knots=4, restarts=4, seed=9)
    assert -1e-9 <= a.gap <= 1e-4
    assert a.certified_lower == sup_norm(f1 - f0)
    b = optimize_path(f0, f1, knots=4, restarts=4, seed=9)
    assert (a.length, a.restart_lengths) == (b.length, b.restart_lengths)


@pytest.mark.parametrize("domain", [CIRCLE, TORUS2])
def test_real_vectors_round_trip(domain):
    # the optimizer's real vectors (coeffs, flattened), their basis rows
    # and, on T2, the value row of the derivative stack its Newton kernel
    # reads all describe the function the oracle sums
    rng = np.random.default_rng(23)
    for degree in (1, 3):
        f = random_function(rng, domain, degree)
        vec = f.coeffs.ravel()
        assert FourierFunction(domain, vec.reshape(f.coeffs.shape)) == f
        pts = rng.uniform(0.0, 1.0, (7, domain.ndim))
        if domain.kind == "T2":
            vals = eval_torus_direct(*f.torus_blocks(), pts)
            assert f(pts) == pytest.approx(vals, abs=1e-14)
            assert fourier._torus_at(fourier._stacks([f])[0, :1], pts)[:, 0] == pytest.approx(vals, abs=1e-14)
        else:
            vals = eval_direct(*f.circle_cos_sin(), pts[:, 0])
        assert geodesics._real_basis(domain, degree, pts) @ vec == pytest.approx(vals, abs=1e-14)


def _peak_lead(a0, cos, sin, n=4096):
    """Sign of f at |f|'s top peak, the lead of that peak over the next, and max|f''|, on n points."""
    xs = np.arange(n) / n
    vals = eval_direct(a0, cos, sin, xs)
    w = (2 * np.pi * np.arange(1, len(cos) + 1)) ** 2
    curv = np.max(np.abs(eval_direct(0.0, -w * cos, -w * sin, xs)))
    mag = np.abs(vals)
    peaks = np.sort(mag[(mag >= np.roll(mag, 1)) & (mag >= np.roll(mag, -1))])
    return np.sign(vals[np.argmax(mag)]), peaks[-1] - peaks[-2], curv


def test_segment_sups_reach_the_maximum():
    rng = np.random.default_rng(17)
    # degree 1 in closed form: max |a0 + a cos + b sin| = |a0| + sqrt(a^2 + b^2)
    a0, a, b = rng.uniform(-1.0, 1.0, (3, 40))
    seg = np.array([fn(*c).coeffs.ravel() for c in zip(a0, a[:, None], b[:, None])])
    sups, rows = geodesics._segment_sups(seg, CIRCLE, 1)
    assert sups == pytest.approx(np.abs(a0) + np.hypot(a, b), abs=1e-12)
    assert np.sum(rows * seg, axis=1) == pytest.approx(sups, abs=1e-15)
    # separable degree 1 on T2, a0 + (a cos + b sin)(2 pi q1) + (c cos + d sin)(2 pi q2):
    # the axes add up
    a0, a, b, c, d = rng.uniform(-1.0, 1.0, (5, 20))
    tor = [
        FourierFunction.from_torus_coeffs(p0, [[0, pc], [pa, 0]], cs=[[0, pd], [0, 0]], sc=[[0, 0], [pb, 0]])
        for p0, pa, pb, pc, pd in zip(a0, a, b, c, d)
    ]
    seg = np.array([f.coeffs.ravel() for f in tor])
    sups, _ = geodesics._segment_sups(seg, TORUS2, 1)
    assert sups == pytest.approx(np.abs(a0) + np.hypot(a, b) + np.hypot(c, d), abs=1e-12)
    # degrees 8 and 32 against the dense oracle (2^20 and 2^18 points),
    # wherever |v|'s top peak leads the next by more than the Taylor margin
    # of the 16 D-point grid
    for degree, tries, need, n in ((8, 12, 10, 1 << 20), (32, 4, 3, 1 << 18)):
        checked = 0
        for _ in range(tries):
            f = random_function(rng, degree=degree) - random_function(rng, degree=degree)
            a0, cos, sin = f.circle_cos_sin()
            sign, lead, curv = _peak_lead(a0, cos, sin)
            if lead <= 0.5 * curv / (16 * degree) ** 2:
                continue
            (s,), _ = geodesics._segment_sups(f.coeffs.ravel()[None], CIRCLE, degree)
            assert s == pytest.approx(dense_max(sign * a0, sign * cos, sign * sin, n), abs=1e-12)
            checked += 1
        assert checked >= need


@pytest.mark.parametrize("degree", [1, 8, 15, 64])
def test_window_newton_rows_do_not_depend_on_how_many_run(degree):
    # the optimizer's S1 Newton evaluates every row by its own contraction:
    # a row's value and basis row keep their bits whatever number of rows
    # runs with it, where a product across rows may round a row apart with
    # its size (the coarse scan's gemm moves at degree 15).  30 rows start
    # within half a grid step of their grid argmax, 10 anywhere (most of
    # these leave their window)
    rng = np.random.default_rng(29 + degree)
    m, n = 40, 16 * degree
    real = np.array([random_function(rng, degree=degree).coeffs for _ in range(m)])
    xs = np.arange(n) / n
    top = np.array([eval_direct(*FourierFunction(CIRCLE, r).circle_cos_sin(), xs) for r in real])
    idx = np.argmax(np.abs(top), axis=1)
    start = np.where(np.arange(m) < 30, (idx + rng.uniform(-0.5, 0.5, m)) / n, rng.uniform(0.0, 1.0, m))
    residual = 1e-8 * np.maximum(1.0, 2 * np.pi * degree * np.abs(top[np.arange(m), idx]))
    stack = fourier._derivative_stack(real)
    val, rows = geodesics._window_newton(stack, start, 1.0 / n, residual)
    # the engine's Newton on the same windows is the reference: the same rows
    # fail, and the values agree to the rounding of the coefficient sum
    _, want = fourier._newton_circle(stack, start, start - 1.0 / n, start + 1.0 / n, residual, 0.0 * start)
    ok = np.isfinite(val)
    assert np.array_equal(ok, np.isfinite(want)) and 30 <= ok.sum() < m
    assert np.all(np.abs(val - want)[ok] <= 8 * np.finfo(float).eps * np.abs(real).sum(axis=(1, 2))[ok])
    # a converged row is the basis at a root of f' where f takes its value
    assert np.sum(rows * real.reshape(m, -1), axis=1)[ok] == pytest.approx(val[ok], abs=1e-14)
    for k in range(1, m + 1):
        v, r = geodesics._window_newton(stack[:k], start[:k], 1.0 / n, residual[:k])
        assert v.tobytes() == val[:k].tobytes() and r.tobytes() == rows[:k].tobytes(), k


@pytest.mark.parametrize("domain, degree", [(CIRCLE, 8), (CIRCLE, 64), (TORUS2, 3), (TORUS2, 16)])
def test_segment_scans_are_blocked_products(monkeypatch, domain, degree):
    # the coarse scan is the engine's grid product, at the default 16 restarts
    # of 5 segments: one stacked np.matmul on S1 and two on T2, each of whose
    # BLAS calls multiplies an (m, k) block by a (k, p) one within BLAS_CALL
    calls = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        calls.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    rng = np.random.default_rng(21)
    seg = np.array([random_function(rng, domain, degree).coeffs.ravel() for _ in range(16 * 5)])
    monkeypatch.setattr(np, "matmul", spy)
    geodesics._segment_sups(seg, domain, degree)
    assert len(calls) == (1 if domain.kind == "S1" else 2)
    for a, b in calls:
        assert a[-2] * a[-1] * b[-1] <= fourier.BLAS_CALL, (a, b)


def test_reversal_doubling_and_sch():
    h = fn(0.0, [0.25], [0.1])
    f = fn(0.1)
    one_way = IsotopyPath.uniform([f, f + h])
    there_and_back = IsotopyPath.uniform([f, f + h, f])
    assert sch_length(there_and_back) == pytest.approx(2 * sch_length(one_way), abs=1e-12)
