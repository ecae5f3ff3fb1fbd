"""Metamorphic relations: exact symmetries checked without a second implementation.

The chart quantities are homogeneous: scaling a function, or every knot of a
path, by 2^k and the tolerance by 2^k scales every extrema record, critical
set and path verdict by exactly 2^k (a power of two commutes with rounding),
as long as every threshold of the engine is the caller's tol or a multiple
of the function's own scale.  Negation swaps the signed extrema bit for bit,
and the Reeb shift f -> f + c moves every value by c up to a few ulps.  The
symmetries of the base move the points with the map and keep the values up
to a few ulps: swapping the torus axes (which transposes every scan product)
and rotating the circle by a multiple of 1/64 (which maps the scan grid onto
itself).  Reversing a path keeps its length and its verdict, and adding one
function to every knot keeps everything up to the rounding of the steps.
Reference: T. Y. Chen et al., "Metamorphic testing: a review of challenges
and opportunities", ACM Computing Surveys 51(1), 2018.
"""

from functools import lru_cache

import numpy as np
import pytest

from jetflat.config import POINT_CLUSTER_TOL
from jetflat.fourier import CIRCLE, TORUS2, FourierFunction, attaining_sets, critical_set, sup_norm
from jetflat.geodesics import minimizing_geodesic_check, monotone_check
from jetflat.paths import IsotopyPath
from jetflat.sampling import random_function, random_path, random_quasi_autonomous_path

TOL = 1e-9
DOMAINS = {"S1": CIRCLE, "T2": TORUS2}
EXPONENTS = (-40, -30, -20, -10, 10, 20, 30, 40)


@lru_cache(maxsize=None)
def _functions(kind: str) -> tuple:
    """Degrees 1-8 (S1) or 1-4 (T2), amplitudes 1e-4..1, decays 0..2: C1-small ones included."""
    rng = np.random.default_rng(11)
    count, top = (40, 8) if kind == "S1" else (12, 4)
    return tuple(
        random_function(
            rng,
            DOMAINS[kind],
            int(rng.integers(1, top + 1)),
            amplitude=float(10.0 ** rng.uniform(-4.0, 0.0)),
            decay=float(rng.uniform(0.0, 2.0)),
        )
        for _ in range(count)
    )


def _qa_path(rng, domain, perturbation: float) -> IsotopyPath:
    """Knots stepping along one function h (quasi-autonomous), each step perturbed."""
    h = random_function(rng, domain, 3)
    knots = [random_function(rng, domain, 3)]
    for lam in rng.uniform(0.2, 1.5, 4):
        knots.append(knots[-1] + float(lam) * h + perturbation * random_function(rng, domain, 3))
    return IsotopyPath.uniform(knots)


@lru_cache(maxsize=None)
def _paths(kind: str) -> tuple:
    """Random, quasi-autonomous and near-quasi-autonomous paths (gaps near tol)."""
    rng = np.random.default_rng(404)
    domain = DOMAINS[kind]
    paths = []
    for i in range(12 if kind == "S1" else 6):
        if i % 3 == 0:
            paths.append(random_path(rng, 5, domain, 6 if kind == "S1" else 3))
        elif kind == "S1":
            paths.append(random_quasi_autonomous_path(rng, 5, 6, perturbation=1e-9 * (i % 3 - 1)))
        else:
            paths.append(_qa_path(rng, domain, 1e-9 * (i % 3 - 1)))
    return tuple(paths)


@lru_cache(maxsize=None)
def _monotone_paths(kind: str) -> tuple:
    """Each step a zero-mean bump lifted by its sup norm plus a draw from [-0.05, 0.1]."""
    rng = np.random.default_rng(7)
    domain = DOMAINS[kind]
    paths = []
    for _ in range(10 if kind == "S1" else 6):
        knots = [random_function(rng, domain, 3)]
        for _ in range(3):
            bump = random_function(rng, domain, 3, amplitude=0.2, zero_mean=True)
            knots.append(knots[-1] + bump + (sup_norm(bump) + float(rng.uniform(-0.05, 0.1))))
        paths.append(IsotopyPath.uniform(knots))
    return tuple(paths)


def _scaled(path: IsotopyPath, s: float) -> IsotopyPath:
    return IsotopyPath(knots=tuple(s * f for f in path.knots), times=path.times)


def _assert_record_scaled(r, base, s):
    assert (r.vmax, r.vmin) == (s * base.vmax, s * base.vmin)
    np.testing.assert_array_equal(r.max_points, base.max_points)
    np.testing.assert_array_equal(r.min_points, base.min_points)


# -- scaling f -> 2^k f with tol -> 2^k tol: bit-exact ------------------------


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", DOMAINS)
def test_scaling_attaining_sets(kind, k):
    s = 2.0**k
    fs = _functions(kind)
    for r, base in zip(attaining_sets([s * f for f in fs], s * TOL), attaining_sets(fs, TOL)):
        _assert_record_scaled(r, base, s)


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", DOMAINS)
def test_scaling_critical_set(kind, k):
    s = 2.0**k
    for f in _functions(kind):
        cs, base = critical_set(s * f, s * TOL), critical_set(f, TOL)
        assert cs.points == base.points
        assert cs.values == tuple(s * v for v in base.values)
        assert cs.plateau == base.plateau
        assert cs.point_tolerance == s * base.point_tolerance
        _assert_record_scaled(cs.extrema, base.extrema, s)


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", DOMAINS)
def test_scaling_minimizing_geodesic_check(kind, k):
    s = 2.0**k
    verdicts = set()
    for path in _paths(kind):
        rep, base = minimizing_geodesic_check(_scaled(path, s), s * TOL), minimizing_geodesic_check(path, TOL)
        assert (rep.length, rep.endpoint_distance, rep.gap) == (s * base.length, s * base.endpoint_distance, s * base.gap)
        assert (rep.minimizing, rep.cross_check_mismatch) == (base.minimizing, base.cross_check_mismatch)
        assert (rep.witness is None) == (base.witness is None)
        if base.witness is not None:
            assert (rep.witness.epsilon, rep.witness.base_point) == (base.witness.epsilon, base.witness.base_point)
            assert rep.witness.per_knot_residuals == tuple(s * x for x in base.witness.per_knot_residuals)
        assert rep.segmentation == base.segmentation
        verdicts.add(base.minimizing)
    assert verdicts == {True, False}  # both verdicts are exercised


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", DOMAINS)
def test_scaling_monotone_check(kind, k):
    s = 2.0**k
    verdicts = [monotone_check(path) for path in _monotone_paths(kind)]
    assert set(verdicts) == {True, False}  # both verdicts are exercised
    assert [monotone_check(_scaled(path, s)) for path in _monotone_paths(kind)] == verdicts


# -- negation f -> -f: bit-exact ----------------------------------------------


@pytest.mark.parametrize("kind", DOMAINS)
def test_negation(kind):
    fs = _functions(kind)
    for r, base in zip(attaining_sets([-f for f in fs]), attaining_sets(fs)):
        assert (r.vmax, r.vmin) == (-base.vmin, -base.vmax)
        np.testing.assert_array_equal(r.max_points, base.min_points)
        np.testing.assert_array_equal(r.min_points, base.max_points)
    for f in fs:
        cs, base = critical_set(-f), critical_set(f)
        assert (cs.points, cs.plateau) == (base.points, base.plateau)
        assert cs.values == tuple(-v for v in reversed(base.values))


# -- Reeb shift f -> f + c: a few ulps ----------------------------------------


@pytest.mark.parametrize("c", (0.37, -1.5, 3.0))
@pytest.mark.parametrize("kind", DOMAINS)
def test_reeb_shift(kind, c):
    fs = _functions(kind)
    for f, r, base in zip(fs, attaining_sets([f + c for f in fs]), attaining_sets(fs)):
        ulps = 16.0 * np.spacing(np.abs(f.coeffs).sum() + abs(c))
        assert abs(r.vmax - (base.vmax + c)) <= ulps and abs(r.vmin - (base.vmin + c)) <= ulps
        np.testing.assert_allclose(r.max_points, base.max_points, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(r.min_points, base.min_points, rtol=0.0, atol=1e-12)
        cs, cbase = critical_set(f + c), critical_set(f)
        assert (cs.points, cs.plateau) == (cbase.points, cbase.plateau)
        np.testing.assert_allclose(cs.values, np.array(cbase.values) + c, rtol=0.0, atol=ulps)


# -- symmetries of the base: points move with the map, values a few ulps ------


def _assert_moved(r, base, move, ulps):
    assert abs(r.vmax - base.vmax) <= ulps and abs(r.vmin - base.vmin) <= ulps
    for got, want in ((r.max_points, base.max_points), (r.min_points, base.min_points)):
        want = move(want)
        want = want[np.lexsort(want.T[::-1])]  # the records list points in lexicographic order
        gap = np.abs(got - want)
        assert got.shape == want.shape and np.all(np.minimum(gap, 1.0 - gap) <= 1e-12)


def test_torus_axis_swap():
    fs = _functions("T2")
    swapped = [FourierFunction(TORUS2, f.coeffs.transpose(2, 3, 0, 1)) for f in fs]
    for f, r, base in zip(fs, attaining_sets(swapped), attaining_sets(fs)):
        _assert_moved(r, base, lambda p: p[:, ::-1], 16.0 * np.spacing(np.abs(f.coeffs).sum()))


@pytest.mark.parametrize("j", (1, 13, 32, 63))
def test_circle_dyadic_rotation(j):
    # g(q) = f(q + j/64): the pair (a, b) of frequency k turns by 2 pi k j/64
    fs = _functions("S1")
    rotated = []
    for f in fs:
        a, b = f.coeffs
        turn = 2.0 * np.pi * np.arange(len(a)) * (j / 64)
        c, s = np.cos(turn), np.sin(turn)
        rotated.append(FourierFunction(CIRCLE, [a * c + b * s, b * c - a * s]))
    for f, r, base in zip(fs, attaining_sets(rotated), attaining_sets(fs)):
        _assert_moved(r, base, lambda p: np.mod(p - j / 64, 1.0), 16.0 * np.spacing(np.abs(f.coeffs).sum()))


# -- planted separable sums: the torus answer from two circle answers ---------


def test_torus_separable_sum():
    # h(q1, q2) = f(q1) + g(q2) has grad h = (f'(q1), g'(q2)), so its critical
    # points are the products of those of f and g, its critical values the
    # pairwise sums, and max h = max f + max g
    rng = np.random.default_rng(31)
    for _ in range(8):
        f, g = (random_function(rng, CIRCLE, int(rng.integers(1, 5))) for _ in range(2))
        d = max(f.degree, g.degree)
        c = np.zeros((2, d + 1, 2, d + 1))
        c[:, :, 0, 0] = f.pad_to_degree(d).coeffs
        c[0, 0] += g.pad_to_degree(d).coeffs
        h = FourierFunction(TORUS2, c)
        cf, cg, ch = critical_set(f), critical_set(g), critical_set(h)
        ulps = 16.0 * np.spacing(np.abs(c).sum())
        products = np.array([(p, q) for (p,) in cf.points for (q,) in cg.points])
        points = np.array(ch.points)
        assert len(points) == len(products)
        gap = np.abs(points[:, None] - products[None])
        gap = np.max(np.minimum(gap, 1.0 - gap), axis=-1)
        assert np.all(gap.min(axis=0) <= POINT_CLUSTER_TOL) and np.all(gap.min(axis=1) <= POINT_CLUSTER_TOL)
        sums = np.add.outer(cf.values, cg.values).ravel()
        apart = np.abs(np.array(ch.values)[:, None] - sums[None])
        assert np.all(apart.min(axis=0) <= ulps) and np.all(apart.min(axis=1) <= ulps)
        assert abs(ch.extrema.vmax - (cf.extrema.vmax + cg.extrema.vmax)) <= ulps


# -- path reversal: same length, same verdict ---------------------------------


@pytest.mark.parametrize("kind", DOMAINS)
def test_path_reversal(kind):
    for path in _paths(kind):
        k = path.n_segments
        back = IsotopyPath(knots=path.knots[::-1], times=tuple(1.0 - t for t in path.times[::-1]))
        rep, base = minimizing_geodesic_check(back), minimizing_geodesic_check(path)
        # the same segment norms, summed in the other order
        assert abs(rep.length - base.length) <= 16.0 * np.spacing(base.length)
        assert rep.endpoint_distance == base.endpoint_distance
        assert (rep.minimizing, rep.witness is None) == (base.minimizing, base.witness is None)
        mirrored = sorted((k - j, k - i) for i, j in base.segmentation.windows)
        assert sorted(rep.segmentation.windows) == mirrored


# -- adding one function to every knot: the same steps, to rounding -----------


@pytest.mark.parametrize("kind", DOMAINS)
def test_common_knot_shift(kind):
    rng = np.random.default_rng(23)
    for path in _paths(kind):
        g = random_function(rng, DOMAINS[kind], 4)
        moved = IsotopyPath(knots=tuple(f + g for f in path.knots), times=path.times)
        rep, base = minimizing_geodesic_check(moved), minimizing_geodesic_check(path)
        # each step and the endpoint difference are recomputed from the moved
        # knots, so each coefficient is off by rounding at the knots' scale
        ulps = 16.0 * np.spacing(max(np.abs(f.coeffs).sum() for f in moved.knots))
        assert abs(rep.length - base.length) <= ulps
        assert abs(rep.gap - base.gap) <= ulps
        assert (rep.minimizing, rep.witness is None) == (base.minimizing, base.witness is None)
        assert rep.segmentation == base.segmentation
