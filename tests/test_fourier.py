import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetflat import fourier
from jetflat.errors import DimensionMismatch
from jetflat.fourier import (
    CIRCLE,
    TORUS2,
    FourierFunction,
    attaining_set,
    attaining_sets,
    critical_set,
    extremum,
    sup_norm,
    sup_norm_by_squaring,
)
from jetflat.sampling import random_function

from conftest import fn
from oracles import (
    dedupe_points_loop,
    dense_max,
    dense_sup_norm,
    eval_direct,
    eval_torus_direct,
    gradient,
    hessian,
)

coeff_lists = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4)


# -- evaluation ------------------------------------------------------------


def test_constant_evaluation():
    assert fn(0.5)(0.3) == 0.5


def test_unit_cosine_at_zero():
    assert fn(0.0, [1.0])(0.0) == 1.0


def test_evaluation_matches_direct_summation():
    f = fn(0.0, [1.0, 0.5])
    g = fn(0.0, [1.0], [0.0, 0.5])  # cos(2 pi q) + 0.5 sin(4 pi q)
    assert g(0.25) == pytest.approx(eval_direct(0.0, [1.0], [0.0, 0.5], 0.25), abs=1e-14)
    xs = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(f(xs), eval_direct(0.0, [1.0, 0.5], [], xs), atol=1e-13)


def test_evaluation_matches_dense_grid_oracle():
    g = fn(0.1, [1.0, 0.2], [0.0, 0.5])
    n = 1 << 20
    xs = np.arange(n) / n
    gap = np.max(np.abs(g.values_on_grid(n)[0] - eval_direct(0.1, [1.0, 0.2], [0.0, 0.5], xs)))
    assert gap <= 1e-12


@given(coeff_lists, coeff_lists, st.floats(0.0, 1.0))
def test_evaluation_periodicity(cos, sin, x):
    f = fn(0.1, cos, sin)
    assert f(x) == pytest.approx(f(x + 1.0), abs=1e-10)
    assert f(x) == pytest.approx(f(x - 3.0), abs=1e-10)


def test_dimension_mismatch_errors():
    f = fn(0.0, [1.0])
    with pytest.raises(DimensionMismatch):
        f(np.zeros((4, 2)))  # torus-style points on a circle function
    t = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        t(np.array([0.1, 0.2, 0.3]))


def test_torus_evaluation_separable():
    t = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])
    for q1, q2 in [(0.0, 0.0), (0.3, 0.7), (0.5, 0.25)]:
        expect = np.cos(2 * np.pi * q1) + np.cos(2 * np.pi * q2)
        assert t((q1, q2)) == pytest.approx(expect, abs=1e-12)


def test_torus_mixed_terms():
    # sin(2 pi q1) * cos(4 pi q2)
    sc = np.zeros((3, 3))
    sc[1, 2] = 1.0
    t = FourierFunction.from_torus_coeffs(0.0, np.zeros((3, 3)), sc=sc)
    q1, q2 = 0.2, 0.15
    assert t((q1, q2)) == pytest.approx(
        np.sin(2 * np.pi * q1) * np.cos(4 * np.pi * q2), abs=1e-12
    )


# -- derivatives -----------------------------------------------------------


@given(coeff_lists, coeff_lists)
def test_derivative_is_analytic_limit(cos, sin):
    f = fn(0.3, cos, sin)
    fp = f.derivative()
    x = 0.37
    errs = [abs((f(x + h) - f(x - h)) / (2 * h) - fp(x)) for h in (1e-2, 1e-3, 1e-4)]
    scale = sum(abs(c) for c in cos) + sum(abs(s) for s in sin)
    if scale > 1e-3 and errs[0] > 1e-9:  # only meaningful when f actually bends
        assert errs[1] <= errs[0] * 0.05
        assert errs[2] <= errs[1] * 0.05 + 1e-12


def test_gradient_on_torus():
    sc = np.zeros((2, 2))
    sc[1, 1] = 1.0  # sin(2 pi q1) cos(2 pi q2)
    t = FourierFunction.from_torus_coeffs(0.0, np.zeros((2, 2)), sc=sc)
    g1, g2 = gradient(t)
    q = (0.1, 0.2)
    assert g1(q) == pytest.approx(
        2 * np.pi * np.cos(2 * np.pi * 0.1) * np.cos(2 * np.pi * 0.2), abs=1e-12
    )
    assert g2(q) == pytest.approx(
        -2 * np.pi * np.sin(2 * np.pi * 0.1) * np.sin(2 * np.pi * 0.2), abs=1e-12
    )


# -- extremum --------------------------------------------------------------


def test_extremum_zero_function():
    value, point = extremum(fn(0.0), "max")
    assert value == 0.0
    assert len(point) == 1


def test_extremum_amplitude():
    f = fn(0.0, [0.3], [-0.1])
    assert extremum(f, "max").value == pytest.approx(np.sqrt(0.1), abs=1e-12)
    assert extremum(f, "max").value == pytest.approx(
        dense_max(0.0, [0.3], [-0.1]), abs=1e-12
    )
    assert extremum(f, "min").value == pytest.approx(-np.sqrt(0.1), abs=1e-12)


def test_extremum_torus_separable():
    t = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])
    value, point = extremum(t, "max")
    assert value == pytest.approx(2.0, abs=1e-12)
    assert point == (0.0, 0.0)


def test_argmax_of_negation_is_argmin():
    f = fn(0.1, [0.2, -0.3], [0.15])
    assert extremum(-f, "max").point == extremum(f, "min").point
    assert extremum(-f, "max").value == -extremum(f, "min").value


def test_extremum_tie_break_lexicographic():
    f = fn(0.0, [0.0, 1.0])  # cos(4 pi q): maxima at 0 and 1/2
    assert extremum(f, "max").point == (0.0,)
    pts = attaining_set(f).max_points
    assert len(pts) == 2
    assert pts[0][0] == pytest.approx(0.0, abs=1e-9)
    assert pts[1][0] == pytest.approx(0.5, abs=1e-9)


@given(coeff_lists, coeff_lists)
def test_extremum_sandwich(cos, sin):
    f = fn(0.0, cos, sin)
    grid = f.values_on_grid(512)[0]
    lo = extremum(f, "min").value
    hi = extremum(f, "max").value
    assert lo <= grid.min() + 1e-12
    assert hi >= grid.max() - 1e-12
    assert lo <= hi


def test_sup_norm_two_routes_agree(rng):
    for _ in range(20):
        k = np.arange(1, 9.0)
        f = fn(rng.normal(), rng.normal(size=8) / (1 + k), rng.normal(size=8) / (1 + k))
        a = sup_norm(f)
        b = sup_norm_by_squaring(f)
        assert a == pytest.approx(b, abs=1e-12)
        a0, ca, sa = f.circle_cos_sin()
        assert a == pytest.approx(dense_sup_norm(a0, ca, sa), abs=1e-11)


# -- critical sets ----------------------------------------------------------


def test_critical_values_of_cosine():
    cs = critical_set(fn(0.0, [1.0]))
    assert cs.values == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert not cs.plateau
    assert sorted(p[0] for p in cs.points) == pytest.approx([0.0, 0.5], abs=1e-9)


def test_critical_set_constant_plateau():
    cs = critical_set(fn(0.25))
    assert cs.plateau
    assert cs.values == (0.25,)


def test_critical_values_double_frequency():
    cs = critical_set(fn(0.0, [0.0, 1.0]))
    assert cs.values == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert len(cs.points) == 4  # each value attained twice


def test_critical_set_contains_tangential_zero():
    # sin(2 pi q)(1 - cos(2 pi q)) = sin(2 pi q) - 0.5 sin(4 pi q):
    # f'(0) = 0 without a sign change
    f = fn(0.0, [], [1.0, -0.5])
    cs = critical_set(f)
    assert any(abs(v) < 1e-9 for v in cs.values)
    peak = 1.5 * np.sqrt(3.0) / 2.0
    assert max(cs.values) == pytest.approx(peak, abs=1e-9)
    assert min(cs.values) == pytest.approx(-peak, abs=1e-9)


@given(coeff_lists, coeff_lists, st.floats(-2.0, 2.0))
def test_critical_values_shift_by_constant(cos, sin, c):
    f = fn(0.1, cos, sin)
    base = critical_set(f).values
    shifted = critical_set(f + c).values
    assert len(base) == len(shifted)
    np.testing.assert_allclose(shifted, np.asarray(base) + c, atol=1e-11)


@given(coeff_lists, coeff_lists)
def test_critical_values_negate(cos, sin):
    f = fn(0.1, cos, sin)
    base = critical_set(f).values
    negated = critical_set(-f).values
    np.testing.assert_allclose(sorted(-v for v in base), negated, atol=1e-14)


@given(coeff_lists, coeff_lists)
def test_extrema_appear_among_critical_values(cos, sin):
    f = fn(0.0, cos, sin)
    cs = critical_set(f)
    for mode in ("max", "min"):
        v = extremum(f, mode).value
        assert any(abs(v - w) <= 2 * cs.tolerance for w in cs.values)


def test_stored_points_satisfy_point_tolerance(rng):
    for _ in range(10):
        k = np.arange(1, 7.0)
        f = fn(rng.normal(), rng.normal(size=6) / (1 + k), rng.normal(size=6) / (1 + k))
        cs = critical_set(f)
        fp = f.derivative()
        assert all(abs(fp(p[0])) <= cs.point_tolerance for p in cs.points)


def test_critical_set_torus_separable():
    t = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])
    cs = critical_set(t)
    assert cs.values == pytest.approx((-2.0, 0.0, 2.0), abs=1e-10)
    assert len(cs.points) == 4


# -- one scan per query --------------------------------------------------------


@pytest.mark.parametrize(
    "f",
    [
        fn(0.1, [0.3, -0.2], [0.1, 0.05]),
        FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [0.5, 0.2]], ss=[[0.0, 0.0], [0.0, 0.3]]),
    ],
    ids=["S1", "T2"],
)
def test_one_grid_evaluation_per_query(monkeypatch, f):
    calls = []
    scan = FourierFunction.values_on_grid

    def counted(self, *args, **kwargs):
        calls.append(args)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(FourierFunction, "values_on_grid", counted)
    for query in (attaining_set, extremum, sup_norm, critical_set):
        calls.clear()
        query(f)
        assert len(calls) == 1, query.__name__


@pytest.mark.parametrize(
    "f",
    [
        fn(0.1, [0.3, -0.2], [0.1, 0.05]),
        FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [0.5, 0.2]], ss=[[0.0, 0.0], [0.0, 0.3]]),
        fn(0.25),
        FourierFunction.constant(-0.4, TORUS2),
    ],
    ids=["S1", "T2", "constant", "T2 constant"],
)
def test_critical_set_carries_the_attaining_set_record(f):
    ext, ref = critical_set(f).extrema, attaining_set(f)
    assert ext.f == ref.f
    assert (ext.vmax, ext.vmin) == (ref.vmax, ref.vmin)
    np.testing.assert_array_equal(ext.max_points, ref.max_points)
    np.testing.assert_array_equal(ext.min_points, ref.min_points)
    # extremum takes the same route: the record's value and first point
    assert extremum(f, "max") == (ref.vmax, tuple(ref.max_points[0]))
    assert extremum(f, "min") == (ref.vmin, tuple(ref.min_points[0]))


def test_scan_stack_matches_separate_grids():
    f = fn(0.1, [0.3, -0.2], [0.1, 0.05])
    fp = f.derivative()
    stack = f.values_on_grid(64)
    for grid, g in zip(stack, (f, fp, fp.derivative())):
        np.testing.assert_allclose(grid, g(np.arange(64) / 64), atol=1e-12)
    t = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [0.5, 0.2]], ss=[[0.0, 0.0], [0.0, 0.3]])
    q = np.arange(16) / 16
    pts = np.stack(np.meshgrid(q, q, indexing="ij"), axis=-1).reshape(-1, 2)
    stack = t.values_on_grid(16)
    for grid, g in zip(stack, (t,) + gradient(t) + hessian(t)):
        np.testing.assert_allclose(grid.ravel(), g(pts), atol=1e-11)


def test_fallbacks_when_torus_newton_fails(monkeypatch, rng):
    # every torus seed falls back to itself: a grid point of the scan whose
    # value is the scan's top
    n = fourier.DEFAULT_TORUS_SCAN

    def failed(stack, seeds, residual):
        return np.full(np.shape(seeds), np.nan)

    monkeypatch.setattr(fourier, "_newton_torus", failed)
    fs = [random_function(rng, TORUS2, d) for d in (1, 2, 3, 3)]
    for f, r in zip(fs, attaining_sets(fs)):
        grid = f.values_on_grid(n)[0]
        for value, top, points in ((r.vmax, grid.max(), r.max_points), (r.vmin, grid.min(), r.min_points)):
            assert abs(value - top) <= 1e-12
            assert len(points) and np.array_equal(points * n, np.round(points * n))


def test_fallbacks_when_circle_newton_fails(monkeypatch, rng):
    used = []

    def counted(fallback):
        def wrapper(*args, **kwargs):
            used.append(fallback.__name__)
            return fallback(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fourier, "_newton_circle", lambda f, seeds, *rest: np.full(len(seeds), np.nan))
    for name in ("_ternary_max_circle", "_bisect_root"):
        monkeypatch.setattr(fourier, name, counted(getattr(fourier, name)))
    for _ in range(5):
        k = np.arange(1, 7.0)
        a0, ca, sa = rng.normal(), rng.normal(size=6) / (1 + k), rng.normal(size=6) / (1 + k)
        f = fn(a0, ca, sa)
        hi = dense_max(a0, ca, sa)
        lo = -dense_max(-a0, -ca, -sa)
        ext = attaining_set(f)
        assert ext.vmax == pytest.approx(hi, abs=1e-11)
        assert ext.vmin == pytest.approx(lo, abs=1e-11)
        cs = critical_set(f)
        assert max(cs.values) == pytest.approx(hi, abs=1e-11)
        assert min(cs.values) == pytest.approx(lo, abs=1e-11)
    assert {"_ternary_max_circle", "_bisect_root"} <= set(used)


# -- one batch for many circle functions ----------------------------------------


def _batch_cases():
    """(name, a0, cos, sin): the shapes a batch must not treat differently."""
    w = 2 * np.pi * 1e-5  # cos(2 pi k (q + 1e-5)) peaks at 1 - 1e-5, between the last grid point and 0
    eps = 2.5e-11  # cos(4 pi q) + eps cos(2 pi q): maxima at 0 and 1/2, 2 eps = 5e-11 apart
    return [
        ("constant", 0.25, [], []),
        ("zero", 0.0, [], []),
        ("degree-1", 0.1, [0.3], [-0.4]),
        ("degree-1 sine", -0.7, [], [1.3]),
        ("straddles 0", 0.05, [np.cos(w), 0.0, 0.01 * np.cos(3 * w)], [-np.sin(w), 0.0, -0.01 * np.sin(3 * w)]),
        ("twin maxima", 0.0, [eps, 1.0], []),
        ("degree 3", 0.2, [0.3, -0.2, 0.05], [0.1, 0.04]),
        ("degree 8", -0.1, [0.4, 0.0, -0.1, 0.02, 0.0, 0.01, 0.0, -0.005], [0.0, 0.3]),
    ]


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.f == b.f
        assert (a.vmax, a.vmin) == (b.vmax, b.vmin)
        assert np.array_equal(a.max_points, b.max_points)
        assert np.array_equal(a.min_points, b.min_points)


def test_attaining_sets_do_not_depend_on_the_batch():
    circle = [fn(a0, cos, sin) for _, a0, cos, sin in _batch_cases()]
    # torus functions of degrees 1, 3 and 2 share one zero-padded Newton run
    rng = np.random.default_rng(8)
    torus = [
        FourierFunction.from_torus_coeffs(0.1, [[0.0, 1.0], [0.5, 0.2]], ss=[[0.0, 0.0], [0.0, 0.3]]),
        FourierFunction.constant(-0.4, TORUS2),
        random_function(rng, TORUS2, 3),
        random_function(rng, TORUS2, 2),
    ]
    fs = circle[:4] + torus + circle[4:]
    records = attaining_sets(fs)
    assert attaining_sets([]) == []
    _assert_same_records([attaining_set(f) for f in fs], records)
    order = np.random.default_rng(3).permutation(len(fs))
    _assert_same_records(attaining_sets([fs[i] for i in order]), [records[i] for i in order])
    _assert_same_records(attaining_sets(fs[:3]) + attaining_sets(fs[3:]), records)
    assert records[5].vmax == records[5].vmin == -0.4
    circle_records = records[:4] + records[4 + len(torus) :]
    for (name, a0, cos, sin), r in zip(_batch_cases(), circle_records):
        if not cos and not sin:
            assert r.vmax == r.vmin == a0, name
            continue
        if name.startswith("degree-1"):
            amp = np.hypot(cos[0] if cos else 0.0, sin[0] if sin else 0.0)
            assert r.vmax == pytest.approx(a0 + amp, abs=1e-15), name
            assert r.vmin == pytest.approx(a0 - amp, abs=1e-15), name
        assert r.vmax == pytest.approx(dense_max(a0, cos, sin), abs=1e-11), name
        neg = [-c for c in cos], [-c for c in sin]
        assert r.vmin == pytest.approx(-dense_max(-a0, *neg), abs=1e-11), name
    straddle = circle_records[4].max_points[:, 0]
    assert len(straddle) == 1 and straddle[0] == pytest.approx(1.0 - 1e-5, abs=1e-12)
    twins = circle_records[5].max_points[:, 0]
    assert twins == pytest.approx([0.0, 0.5], abs=1e-9)


def test_tied_circle_maxima_each_get_a_point():
    # two equal maxima at +-arccos(0.999) / 2 pi ~ +-0.007118; the dip between
    # them (5e-7) lies far above tol but inside the margin of the scan
    f = fn(0.5, [0.999, -0.25])
    r = attaining_set(f, 1e-9)
    top = dense_max(0.5, [0.999, -0.25], [])
    q = np.arccos(0.999) / (2 * np.pi)
    assert r.vmax == pytest.approx(top, abs=1e-12)
    assert r.max_points[:, 0] == pytest.approx([q, 1.0 - q], abs=1e-9)
    assert f(r.max_points[:, 0]) == pytest.approx([top, top], abs=1e-12)


def test_torus_stacks_are_the_derivative_coefficients():
    # the real derivative stacks hold the real coefficients of f, its
    # gradient and its Hessian, zero-padded to the batch's top degree, as
    # the complex route of the oracle derives them; on both domains
    rng = np.random.default_rng(4)
    for domain in (CIRCLE, TORUS2):
        for scale in (1e-8, 1.0, 1e8):
            fs = [scale * random_function(rng, domain, d) for d in (1, 3, 0)]
            for stack, f in zip(fourier._stacks(fs), fs):
                for c, g in zip(stack, (f,) + gradient(f) + hessian(f)):
                    want = g.pad_to_degree(3).real_coeffs()
                    atol = 1e-15 * np.max(np.abs(want))
                    np.testing.assert_allclose(c, want, rtol=0, atol=atol, err_msg=f"{domain.kind} {scale}")


def _dedupe_cases():
    rng = np.random.default_rng(12)
    tol = 1e-6
    centres = rng.random((20, 2))
    spread = 10.0 ** rng.integers(-12, -6, (200, 1))
    clusters = np.repeat(centres, 10, axis=0) + spread * rng.standard_normal((200, 2))
    chain = 0.3 + tol * np.cumsum(1.0 + 1e-3 * rng.standard_normal(30))
    straddle = np.array([[0.0], [1.0 - 4e-7], [3e-7], [0.5], [1.0 - 2e-6], [2e-6]])
    return {
        "empty (m,1)": np.zeros((0, 1)),
        "empty (m,2)": np.zeros((0, 2)),
        "single (m,1)": np.array([[0.25]]),
        "single (m,2)": np.array([[0.25, 0.75]]),
        "clusters (m,2)": rng.permutation(np.mod(clusters, 1.0)),
        "clusters (m,1)": rng.permutation(np.mod(clusters[:, :1], 1.0)),
        "chain (m,1)": chain[:, None],
        "shuffled chain (m,1)": rng.permutation(chain)[:, None],
        "chain (m,2)": np.stack([chain, 0.9 + 1e-3 * tol * rng.standard_normal(30)], axis=1),
        "straddles 0/1 (m,1)": straddle,
        "straddles 0/1 (m,2)": np.concatenate([straddle, straddle[[1, 0, 3, 2, 5, 4]]], axis=1),
    }


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_dedupe_points_matches_the_pairwise_loop(tol):
    for name, pts in _dedupe_cases().items():
        got, want = fourier._dedupe_points(pts, tol), dedupe_points_loop(pts, tol)
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
def test_attaining_sets_reject_a_tolerance_that_is_not_positive(tol):
    # the bound of the command line's --tol, checked where a library caller
    # hands its own tolerance in, before either domain scans
    for f in (fn(0.0, [0.3], [0.1]), FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(ValueError, match="positive"):
            attaining_set(f, tol)
        with pytest.raises(ValueError, match="positive"):
            attaining_sets([f], tol)


def test_circle_constructor_matches_the_padded_construction():
    def padded(a0, cos, sin):
        d = max(len(cos), len(sin))
        a = np.pad(np.asarray(cos, dtype=float), (0, d - len(cos)))
        b = np.pad(np.asarray(sin, dtype=float), (0, d - len(sin)))
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d] = a0
        c[d + 1 :] = 0.5 * (a - 1j * b)
        c[:d] = np.conj(c[d + 1 :][::-1])
        return FourierFunction(CIRCLE, c)

    for a0, cos, sin in [
        (0.1, [0.3, -0.0, -1.5], [-0.2]),
        (-2.0, [], [0.5, -0.25, 0.0]),
        (0.0, [1.0, -2.0], []),
        (0.3, [0.0], [-0.0, 4.0, -1e-300]),
    ]:
        got, want = fn(a0, cos, sin).coeffs, padded(a0, cos, sin).coeffs
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (cos, sin)


def test_torus_layout_matches_the_double_loop(rng):
    def looped(a0, cc, cs, sc, ss):
        d = cc.shape[0] - 1
        c = np.zeros((2 * d + 1, 2 * d + 1), dtype=complex)
        c[d, d] = a0 + cc[0, 0]
        for k1 in range(0, d + 1):
            for k2 in range(0, d + 1):
                if k1 == 0 and k2 == 0:
                    continue
                if k1 == 0:
                    val = 0.5 * (cc[0, k2] - 1j * cs[0, k2])
                    c[d, d + k2] += val
                    c[d, d - k2] += np.conj(val)
                elif k2 == 0:
                    val = 0.5 * (cc[k1, 0] - 1j * sc[k1, 0])
                    c[d + k1, d] += val
                    c[d - k1, d] += np.conj(val)
                else:
                    p = 0.25 * ((cc[k1, k2] - ss[k1, k2]) - 1j * (cs[k1, k2] + sc[k1, k2]))
                    q = 0.25 * ((cc[k1, k2] + ss[k1, k2]) + 1j * (cs[k1, k2] - sc[k1, k2]))
                    c[d + k1, d + k2] += p
                    c[d - k1, d - k2] += np.conj(p)
                    c[d + k1, d - k2] += q
                    c[d - k1, d + k2] += np.conj(q)
        return FourierFunction(TORUS2, c)

    def looped_blocks(f):
        d, c = f.degree, f.coeffs
        cc, cs, sc, ss = np.zeros((4, d + 1, d + 1))
        for k2 in range(1, d + 1):
            cc[0, k2], cs[0, k2] = 2.0 * c[d, d + k2].real, -2.0 * c[d, d + k2].imag
        for k1 in range(1, d + 1):
            cc[k1, 0], sc[k1, 0] = 2.0 * c[d + k1, d].real, -2.0 * c[d + k1, d].imag
            for k2 in range(1, d + 1):
                p, q = c[d + k1, d + k2], c[d + k1, d - k2]
                cc[k1, k2] = 2.0 * (p.real + q.real)
                ss[k1, k2] = 2.0 * (q.real - p.real)
                cs[k1, k2] = 2.0 * (q.imag - p.imag)
                sc[k1, k2] = -2.0 * (p.imag + q.imag)
        return f.mean_value, cc, cs, sc, ss

    def bits(a):
        return np.asarray(a).view(np.uint64)

    for degree in range(7):
        for scale in (1e-8, 1.0, 1e8):
            # nonzero also where the layout ignores an entry (cs[:, 0],
            # ss[:, 0], sc[0, :] and ss[0, :]), and a row of signed zeros
            a0 = scale * rng.normal()
            blocks = scale * rng.normal(size=(4, degree + 1, degree + 1))
            blocks[:, -1] *= -0.0
            cc, cs, sc, ss = blocks
            args = (a0, cc, cs, sc, ss)
            got, want = FourierFunction.from_torus_coeffs(*args), looped(*args)
            assert np.array_equal(bits(got.coeffs), bits(want.coeffs)), (degree, scale)
            for g, w in zip(got.torus_blocks(), looped_blocks(want)):
                assert np.array_equal(bits(g), bits(w)), (degree, scale)


def test_real_coeffs_sum_to_the_function(rng):
    # the real layout every kernel reads, summed term by term, gives the
    # function its constructor inputs describe; the sin 0 slots hold zeros
    for degree in range(7):
        for scale in (1e-8, 1.0, 1e8):
            a0, cos, sin = scale * rng.normal(), scale * rng.normal(size=degree), scale * rng.normal(size=degree)
            r = fn(a0, cos, sin).real_coeffs()
            assert r.shape == (2, degree + 1) and r[1, 0] == 0.0
            xs = rng.uniform(0.0, 1.0, 9)
            want = eval_direct(a0, cos, sin, xs)
            tol = 1e-15 * scale * (1 + 2 * degree)
            np.testing.assert_allclose(eval_direct(r[0, 0], r[0, 1:], r[1, 1:], xs), want, rtol=0, atol=tol)
            a0, cc, cs, sc, ss = scale * rng.normal(), *(scale * rng.normal(size=(4, degree + 1, degree + 1)))
            for b in (cs[:, 0], sc[0], ss[0], ss[:, 0]):
                b[:] = 0.0  # these slots multiply sin 0
            t = FourierFunction.from_torus_coeffs(a0, cc, cs, sc, ss)
            r = t.real_coeffs()
            assert r.shape == (2, degree + 1, 2, degree + 1)
            assert not r[:, :, 1, 0].any() and not r[1, 0].any()
            pts = rng.uniform(0.0, 1.0, (9, 2))
            want = eval_torus_direct(a0, cc, cs, sc, ss, pts)
            tol = 1e-15 * scale * 4 * (degree + 1) ** 2
            got = eval_torus_direct(0.0, r[0, :, 0], r[0, :, 1], r[1, :, 0], r[1, :, 1], pts)
            np.testing.assert_allclose(got, want, rtol=0, atol=tol, err_msg=f"{degree} {scale}")
            np.testing.assert_allclose(t(pts), want, rtol=0, atol=tol, err_msg=f"{degree} {scale}")


# -- structure ---------------------------------------------------------------


def test_equality_is_exact_coefficient_agreement():
    a = fn(0.1, [0.2])
    assert a == fn(0.1, [0.2])
    assert a == fn(0.1, [0.2, 0.0])  # padding does not matter
    assert a != fn(0.1, [0.2 + 1e-16])
    assert a != FourierFunction.constant(0.1, TORUS2)


def test_immutability():
    f = fn(0.1, [0.2])
    with pytest.raises(AttributeError):
        f.domain = TORUS2
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


def test_arithmetic_roundtrip():
    a = fn(0.3, [0.5], [0.1])
    b = fn(-0.2, [0.0, 1.0])
    assert (a + b - b) == a
    assert (2.0 * a - a) == a
    assert (a + 1.5).mean_value == pytest.approx(1.8)
    assert (-a)(0.3) == -a(0.3)


def test_multiply_exactness(rng):
    a = fn(0.3, rng.normal(size=3), rng.normal(size=3))
    b = fn(-0.1, rng.normal(size=2), rng.normal(size=2))
    prod = a.multiply(b)
    assert prod.degree == a.degree + b.degree
    for x in rng.uniform(0, 1, 8):
        assert prod(x) == pytest.approx(a(x) * b(x), abs=1e-13)
