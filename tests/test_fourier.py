import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetflat import fourier
from jetflat.config import POINT_CLUSTER_TOL
from jetflat.errors import DimensionMismatch
from jetflat.fourier import (
    CIRCLE,
    TORUS2,
    FourierFunction,
    attaining_set,
    attaining_sets,
    critical_set,
    critical_sets,
    extremum,
    sup_norm,
    sup_norm_by_squaring,
)
from jetflat.sampling import random_function

from conftest import fn
from oracles import (
    companion_critical_points,
    dedupe_points_loop,
    dense_max,
    dense_sup_norm,
    eval_direct,
    eval_torus_direct,
    partials_direct,
    scan_one_shot,
    torus_partials_direct,
)

coeff_lists = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4)


def scan_grids(f, n):
    """The scan grids of f at i/n: f, f', f'' of a circle function, in one product of
    its derivative stack (_circle_scans), and the six torus grids (values_on_grid)."""
    if f.domain.kind == "T2":
        return f.values_on_grid(n)
    return fourier._circle_scans(fourier._derivative_stack(f.coeffs[None]), n)[0]


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
    gap = np.max(np.abs(scan_grids(g, n)[0] - eval_direct(0.1, [1.0, 0.2], [0.0, 0.5], xs)))
    assert gap <= 1e-12


@given(coeff_lists, coeff_lists, st.floats(0.0, 1.0))
def test_evaluation_periodicity(cos, sin, x):
    f = fn(0.1, cos, sin)
    assert f(x) == pytest.approx(f(x + 1.0), abs=1e-10)
    assert f(x) == pytest.approx(f(x - 3.0), abs=1e-10)


@pytest.mark.parametrize("domain", [CIRCLE, TORUS2])
def test_a_point_value_has_the_same_bits_alone_in_arrays_and_padded(domain):
    # every point value is one sum in a fixed term order, so neither the
    # length of the array a point comes in nor zero padding of f can move it
    rng = np.random.default_rng(7)
    for d in range(1, 17):
        for _ in range(20):
            f = random_function(rng, domain, d)
            xs = rng.uniform(-1.0, 2.0, (37,) if domain is CIRCLE else (37, 2))
            want = f(xs)
            assert [f(x) for x in xs] == want.tolist()
            for n in (1, 2, 3, 5, 8, 13, 36):
                assert f(xs[:n]).tolist() == want[:n].tolist()
                assert f(xs[-n:]).tolist() == want[-n:].tolist()
            assert f.pad_to_degree(d + 3)(xs).tolist() == want.tolist()


def test_dimension_mismatch_errors():
    f = fn(0.0, [1.0])
    with pytest.raises(DimensionMismatch):
        f(np.zeros((4, 2)))  # torus-style points on a circle function
    with pytest.raises(DimensionMismatch):
        f.values_on_grid(64)  # the torus scan; circle functions are scanned in stacks
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
    q = (0.1, 0.2)
    want = (
        2 * np.pi * np.cos(2 * np.pi * 0.1) * np.cos(2 * np.pi * 0.2),
        -2 * np.pi * np.sin(2 * np.pi * 0.1) * np.sin(2 * np.pi * 0.2),
    )
    assert (t.derivative(0)(q), t.derivative(1)(q)) == pytest.approx(want, abs=1e-12)
    # the oracle's written-out partials agree with the closed form
    partials = torus_partials_direct(*t.torus_blocks(), [q])[1:3, 0]
    assert tuple(partials) == pytest.approx(want, abs=1e-12)


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
    grid = scan_grids(f, 512)[0]
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
    # at amplitude 1e-11 max|f'| is below 1: the Newton residual and the
    # plateau threshold scale with it, so no seed a grid cell from a root
    # passes for one and the two flat extrema make no plateau
    for amp in (1.0, 1e-11):
        cs = critical_set(fn(0.0, [amp]), tol=amp * 1e-9)
        assert cs.values == pytest.approx((-amp, amp), abs=amp * 1e-12)
        assert not cs.plateau
        assert cs.points == ((0.0,), (0.5,))


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
def test_one_grid_evaluation_per_query(scanned, f):
    for query in (attaining_set, extremum, sup_norm, critical_set):
        scanned.clear()
        query(f)
        assert len(scanned) == 1, query.__name__


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
    want = partials_direct(*f.circle_cos_sin(), np.arange(64) / 64)
    np.testing.assert_allclose(scan_grids(f, 64), want, atol=1e-12)
    t = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [0.5, 0.2]], ss=[[0.0, 0.0], [0.0, 0.3]])
    q = np.arange(16) / 16
    pts = np.stack(np.meshgrid(q, q, indexing="ij"), axis=-1).reshape(-1, 2)
    want = torus_partials_direct(*t.torus_blocks(), pts)
    np.testing.assert_allclose(t.values_on_grid(16).reshape(6, -1), want, atol=1e-11)


# -- scan products in blocks under the BLAS threading threshold ---------------

# S1 degrees 0-64 at the scan size of their degree, T2 degrees 0-32 at 256 per axis
SCAN_CASES = [(CIRCLE, d, fourier._circle_size(d)) for d in range(65)] + [(TORUS2, d, 256) for d in range(33)]
# circle stacks of one degree: a size from 2 to 8, in turn by degree, and the
# full stack of the scan budget (512 functions at degree 1, 8 at degree 64)
STACK_CASES = [
    (d, n, m)
    for domain, d, n in SCAN_CASES
    if domain.kind == "S1"
    for m in (2 + d % 7, fourier.CIRCLE_STACK // (2 * n))
]


def test_block_is_the_largest_power_of_two_under_the_call_size():
    for size in (3, 256, 1536, 4096, 8 * 520):
        for per_item in (1, 3 * 130, 130 * 130, 130 * 256, 1 << 18):
            block = fourier._block(size, per_item)
            assert block & (block - 1) == 0 and size % block == 0
            assert block * per_item <= fourier.BLAS_CALL or block == 1
            assert size % (2 * block) or 2 * block * per_item > fourier.BLAS_CALL


def test_scan_products_stay_under_the_call_size(monkeypatch):
    # every product of a scan is one stacked np.matmul; each of its BLAS calls
    # (one per block) multiplies an (m, k) block by a (k, p) one
    calls = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        calls.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(17)
    for domain, d, n in SCAN_CASES:
        calls.clear()
        scan_grids(random_function(rng, domain, d), n)
        assert len(calls) == (1 if domain.kind == "S1" else 2), (domain.kind, d)
        for a, b in calls:
            assert a[-2] * a[-1] * b[-1] <= fourier.BLAS_CALL, (domain.kind, d, a, b)
    # a stack of circle functions of one degree is one product as well, of
    # two rows (f and f') per function
    for d, n, m in STACK_CASES:
        calls.clear()
        assert fourier._scan(np.array([random_function(rng, CIRCLE, d).coeffs for _ in range(m)])).shape == (m, 2, n)
        assert len(calls) == 1, (d, m)
        for a, b in calls:
            assert a[-2] == 2 * m and a[-2] * a[-1] * b[-1] <= fourier.BLAS_CALL, (d, m, a, b)


def test_circle_stacks_fill_the_scan_budget(monkeypatch):
    # a batch scans the circle functions of one degree in stacks of as many
    # as 2^16 scan values hold, 2 rows of _circle_size(D) points each
    stacks = []
    scan = fourier._scan
    monkeypatch.setattr(fourier, "_scan", lambda c: stacks.append(c.shape) or scan(c))
    rng = np.random.default_rng(6)
    attaining_sets(random_function(rng, CIRCLE, d) for d, m in ((5, 65), (1, 600), (40, 9)) for _ in range(m))
    assert stacks == [(64, 2, 6), (1, 2, 6), (512, 2, 2), (88, 2, 2), (8, 2, 41), (1, 2, 41)]
    for m, _, k in stacks:
        assert 2 * m * fourier._circle_size(k - 1) <= fourier.CIRCLE_STACK


def test_blocked_scan_is_the_one_shot_product():
    # bit for bit, except where OpenBLAS picks another kernel for the small
    # calls than for the one-shot call: the T2 product B V from degree 32 on
    # (2-3 ulps of each grid's max here)
    rng = np.random.default_rng(18)
    for domain, d, n in SCAN_CASES:
        f = random_function(rng, domain, d, decay=float(rng.uniform(0.0, 2.0)))
        got, want = scan_grids(f, n), scan_one_shot(f.coeffs, n)
        if domain.kind == "S1" or d < 32:
            assert np.array_equal(got, want), (domain.kind, d)
        else:
            scale = np.abs(want).reshape(6, -1).max(axis=1)[:, None, None]
            assert np.all(np.abs(got - want) <= 16 * np.spacing(scale)), (domain.kind, d)
    # each scan of a circle stack is the one-shot product of its function:
    # bit for bit up to degree 32, full budget stacks too; above, some stack
    # sizes take another OpenBLAS kernel (stacks of 2, 4 and 8 functions at
    # degree 64 here)
    for d, n, m in STACK_CASES:
        fs = [random_function(rng, CIRCLE, d, decay=float(rng.uniform(0.0, 2.0))) for _ in range(m)]
        for got, f in zip(fourier._scan(np.array([f.coeffs for f in fs])), fs):
            want = scan_one_shot(f.coeffs, n)[:2]
            if d <= 32:
                assert np.array_equal(got, want), (d, m)
            else:
                scale = np.abs(want).max(axis=1)[:, None]
                assert np.all(np.abs(got - want) <= 16 * np.spacing(scale)), (d, m)


def test_scans_stay_on_the_calling_thread():
    # a fresh interpreter, so that no BLAS thread woken by an earlier test
    # spins through the reading; a second busy thread reads near 2
    code = """if True:
        import time
        import numpy as np
        from jetflat.fourier import CIRCLE, TORUS2, _circle_scans, _derivative_stack
        from jetflat.sampling import random_function
        rng = np.random.default_rng(1)
        scans = [lambda f=random_function(rng, TORUS2, d): f.values_on_grid(256) for d in (4, 8, 16)]
        stack = _derivative_stack(random_function(rng, CIRCLE, 32).coeffs[None])
        scans.append(lambda: _circle_scans(stack, 4096))
        for scan in scans:
            scan()
        cpu, wall = time.process_time(), time.perf_counter()
        while time.perf_counter() - wall < 0.2:
            for scan in scans:
                scan()
        print((time.process_time() - cpu) / (time.perf_counter() - wall))
    """
    src = os.path.dirname(os.path.dirname(fourier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert float(out.stdout) <= 1.25


def test_fallbacks_when_torus_newton_fails(monkeypatch, rng):
    # every torus seed falls back to itself: a grid point of the scan whose
    # value is the scan's top
    n = fourier.DEFAULT_TORUS_SCAN

    def failed(stack, seeds, halfwidth, residual, owner=None):
        return np.full(np.shape(seeds), np.nan)

    monkeypatch.setattr(fourier, "_newton_torus", failed)
    fs = [random_function(rng, TORUS2, d) for d in (1, 2, 3, 3)]
    for f, r in zip(fs, attaining_sets(fs)):
        grid = f.values_on_grid(n)[0]
        for value, top, points in ((r.vmax, grid.max(), r.max_points), (r.vmin, grid.min(), r.min_points)):
            assert abs(value - top) <= 1e-12
            assert len(points) and np.array_equal(points * n, np.round(points * n))


def test_circle_brackets_survive_newton_steps_that_leave_them(monkeypatch, rng):
    # with f'' scaled by 1e-9 every Newton step of a bracket row leaves its
    # bracket and becomes a bisection step; bisection alone still meets the
    # residual, so no bracket row is lost, and the records and critical
    # values stay on the dense oracle and on the unforced run
    k = np.arange(1, 7.0)
    coeffs = [(rng.normal(), rng.normal(size=6) / (1 + k), rng.normal(size=6) / (1 + k)) for _ in range(5)]
    fs = [fn(*c) for c in coeffs]
    want = critical_sets(fs)
    series_at, newton = fourier._series_at, fourier._newton_circle
    lost = []

    def flat(rows, x):
        out = series_at(rows, x)
        if rows.ndim == 4 and rows.shape[1] == 3:  # f, f', f'' at Newton iterates
            out[:, 2] *= 1e-9
        return out

    def counted(stack, seeds, lo, hi, residual, sign):
        roots, values = newton(stack, seeds, lo, hi, residual, sign)
        lost.append(np.count_nonzero(np.isnan(roots) & (np.asarray(sign) != 0.0)))
        return roots, values

    monkeypatch.setattr(fourier, "_series_at", flat)
    monkeypatch.setattr(fourier, "_newton_circle", counted)
    for (a0, ca, sa), f, ref in zip(coeffs, fs, want):
        hi = dense_max(a0, ca, sa)
        lo = -dense_max(-a0, -ca, -sa)
        ext = attaining_set(f)
        assert ext.vmax == pytest.approx(hi, abs=1e-11)
        assert ext.vmin == pytest.approx(lo, abs=1e-11)
        cs = critical_set(f)
        assert max(cs.values) == pytest.approx(hi, abs=1e-11)
        assert min(cs.values) == pytest.approx(lo, abs=1e-11)
        assert len(cs.points) == len(ref.points)
        np.testing.assert_allclose(cs.values, ref.values, rtol=0.0, atol=1e-11)
    assert len(lost) == 10 and sum(lost) == 0


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
        ("near-constant", 0.3, [1e-13], [2e-13]),
        ("constant within rounding", 1.0 - 1e-15, [1e-15], []),
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


def _critical_bits(cs):
    """Every number of a critical set and of its record, as exact hex strings."""
    ext = cs.extrema
    floats = (*np.ravel(cs.points), *cs.values, cs.tolerance, cs.point_tolerance, ext.vmax, ext.vmin)
    points = (*ext.max_points.ravel(), *ext.min_points.ravel())
    return tuple(float(x).hex() for x in floats + points), len(cs.points), ext.max_points.shape, cs.plateau


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_critical_sets_do_not_depend_on_the_batch(tol):
    # 253 functions: circle degrees 0-32, four of each, seventy of degree 5
    # and twenty of degree 8 (so that stacks fill and split), the batch
    # cases (constants, tied maxima) and torus functions of degrees 1-4, a
    # torus constant and a torus near-constant, shuffled; the seeds of a
    # batch share one zero-padded Newton run per domain, and every batch of them, cut
    # anywhere, gives each function the critical set and the record it gets
    # alone, bit for bit
    rng = np.random.default_rng(19)
    degrees = [*range(33)] * 4 + [5] * 70 + [8] * 20 + [*rng.integers(0, 33, 17)]
    fs = [random_function(rng, CIRCLE, int(d), decay=float(rng.uniform(0.0, 2.0))) for d in degrees]
    fs += [fn(a0, cos, sin) for _, a0, cos, sin in _batch_cases()]
    fs += [random_function(rng, TORUS2, d) for d in (1, 2, 3, 4)] + [FourierFunction.constant(0.3, TORUS2)]
    fs.append(FourierFunction.from_torus_coeffs(0.3, [[0.0, 1e-13], [0.0, 0.0]]))
    fs = [fs[i] for i in rng.permutation(len(fs))]
    alone = [_critical_bits(critical_set(f, tol)) for f in fs]
    records = attaining_sets(fs, tol)
    _assert_same_records(records, [attaining_set(f, tol) for f in fs])
    for cut in (9, 200):
        for start in range(0, len(fs), cut):
            batch = critical_sets(fs[start : start + cut], tol)
            assert [_critical_bits(cs) for cs in batch] == alone[start : start + cut], (cut, start)
            _assert_same_records([cs.extrema for cs in batch], records[start : start + cut])
    assert critical_sets([]) == []


def _record_bits(r):
    """The values and points of an attaining_set record, as exact hex strings."""
    return tuple(float(x).hex() for x in (r.vmax, r.vmin, *r.max_points.ravel(), *r.min_points.ravel()))


def test_zero_padded_copies_get_the_same_bits():
    # circle functions are grouped, scanned and bounded by their highest
    # nonzero frequency, so a copy padded with zeros gets the record and the
    # critical set of its function, alone and in a batch with it
    rng = np.random.default_rng(4)
    fs = [random_function(rng, CIRCLE, d) for d in range(1, 9) for _ in range(10)]
    padded = [f.pad_to_degree(f.degree + 3) for f in fs]
    want = [_critical_bits(critical_set(f)) for f in fs]
    assert [_critical_bits(critical_set(g)) for g in padded] == want
    assert [_record_bits(attaining_set(g)) for g in padded] == [_record_bits(attaining_set(f)) for f in fs]
    assert [_critical_bits(cs) for cs in critical_sets(padded + fs)] == want + want


def _cluster_means_loop(values, tol):
    """The reference clustering: sorted values joined while a step is at most tol, np.mean per cluster."""
    clusters = []
    for v in sorted(values):
        if clusters and v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [float(np.mean(c)) for c in clusters]


def test_cluster_values_match_the_per_cluster_mean():
    # clusters of 1 to 40 values, with exact ties and signed zeros, shuffled;
    # the means agree bit for bit with np.mean of each cluster
    rng = np.random.default_rng(5)
    tol = 1e-9
    for trial in range(200):
        values = []
        for size in rng.integers(1, 41, size=int(rng.integers(1, 6))):
            centre = float(rng.uniform(-2.0, 2.0))
            spread = rng.uniform(0.0, tol, size=int(size)) * (trial % 3)  # ties when 0
            values += (centre + np.round(spread, 11)).tolist()
        if trial % 2:
            values += [0.0, -0.0, -0.0][: 1 + trial % 3]
        values = [values[i] for i in rng.permutation(len(values))]
        got = fourier._cluster_values(np.array(values), tol)
        assert [x.hex() for x in got] == [x.hex() for x in _cluster_means_loop(values, tol)], trial
    assert fourier._cluster_values(np.array([-0.0]), tol) == [0.0] and fourier._cluster_values([], tol) == []


def test_torus_critical_seeds_read_their_stack_in_place():
    # a degree-12 torus function gives the shared Newton run some 300 max,
    # min and critical seeds; each reads its function's derivative stack
    # (6 x 2 x 13 x 2 x 13 floats) in place, so refining them adds nothing
    # to the peak that the scan sets, which a degree-1 function reaches too:
    # a copy of the stack per seed would add about 10 MB to some 5 MB
    rng = np.random.default_rng(12)
    peaks = []
    for f in (random_function(rng, TORUS2, 1), random_function(rng, TORUS2, 12)):
        critical_set(f)  # warm the caches
        tracemalloc.start()
        try:
            critical_set(f)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def _gradient_roots(f: FourierFunction, starts: int = 32, iters: int = 40) -> np.ndarray:
    """Nondegenerate zeros of grad f, by damped Newton on the oracle's partials from a starts^2 grid of cell centres."""
    blocks = f.torus_blocks()
    x = np.stack(np.meshgrid(*[(np.arange(starts) + 0.5) / starts] * 2, indexing="ij"), axis=-1).reshape(-1, 2)
    with np.errstate(all="ignore"):  # singular Hessians send their starts to NaN
        for _ in range(iters):
            _, f1, f2, f11, f12, f22 = torus_partials_direct(*blocks, x)
            step = np.stack([f22 * f1 - f12 * f2, f11 * f2 - f12 * f1], axis=1) / (f11 * f22 - f12 * f12)[:, None]
            x = x - np.clip(step, -0.02, 0.02)
        _, f1, f2, f11, f12, f22 = torus_partials_direct(*blocks, x)
        root = np.maximum(np.abs(f1), np.abs(f2)) <= 1e-12 * np.abs(f.coeffs).sum()
        nondegenerate = np.abs(f11 * f22 - f12 * f12) >= 1e-3 * (f11 * f11 + 2.0 * f12 * f12 + f22 * f22)
    return np.mod(x[root & nondegenerate], 1.0)


def test_torus_critical_sets_are_complete():
    # every nondegenerate critical point that an independent root search finds
    # is reported; seeding from the local minima of max(|f_1|, |f_2|) missed
    # the extremum of this function near (0.8784, 0.9333)
    rng = np.random.default_rng(7)
    fs = [random_function(rng, TORUS2, d, decay=float(rng.uniform(0.0, 2.0))) for d in [1, 2, 3, 4, 5, 6] * 40]
    f = fs[39]
    roots = _gradient_roots(f)
    points = np.array(critical_set(f).points)
    assert len(roots)
    gap = np.abs(roots[:, None] - points[None])
    missed = np.max(np.minimum(gap, 1.0 - gap), axis=-1).min(axis=1) > POINT_CLUSTER_TOL
    assert not missed.any(), roots[missed]


def test_torus_critical_lines_through_grid_points_are_kept():
    # 0.3 + 1e-13 cos 2 pi q2 is critical on the lines q2 = 0 and q2 = 1/2; its
    # Hessian is singular, so Newton moves no seed, and the grid points on both
    # lines, whose scanned gradient already meets the residual, are its roots
    f = FourierFunction.from_torus_coeffs(0.3, [[0.0, 1e-13], [0.0, 0.0]])
    n = fourier.DEFAULT_TORUS_SCAN
    cs = critical_set(f)
    want = [(i / n, q2) for i in range(n) for q2 in (0.0, 0.5)]
    assert sorted(cs.points) == sorted(want)


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


# -- degree-sized circle scans, certified by coefficient bounds ----------------


def test_circle_scan_size_follows_the_degree(scanned, rng):
    # the smallest power of two of at least 64 max(D, 1) points
    for d, n in ((0, 64), (1, 64), (2, 128), (5, 512), (8, 512), (32, 2048), (64, 4096), (65, 8192)):
        scanned.clear()
        critical_set(random_function(rng, CIRCLE, d))
        assert scanned == [n], d


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6), st.lists(st.floats(-1.0, 1.0), max_size=6))
def test_bernstein_bounds_hold_on_a_dense_grid(cos, sin):
    # |f'|, |f''| and |f'''|, each summed term by term on 2^14 points, never
    # exceed M1, M2 and M3 (up to rounding: a lone frequency attains them)
    f = fn(0.3, cos, sin)
    _, a, b = f.circle_cos_sin()
    w = 2 * np.pi * np.arange(1, len(a) + 1)
    xs = np.arange(1 << 14) / (1 << 14)
    derivatives = [(w * b, -w * a), (-(w**2) * a, -(w**2) * b), (-(w**3) * b, w**3 * a)]
    for bound, (c, s) in zip(fourier._bounds(f.coeffs[None])[0], derivatives):
        assert np.abs(eval_direct(0.0, c, s, xs)).max() <= bound * (1.0 + 1e-12)


def test_point_tolerance_does_not_depend_on_the_batch():
    # circle stacks of 3 and 6 functions from degree 56 on take another
    # OpenBLAS kernel than lone scans, so a residual read from the scanned
    # max|f'| moved with the batch; NEWTON_RESIDUAL M1 is a coefficient sum
    rng = np.random.default_rng(18)
    for d in range(56, 65):
        for m in (3, 6):
            fs = [random_function(rng, CIRCLE, d, decay=float(rng.uniform(0.0, 2.0))) for _ in range(m)]
            for cs, f in zip(critical_sets(fs), fs):
                assert cs.point_tolerance.hex() == critical_set(f).point_tolerance.hex(), (d, m)


def test_near_constant_circle_function_needs_no_fallback():
    # the whole range (4.5e-13) lies inside the seed margin 10 tol, so every
    # grid point is a candidate; on 4096 points neighbouring values tied in
    # rounding, which gave 219 max seeds; on 64 they do not tie, and Newton
    # meets the residual M1 1e-12 in the one bracket of each sign
    r = attaining_set(fn(0.3, [1e-13], [2e-13]))
    assert len(r.max_points) == len(r.min_points) == 1
    amp = np.hypot(1e-13, 2e-13)
    assert (r.vmax, r.vmin) == pytest.approx((0.3 + amp, 0.3 - amp), abs=1e-16)


def test_root_of_high_multiplicity_is_read_in_few_sub_cells(monkeypatch):
    # f' of (1 - cos 2 pi q)^16 vanishes to order 31 at 0 and meets the
    # Newton residual on about a quarter of the circle; suspect cells whose
    # ends meet it are settled with one FREE seed per run, where splitting
    # them down to POINT_CLUSTER_TOL sampled some 205000 points and reported
    # hundreds of critical points
    base = fn(1.0, [-1.0])
    f = base
    for _ in range(15):
        f = f.multiply(base)
    sampled = []
    series_at = fourier._series_at
    monkeypatch.setattr(fourier, "_series_at", lambda rows, x: sampled.append(len(x)) or series_at(rows, x))
    cs = critical_set(f)
    assert len(cs.points) <= 8 and cs.plateau
    assert min(cs.values) == pytest.approx(0.0, abs=1e-8) and max(cs.values) == pytest.approx(2.0**16, rel=1e-15)
    assert sum(sampled) <= 50000, sampled


def test_flat_extremum_record_samples_no_sub_cells(monkeypatch):
    # every grid point within about 0.1 of the flat minimum of
    # (1 - cos 2 pi q)^16 meets the Newton residual, so its min seeds are
    # rows of their own (chord 0) and no seed cell is read; the cell rules on
    # every cell there sample some 24000 sub-cell points (the critical set
    # does that, and keeps one point per flat run, where attaining_set keeps
    # each seed: both report the minimum within rounding of 2^16)
    base = fn(1.0, [-1.0])
    f = base
    for _ in range(15):
        f = f.multiply(base)
    newton, sub_cells = [], []
    series_at = fourier._series_at

    def counted(rows, x):
        (newton if rows.shape[1] == 3 else sub_cells).append(len(x))  # f, f', f'' or f', f'''
        return series_at(rows, x)

    monkeypatch.setattr(fourier, "_series_at", counted)
    r = attaining_set(f)
    assert sub_cells == [] and 0 < sum(newton) <= 100
    monkeypatch.undo()
    ext = critical_set(f).extrema
    assert r.vmax == ext.vmax == 2.0**16
    np.testing.assert_array_equal(r.max_points, ext.max_points)
    assert abs(r.vmin - ext.vmin) <= fourier._rounding(2.0**16) and abs(r.vmin) <= 1e-9
    assert all(np.any(r.min_points == p) for p in ext.min_points)


def _planted_pair(eps, phi):
    """sin 2 pi (q - phi) + (1/2 + eps) sin 4 pi (q - phi): two critical points about 0.37 sqrt(eps) apart."""
    t1, t2 = 2 * np.pi * phi, 4 * np.pi * phi
    return fn(0.0, [-np.sin(t1), -(0.5 + eps) * np.sin(t2)], [np.cos(t1), (0.5 + eps) * np.cos(t2)])


def test_circle_critical_points_match_the_companion_oracle():
    # every root of f' on the circle that the companion matrix gives is a
    # reported critical point and every reported one is such a root (within
    # POINT_CLUSTER_TOL), and the record's values are the oracle's extreme
    # critical values; each planted pair sits off the grid inside one cell,
    # where f' keeps its sign at both ends (a 4096-point scan lost most of
    # them from eps = 1e-7 on)
    rng = np.random.default_rng(23)
    fs = [random_function(rng, CIRCLE, d, decay=float(rng.uniform(0.0, 2.0))) for d in [*range(33)] * 2]
    fs += [_planted_pair(eps, phi) for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8) for phi in rng.uniform(0.0, 1.0, 8)]
    fs += [
        fn(0.5, [0.999, -0.25]),  # tied maxima at +-arccos(0.999) / 2 pi
        fn(0.0, [2.5e-11, 1.0]),  # twin maxima 5e-11 apart in value
        fn(0.0, [0.0, 0.0, 1.0]),  # three equal maxima
        fn(-0.5, [2.0, -0.5]),  # 1 - (1 - cos 2 pi q)^2: a degenerate (quartic) maximum
        fn(0.0, [], [1.0, -0.5]),  # a tangential zero of f' at 0
    ]
    for f in fs:
        a0, a, b = f.circle_cos_sin()
        roots, cs = companion_critical_points(a0, a, b), critical_set(f)
        points = np.array(cs.points)[:, 0]
        if not len(roots):  # a constant: critical everywhere
            assert cs.plateau and cs.extrema.vmax == cs.extrema.vmin == a0
            continue
        gap = np.abs(roots[:, None] - points[None])
        gap = np.minimum(gap, 1.0 - gap)
        assert np.all(gap.min(axis=1) <= POINT_CLUSTER_TOL), (f.coeffs, roots[gap.min(axis=1) > POINT_CLUSTER_TOL])
        assert np.all(gap.min(axis=0) <= POINT_CLUSTER_TOL), (f.coeffs, points[gap.min(axis=0) > POINT_CLUSTER_TOL])
        values = eval_direct(a0, a, b, roots)
        scale = np.abs(f.coeffs).sum()
        assert abs(cs.extrema.vmax - values.max()) <= 1e-14 * scale, f.coeffs
        assert abs(cs.extrema.vmin - values.min()) <= 1e-14 * scale, f.coeffs


def test_torus_stacks_are_the_derivative_coefficients():
    # the rows of the derivative stacks, zero-padded to the batch's top
    # degree and summed term by term, give f, its gradient and its Hessian
    # as the oracle writes them out at points; on both domains
    rng = np.random.default_rng(4)
    for domain in (CIRCLE, TORUS2):
        for scale in (1e-8, 1.0, 1e8):
            fs = [scale * random_function(rng, domain, d) for d in (1, 3, 0)]
            pts = rng.uniform(0.0, 1.0, (9, domain.ndim))
            stacks = fourier._stacks(fs)
            assert stacks.shape[-1] == 4
            for stack, f in zip(stacks, fs):
                if domain.kind == "S1":
                    want = partials_direct(*f.circle_cos_sin(), pts[:, 0])
                    got = [eval_direct(c[0, 0], c[0, 1:], c[1, 1:], pts[:, 0]) for c in stack]
                else:
                    want = torus_partials_direct(*f.torus_blocks(), pts)
                    got = [eval_torus_direct(0.0, c[0, :, 0], c[0, :, 1], c[1, :, 0], c[1, :, 1], pts) for c in stack]
                err = np.max(np.abs(np.array(got) - want), axis=1)
                assert np.all(err <= 1e-14 * np.max(np.abs(want), axis=1)), (domain.kind, scale, err)


def _dedupe_cases():
    rng = np.random.default_rng(12)
    tol = 1e-6
    centres = rng.random((20, 2))
    spread = 10.0 ** rng.integers(-12, -6, (200, 1))
    clusters = np.repeat(centres, 10, axis=0) + spread * rng.standard_normal((200, 2))
    chain = 0.3 + tol * np.cumsum(1.0 + 1e-3 * rng.standard_normal(30))
    straddle = np.array([[0.0], [1.0 - 4e-7], [3e-7], [0.5], [1.0 - 2e-6], [2e-6]])
    # 100 clusters of 4, a tenth of them on q1 = 0, q2 = 0 or both, spread 1e-12 to 1e-7
    other = np.random.default_rng(13)
    centres = other.random((100, 2))
    centres[:10] *= np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])[np.arange(10) % 3]
    spread = 10.0 ** other.integers(-12, -6, (400, 1))
    tight = other.permutation(np.mod(np.repeat(centres, 4, axis=0) + spread * other.standard_normal((400, 2)), 1.0))
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
        "tight clusters (m,2)": tight,
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
    # hands its own tolerance in, before either domain scans: a bad argument
    # is an input error, not a failed check (ViolationReport) or an empty
    # attaining set
    for f in (fn(0.0, [0.3, -0.2], [0.1]), FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])):
        for query in (attaining_set, critical_set, lambda f, tol: attaining_sets([f], tol),
                      lambda f, tol: critical_sets([f], tol)):
            with pytest.raises(ValueError, match="positive"):
                query(f, tol)


def test_constructors_store_their_inputs(rng):
    # constructor inputs, signed zeros included, come back bit for bit from
    # coeffs, circle_cos_sin and torus_blocks; only the sin 0 slots, which
    # multiply zero, are zeroed
    def bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    for a0, cos, sin in [
        (0.1, [0.3, -0.0, -1.5], [-0.2]),
        (-2.0, [], [0.5, -0.25, 0.0]),
        (-0.0, [1.0, -2.0], []),
        (0.3, [0.0], [-0.0, 4.0, -1e-300]),
    ]:
        f = fn(a0, cos, sin)
        got_a0, got_cos, got_sin = f.circle_cos_sin()
        assert f.coeffs.shape == (2, max(len(cos), len(sin)) + 1)
        assert bits(got_a0) == bits(a0) == bits(f.coeffs[0, 0]) and f.coeffs[1, 0] == 0.0
        assert np.array_equal(bits(got_cos[: len(cos)]), bits(cos)) and not got_cos[len(cos) :].any()
        assert np.array_equal(bits(got_sin[: len(sin)]), bits(sin)) and not got_sin[len(sin) :].any()
    for degree in range(7):
        for scale in (1e-8, 1.0, 1e8):
            a0 = scale * rng.normal()
            blocks = scale * rng.normal(size=(4, degree + 1, degree + 1))
            blocks[:, -1] *= -0.0  # a row of signed zeros
            blocks[0, 0, 0] = 0.0  # the mean is a0 alone
            t = FourierFunction.from_torus_coeffs(a0, *blocks)
            cc, cs, sc, ss = blocks
            for b in (cs[:, 0], sc[0], ss[0], ss[:, 0]):
                b[:] = 0.0  # these slots multiply sin 0
            got = t.torus_blocks()
            assert bits(got[0]) == bits(a0) == bits(t.coeffs[0, 0, 0, 0]), (degree, scale)
            for g, w, stored in zip(got[1:], blocks, (t.coeffs[i, :, j] for i in (0, 1) for j in (0, 1))):
                assert np.array_equal(bits(g), bits(w)), (degree, scale)
                assert np.array_equal(bits(stored.ravel()[1:]), bits(w.ravel()[1:])), (degree, scale)
    for bad in (np.zeros((2, 3), dtype=complex), [[1.0, 2.0], [0.0, 1j]]):
        with pytest.raises(TypeError):
            FourierFunction(CIRCLE, bad)
    with pytest.raises(TypeError):
        fn(0.0, [0.5 + 1j])


def test_stored_coeffs_sum_to_the_function(rng):
    # the stored layout every kernel reads, summed term by term, gives the
    # function its constructor inputs describe; the sin 0 slots hold zeros
    for degree in range(7):
        for scale in (1e-8, 1.0, 1e8):
            a0, cos, sin = scale * rng.normal(), scale * rng.normal(size=degree), scale * rng.normal(size=degree)
            r = fn(a0, cos, sin).coeffs
            assert r.shape == (2, degree + 1) and r[1, 0] == 0.0
            xs = rng.uniform(0.0, 1.0, 9)
            want = eval_direct(a0, cos, sin, xs)
            tol = 1e-15 * scale * (1 + 2 * degree)
            np.testing.assert_allclose(eval_direct(r[0, 0], r[0, 1:], r[1, 1:], xs), want, rtol=0, atol=tol)
            a0, cc, cs, sc, ss = scale * rng.normal(), *(scale * rng.normal(size=(4, degree + 1, degree + 1)))
            for b in (cs[:, 0], sc[0], ss[0], ss[:, 0]):
                b[:] = 0.0  # these slots multiply sin 0
            t = FourierFunction.from_torus_coeffs(a0, cc, cs, sc, ss)
            r = t.coeffs
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


def test_multiply_on_the_torus(rng):
    a = random_function(rng, TORUS2, 3)
    b = random_function(rng, TORUS2, 2) + 0.5
    prod = a.multiply(b)
    assert prod.degree == a.degree + b.degree
    pts = rng.uniform(0.0, 1.0, (16, 2))
    assert prod(pts) == pytest.approx(a(pts) * b(pts), abs=1e-13)
