import numpy as np
import pytest

from jetflat.contact import (
    CircleContactomorphism,
    ProductChartMap,
    contact_qa_check,
    graph_beta_residuals,
    graph_of,
    graph_points,
    rotation,
    shelukhin_norm_upper,
    spectral_norm,
    translated_points,
)
from jetflat.errors import CrossCheckMismatch, NotADiffeomorphism
from jetflat.fourier import CIRCLE, FourierFunction, critical_set, sup_norm
from jetflat.geodesics import optimize_path
from jetflat.jets import zero_section
from jetflat.sampling import random_contactomorphism, random_quasi_autonomous_path
from jetflat.selectors import selectors

from conftest import fn


def contacto(a0=0.0, cos=(), sin=()):
    return CircleContactomorphism(fn(a0, cos, sin))


# -- chart map ---------------------------------------------------------------


def test_chart_pullback_vanishes_on_random_tangents(rng):
    pts = rng.uniform(-1.0, 1.0, (1000, 3))
    vecs = rng.standard_normal((1000, 3))
    assert ProductChartMap.pullback_residuals(pts, vecs).max() <= 1e-12


def test_chart_sends_diagonal_to_zero_section():
    diag = np.stack([np.linspace(0, 1, 64), np.linspace(0, 1, 64), np.zeros(64)], axis=1)
    image = ProductChartMap.apply(diag)
    np.testing.assert_allclose(image[:, 1], 0.0, atol=0.0)  # p = e^0 - 1 exactly
    np.testing.assert_allclose(image[:, 2], 0.0, atol=0.0)  # z = x - x exactly


# -- graphs -------------------------------------------------------------------


def test_graph_of_identity_is_zero_section():
    assert graph_of(contacto()) == zero_section()


def test_graph_of_rotation_is_translated_zero_section():
    g = graph_of(rotation(0.3))
    assert g.generator == fn(0.3)


def test_graph_of_small_sine():
    phi = contacto(0.0, [], [0.1])
    assert graph_of(phi).generator == phi.displacement
    xs = np.arange(1000) / 1000.0
    assert graph_beta_residuals(phi, xs).max() <= 1e-12


def _fejer_map(n=6, c1=5.0):
    # f' = s (F_n - 1) with F_n the Fejer kernel (F_n >= 0, mean 1, max n + 1
    # at 0): max|f'| = s n = c1 and min(1 + f') = 1 - s > 0 for c1 < n
    s = c1 / n
    weights = [2.0 * s * (1.0 - k / (n + 1)) for k in range(1, n + 1)]
    return contacto(0.0, [], [w / (2.0 * np.pi * k) for k, w in enumerate(weights, 1)])


def _squeezed_map(rng, jacobian=1e-6):
    # a random displacement scaled until min(1 + f') = jacobian
    phi = random_contactomorphism(rng)
    return CircleContactomorphism(phi.displacement * ((1.0 - jacobian) / -phi.slope.vmin))


def test_chart_image_of_the_graph_is_the_jet_graph(rng):
    # the chart sends (x, x + f, log(1 + f')) to (x, f', f): its image of
    # the graph's points is the 1-jet of the generator graph_of returns
    xs = np.arange(1024) / 1024
    squeezed, steep = _squeezed_map(rng), _fejer_map()
    assert squeezed.min_jacobian() == pytest.approx(1e-6, rel=1e-6)
    assert steep.c1_size() == pytest.approx(5.0, rel=1e-12)
    maps = [random_contactomorphism(rng) for _ in range(20)] + [squeezed, steep, rotation(0.3)]
    for phi in maps:
        g = graph_of(phi).generator
        gp = g.derivative()(xs)
        image = ProductChartMap.apply(graph_points(phi, xs))
        jet = np.stack([xs, gp, g(xs)], axis=1)
        assert np.abs(image - jet).max() <= 1e-12 * (1.0 + np.abs(gp).max())


def test_graph_rejects_non_diffeomorphism():
    with pytest.raises(NotADiffeomorphism):
        graph_of(contacto(0.0, [], [0.5]))  # 1 + f' dips below zero: rejected when built


# -- translated points -----------------------------------------------------------


def test_translated_points_rotation():
    spec = translated_points(rotation(0.4))
    assert spec.lengths == (0.4,)
    assert spec.plateau  # every point is translated


def test_translated_points_small_sine():
    phi = contacto(0.0, [], [0.1])
    spec = translated_points(phi)
    assert spec.lengths == pytest.approx((-0.1, 0.1), abs=1e-12)
    points = sorted(p[0] for p in spec.source.points)
    assert points == pytest.approx([0.25, 0.75], abs=1e-9)


def test_translated_points_identity():
    assert translated_points(rotation(0.0)).lengths == (0.0,)


def test_spectrum_coherence_random(rng):
    # the chart's chord spectrum against the zero section is the set of
    # critical values of the displacement itself
    for _ in range(10):
        phi = random_contactomorphism(rng)
        direct = tuple(sorted(critical_set(phi.displacement).values))
        assert translated_points(phi).lengths == direct


# -- spectral norm -----------------------------------------------------------------


def test_spectral_norm_rotation():
    r = spectral_norm(rotation(0.25))
    assert (r.c_plus, r.c_minus, r.norm) == (0.25, 0.25, 0.25)
    assert not r.c1_advisory


def test_spectral_norm_identity():
    r = spectral_norm(rotation(0.0))
    assert (r.c_plus, r.c_minus, r.norm) == (0.0, 0.0, 0.0)


def test_spectral_norm_small_sine():
    r = spectral_norm(contacto(0.0, [], [0.1]))
    assert r.c_plus == pytest.approx(0.1, abs=1e-12)
    assert r.c_minus == pytest.approx(-0.1, abs=1e-12)
    assert r.norm == pytest.approx(0.1, abs=1e-12)


def test_spectral_norm_at_a_coarse_tol():
    # a spectrum clustered at tol 1e-3 has means off both extrema here; the
    # norm clusters as selectors do (_cluster_tol), so it keeps them
    cos = [0.003] + [0.0] * 9 + [0.0006]  # 0.003 cos 2 pi q + 0.0006 cos 22 pi q
    r = spectral_norm(contacto(0.0, cos), tol=1e-3)
    assert (r.c_plus, r.c_minus, r.norm) == pytest.approx((0.0036, -0.0036, 0.0036), abs=1e-15)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_spectral_norm_is_the_selectors_of_the_chart_image(rng, tol):
    for _ in range(10):
        phi = random_contactomorphism(rng)
        r = spectral_norm(phi, tol)
        s = selectors(graph_of(phi), zero_section(), membership_tol=tol)
        assert (r.c_plus, r.c_minus, r.norm) == (s.ell_plus, s.ell_minus, s.d_spec)


def test_c1_advisory_flag():
    small = random_contactomorphism(np.random.default_rng(1), c1_target=0.3)
    big = CircleContactomorphism(small.displacement * (0.9 / 0.3))
    assert not spectral_norm(small).c1_advisory
    assert spectral_norm(big).c1_advisory


def test_norm_duality_through_negation(rng):
    for _ in range(5):
        phi = random_contactomorphism(rng)
        neg = CircleContactomorphism(-phi.displacement)
        assert spectral_norm(phi).c_plus == pytest.approx(
            -spectral_norm(neg).c_minus, abs=1e-12
        )


def test_reeb_compatibility_shift(rng):
    phi = random_contactomorphism(rng)
    t = 0.3
    shifted = CircleContactomorphism(phi.displacement + t)
    a, b = spectral_norm(phi), spectral_norm(shifted)
    assert b.c_plus == pytest.approx(a.c_plus + t, abs=1e-12)
    assert b.c_minus == pytest.approx(a.c_minus + t, abs=1e-12)


# -- contact quasi-autonomy ----------------------------------------------------------


def test_contact_qa_rotations():
    path = [rotation(0.0), rotation(0.2), rotation(0.4)]
    w = contact_qa_check(path)
    assert w is not None and w.epsilon == 1


def test_contact_qa_scaled_sine():
    path = [contacto(0.0, [], [0.1 * t]) for t in (0.0, 0.5, 1.0)]
    w = contact_qa_check(path)
    assert w is not None
    assert w.epsilon == 1
    assert w.base_point[0] == pytest.approx(0.25, abs=1e-9)


def test_contact_qa_rotating_profile():
    path = [
        contacto(0.0, [-0.1 * np.sin(2 * np.pi * k / 8)], [0.1 * np.cos(2 * np.pi * k / 8)])
        for k in range(9)
    ]
    assert contact_qa_check(path) is None


def test_contact_qa_near_quasi_autonomous_paths_from_the_identity():
    # steps lambda_k h + 1e-7 g_k: every segment attains its sup norm within
    # 1e-9 at the witness, where its slope and the knots' slopes are about
    # 1e-8, above the 1e-9 translated-point tolerance; that condition falls
    # on knot 0 alone, the identity
    rng = np.random.default_rng(5)
    for _ in range(10):
        path = random_quasi_autonomous_path(rng, n_knots=5, amplitude=0.005, perturbation=1e-7)
        maps = [CircleContactomorphism(k - path.knots[0]) for k in path.knots]
        w = contact_qa_check(maps)
        assert w is not None
        assert max(abs(r) for r in w.per_knot_residuals) <= 1e-9


def test_contact_qa_cross_check_requires_translated_points():
    # witness exists on the jet side, but the base point moves slopes of the
    # knots themselves: the translated-point form fails away from the identity
    start = contacto(0.0, [], [0.1])
    end = CircleContactomorphism(start.displacement + fn(0.0, [0.05]))
    with pytest.raises(CrossCheckMismatch):
        contact_qa_check([start, end])


# -- upper bound -----------------------------------------------------------------------


def test_upper_bound_rotation():
    assert shelukhin_norm_upper(rotation(0.3), knots=4, restarts=2, seed=0) == pytest.approx(
        0.3, abs=1e-9
    )


def test_upper_bound_is_the_optimizers_plain_length():
    phi = contacto(0.0, [], [0.1])
    upper = shelukhin_norm_upper(phi, knots=4, restarts=2, seed=1)
    assert type(upper) is float
    assert upper == optimize_path(FourierFunction.zero(CIRCLE), phi.displacement, knots=4, restarts=2, seed=1).length


def test_upper_bound_small_sine():
    phi = contacto(0.0, [], [0.1])
    upper = shelukhin_norm_upper(phi, knots=6, restarts=8, seed=2)
    assert abs(upper - 0.1) <= 1e-4


def test_upper_bound_two_harmonics():
    phi = contacto(0.0, [0.05], [0.0, 0.02])
    upper = shelukhin_norm_upper(phi, knots=6, restarts=8, seed=4)
    assert abs(upper - sup_norm(phi.displacement)) <= 1e-4
