import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetflat.errors import MalformedPath
from jetflat.fourier import FourierFunction, sup_norm, sup_norm_by_squaring
from jetflat.jets import JetLegendrian, reeb_translate, zero_section
from jetflat.paths import IsotopyPath
from jetflat.sampling import random_legendrian, random_path
from jetflat.selectors import (
    axiom_suite,
    hamiltonian_bounds_check,
    sch_length,
    selectors,
    spectral_distance,
)

from conftest import fn
from oracles import dense_sup_norm

coeffs = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3)


def leg(a0=0.0, cos=(), sin=()):
    return JetLegendrian(fn(a0, cos, sin))


# -- selectors ----------------------------------------------------------------


def test_jetflat_selectors_is_the_module():
    # the package does not re-export the function of the same name, so a
    # plain import reaches the module
    import jetflat.selectors as m
    from jetflat import selectors

    assert selectors is m and callable(m.chord_spectra) and callable(m.selectors)


def test_selectors_on_equal_pair():
    l = leg(0.2, [0.1])
    r = selectors(l, l)
    assert (r.ell_plus, r.ell_minus, r.d_spec) == (0.0, 0.0, 0.0)
    assert r.in_spectrum


def test_selectors_on_reeb_translate():
    l = leg(0.0, [0.3], [0.2])
    r = selectors(reeb_translate(l, -0.4), l)
    assert r.ell_plus == pytest.approx(-0.4, abs=1e-15)
    assert r.ell_minus == pytest.approx(-0.4, abs=1e-15)
    assert r.d_spec == pytest.approx(0.4, abs=1e-15)


def test_selectors_amplitude_pair():
    r = selectors(leg(0.0, [0.3], [-0.1]), zero_section())
    assert r.ell_plus == pytest.approx(np.sqrt(0.1), abs=1e-12)
    assert r.ell_minus == pytest.approx(-np.sqrt(0.1), abs=1e-12)
    assert r.in_spectrum


@given(coeffs, coeffs)
def test_flatness_identity_two_code_paths(cos1, cos0):
    f1, f0 = fn(0.2, cos1, [0.1]), fn(-0.1, cos0)
    d_selector = spectral_distance(JetLegendrian(f1), JetLegendrian(f0))
    d_square = sup_norm_by_squaring(f1 - f0)
    assert d_selector == pytest.approx(d_square, abs=1e-12)
    a0, a, b = (f1 - f0).circle_cos_sin()
    assert d_selector == pytest.approx(dense_sup_norm(a0, a, b, n=1 << 18), abs=1e-10)


@given(coeffs, coeffs)
def test_poincare_duality_bitwise(cos1, cos0):
    l1, l0 = leg(0.2, cos1), leg(-0.3, cos0)
    a = selectors(l1, l0)
    b = selectors(l0, l1)
    assert a.ell_plus == -b.ell_minus
    assert a.ell_minus == -b.ell_plus


# -- lengths -------------------------------------------------------------------


def test_sch_length_straight_is_flat_distance():
    f, g = fn(0.0, [0.2, 0.1]), fn(0.1, [], [0.3])
    path = IsotopyPath.straight(f, g)
    assert sch_length(path) == pytest.approx(
        spectral_distance(JetLegendrian(g), JetLegendrian(f)), abs=1e-12
    )


def test_sch_length_constant_path():
    f = fn(0.3, [0.2])
    assert sch_length(IsotopyPath.uniform([f, f, f])) == 0.0


def test_sch_length_detour_doubles():
    f, h = fn(0.0, [0.1]), fn(0.0, [], [0.5])
    path = IsotopyPath.uniform([f, f + h, f])
    assert sch_length(path) == pytest.approx(2 * sup_norm(h), abs=1e-12)


def test_sch_length_reparametrization_invariance():
    f, g = fn(0.0, [0.4]), fn(0.2, [], [0.3])
    coarse = IsotopyPath.straight(f, g, n_knots=2)
    finer = IsotopyPath.straight(f, g, n_knots=9)
    assert sch_length(coarse) == pytest.approx(sch_length(finer), abs=1e-12)
    skew = IsotopyPath(knots=coarse.knots, times=(0.0, 1.0))
    assert sch_length(skew) == sch_length(coarse)


def test_malformed_path_domain_mixture():
    t = FourierFunction.constant(0.0, FourierFunction.zero().domain)
    torus = FourierFunction.from_torus_coeffs(0.0, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(MalformedPath):
        IsotopyPath.uniform([t, torus])


# -- Hamiltonian bounds ---------------------------------------------------------


def test_bounds_straight_segment():
    f, g = fn(0.0, [0.2]), fn(0.3, [], [0.1])
    r = hamiltonian_bounds_check(IsotopyPath.straight(f, g))
    assert r.int_max_h == r.ell_plus  # one segment: identical computations
    assert r.int_min_h == r.ell_minus
    assert r.worst_slack() >= 0.0
    assert r.ell_plus <= sup_norm(g - f) + 1e-12


def test_bounds_detour_strict():
    f, h = fn(0.0, [0.1]), fn(0.0, [], [0.5])  # h is not constant
    r = hamiltonian_bounds_check(IsotopyPath.uniform([f, f + h, f]))
    assert r.int_min_h < r.ell_minus - 1e-6
    assert r.int_max_h > r.ell_plus + 1e-6
    assert abs(r.ell_plus) <= 1e-12 and abs(r.ell_minus) <= 1e-12


@given(st.integers(0, 2**31 - 1))
def test_bounds_chain_on_random_paths(seed):
    path = random_path(np.random.default_rng(seed), n_knots=5, degree=5)
    r = hamiltonian_bounds_check(path)  # raises ViolationReport on failure
    assert r.worst_slack() >= -1e-9


# -- axiom suite -----------------------------------------------------------------


def test_axiom_suite_reeb_translates():
    sample = [zero_section(), reeb_translate(zero_section(), 0.25)]
    report = axiom_suite(sample)
    assert report.all_pass


def test_axiom_suite_random_sample(rng):
    sample = [random_legendrian(rng, degree=8) for _ in range(8)]
    report = axiom_suite(sample)
    assert report.all_pass, report.to_json_dict()


def test_axiom_suite_triangle_tightness():
    f = fn(0.0, [0.3], [0.1])
    sample = [zero_section(), JetLegendrian(f), JetLegendrian(2.0 * f)]
    report = axiom_suite(sample)
    assert report.all_pass

    lp_2f = selectors(sample[2], sample[0]).ell_plus
    lp_f = selectors(sample[1], sample[0]).ell_plus
    assert lp_2f == pytest.approx(2 * lp_f, abs=1e-12)


def test_axiom_suite_negative_control(rng, spectra_lacking_largest):
    # with every spectrum short of its largest length, ell_plus leaves it:
    # spectrality, and nothing else, must fail (without the fault all pass)
    sample = [random_legendrian(rng, degree=6) for _ in range(4)]
    report = axiom_suite(sample)
    assert [r.name for r in report.results if not r.passed] == ["spectrality"]


@pytest.mark.parametrize("membership_tol", [1e-9, 1e-20])
def test_axiom_suite_and_selectors_agree_on_membership(membership_tol):
    # props (axiom_suite) and dist (selectors) cluster the spectrum of a pair
    # by one rule, so they give it one membership verdict at any tol
    rng = np.random.default_rng(11)
    sample = [random_legendrian(rng, degree=6) for _ in range(3)]
    report = axiom_suite(sample, membership_tol=membership_tol)
    outside = {
        f"ell_pm({i},{j}) not in spectrum at tol {membership_tol:.1e}"
        for i in range(3)
        for j in range(i, 3)
        if not selectors(sample[i], sample[j], membership_tol=membership_tol).in_spectrum
    }
    assert set(report.by_name("spectrality").failures) == outside


@pytest.mark.parametrize(
    "scale, message", [(0.81, "not comparable"), (1.21, "above d_spec")]
)
def test_axiom_suite_monotonicity_catches_a_broken_squaring_route(monkeypatch, scale, message):
    # the comparable pairs come from sup|g_i - g_j| by the squaring route; a
    # product scaled by 0.81 shrinks that bound by 0.9, so the constructed
    # pairs stop being comparable, and one scaled by 1.21 inflates it by 1.1
    # past d_spec: either way only monotonicity fails
    multiply = FourierFunction.multiply
    monkeypatch.setattr(FourierFunction, "multiply", lambda f, g: scale * multiply(f, g))
    rng = np.random.default_rng(5)
    sample = [random_legendrian(rng, degree=8) for _ in range(6)]
    report = axiom_suite(sample)
    failed = [r.name for r in report.results if not r.passed]
    assert failed == ["monotonicity"]
    failures = report.by_name("monotonicity").failures
    assert failures and all(message in m for m in failures if not m.startswith("..."))
