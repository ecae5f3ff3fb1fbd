import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetflat.errors import DimensionMismatch
from jetflat.fourier import TORUS2
from jetflat.jets import JetLegendrian, chord_spectrum, pointwise_leq, reeb_translate, zero_section

from conftest import fn

coeffs = st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3)


def leg(a0=0.0, cos=(), sin=()):
    return JetLegendrian(fn(a0, cos, sin))


def test_reeb_translate_zero_section():
    moved = reeb_translate(zero_section(), 0.7)
    assert moved.generator == fn(0.7)


def test_reeb_translate_identity():
    l = leg(0.2, [0.3])
    assert reeb_translate(l, 0.0) == l


@given(coeffs, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_reeb_translate_composes(cos, s, t):
    l = leg(0.1, cos)
    twice = reeb_translate(reeb_translate(l, s), t)
    once = reeb_translate(l, s + t)
    gap = np.max(np.abs(twice.generator.coeffs - once.generator.coeffs))
    assert gap <= 1e-15


def test_chord_spectrum_cosine():
    spec = chord_spectrum(leg(0.0, [1.0]), zero_section())
    assert spec.lengths == pytest.approx((-1.0, 1.0), abs=1e-12)


def test_chord_spectrum_identical_legendrians():
    l = leg(0.1, [0.2], [0.3])
    spec = chord_spectrum(l, l)
    assert spec.lengths == (0.0,)
    assert spec.plateau


def test_chord_spectrum_constant_difference():
    l = leg(0.0, [0.4], [0.1])
    spec = chord_spectrum(reeb_translate(l, 0.35), l)
    assert spec.lengths == pytest.approx((0.35,), abs=1e-15)
    assert spec.plateau


@given(coeffs, coeffs)
def test_chord_spectrum_antisymmetry(cos1, cos0):
    l1, l0 = leg(0.2, cos1), leg(-0.1, cos0)
    forward = chord_spectrum(l1, l0).lengths
    backward = chord_spectrum(l0, l1).lengths
    np.testing.assert_allclose(sorted(-v for v in forward), backward, atol=1e-13)


@given(coeffs, st.floats(-1.0, 1.0))
def test_chord_spectrum_reeb_equivariance(cos, t):
    l1, l0 = leg(0.1, cos, [0.2]), leg(0.0, [0.3])
    base = chord_spectrum(l1, l0).lengths
    moved = chord_spectrum(reeb_translate(l1, t), l0).lengths
    np.testing.assert_allclose(moved, np.asarray(base) + t, atol=1e-11)


def test_pointwise_leq_examples():
    assert pointwise_leq(leg(0.3, [0.1]), leg(0.3, [0.1]))  # reflexive
    assert not pointwise_leq(leg(0.0, [], [1.0]), zero_section())  # sin changes sign
    assert pointwise_leq(leg(-1.0, [0.1]), zero_section())  # max = -0.9 < 0
    with pytest.raises(DimensionMismatch):
        pointwise_leq(zero_section(TORUS2), zero_section())


@given(coeffs, coeffs)
def test_order_antisymmetry(cos1, cos0):
    l1, l0 = leg(0.05, cos1), leg(0.0, cos0)
    if pointwise_leq(l1, l0) and pointwise_leq(l0, l1):
        d = max(l1.generator.degree, l0.generator.degree)
        gap = np.max(
            np.abs(
                l1.generator.pad_to_degree(d).coeffs - l0.generator.pad_to_degree(d).coeffs
            )
        )
        assert gap <= 1e-11


@given(coeffs, st.floats(0.0, 2.0))
def test_order_reeb_monotonicity(cos, t):
    l = leg(0.1, cos, [0.2])
    assert pointwise_leq(l, reeb_translate(l, t))
