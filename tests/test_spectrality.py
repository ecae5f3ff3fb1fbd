"""Spectrality: critical values are the values of f at the root-found points, and nothing else.

The selectors' membership flags, spectral_norm's assertion and the axiom
suite's spectrality read the chord spectrum, so each can fail only if the
spectrum is built from the roots alone: the record's extrema never join it.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from jetflat import cli
from jetflat.fourier import CIRCLE, TORUS2, FourierFunction, _cluster_values, _rounding, critical_sets
from jetflat.jets import JetLegendrian
from jetflat.sampling import random_function, random_legendrian
from jetflat.selectors import axiom_suite, selectors
from jetflat.serialization import dump_function

from conftest import fn


def _engine_digest_functions() -> list[FourierFunction]:
    path = Path(__file__).resolve().parents[1] / "scripts" / "engine_digest.py"
    spec = importlib.util.spec_from_file_location("engine_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._functions()


def _one_axis(f: FourierFunction, axis: int) -> FourierFunction:
    """The circle function f embedded in T2 as a function of q1 (axis 0) or q2 (axis 1) alone."""
    c = np.zeros((2, f.degree + 1) * 2)
    if axis == 0:
        c[:, :, 0, 0] = f.coeffs
    else:
        c[0, 0] = f.coeffs
    return FourierFunction(TORUS2, c)


# a ridge of T2: every critical point lies on a circle q1 = const, where the
# Hessian is singular, and the torus finder reports none
RIDGE = _one_axis(fn(0.1, [0.7, -0.2], [0.3]), 0)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_critical_values_are_the_values_at_the_critical_points(tol):
    # values come from f at the reported points only, clustered at tol, bit
    # for bit; a constant (its record's range within rounding) reports its
    # record's extrema instead, by design
    rng = np.random.default_rng(29)
    fs = [random_function(rng, CIRCLE, d) for d in [*range(1, 17)] * 2]
    fs += [random_function(rng, TORUS2, d) for d in [1, 2, 3, 4] * 3]
    fs += [*_engine_digest_functions(), RIDGE, _one_axis(fn(0.1, [0.7, -0.2], [0.3]), 1)]
    checked = 0
    for f, cs in zip(fs, critical_sets(fs, tol)):
        ext = cs.extrema
        if ext.vmax - ext.vmin <= _rounding(max(ext.vmax, -ext.vmin)):
            continue
        pts = np.array(cs.points).reshape(-1, f.domain.ndim)
        at = f(pts[:, 0] if f.domain.ndim == 1 else pts)
        assert cs.values == tuple(_cluster_values(at, tol)), f
        checked += 1
    assert checked > len(fs) - 10  # only the handful of constants are skipped


def test_generic_torus_pairs_keep_their_selectors_in_the_spectrum():
    # the root-found torus spectrum holds both extrema of generic input
    rng = np.random.default_rng(5)
    for degree in (1, 2, 3, 4):
        for _ in range(40):
            l1, l0 = (random_legendrian(rng, domain=TORUS2, degree=degree) for _ in range(2))
            assert selectors(l1, l0).in_spectrum


def _dist(tmp_path, f: FourierFunction, g: FourierFunction) -> int:
    specs = []
    for name, h in (("f", f), ("g", g)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(dump_function(h)))
        specs.append(str(p))
    return cli.main(["dist", *specs])


def test_a_torus_ridge_fails_dist(tmp_path, capsys):
    # no critical point is found on a ridge, so its spectrum is empty and dist
    # exits 1 with both flags false instead of certifying its scan values
    r = selectors(JetLegendrian(RIDGE), JetLegendrian(FourierFunction.zero(TORUS2)))
    assert r.spectrum.lengths == () and not r.plus_in_spectrum and not r.minus_in_spectrum
    assert _dist(tmp_path, RIDGE, FourierFunction.zero(TORUS2)) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["plus_in_spectrum"] is False and out["minus_in_spectrum"] is False


def test_axiom_suite_spectrality_fails_when_newton_fails(rng, newton_fails):
    # with every circle Newton row failed, no critical value is found: the
    # spectrality axiom must fail (monotonicity may fail too, as the records
    # fall back to their scan values)
    sample = [random_legendrian(rng, degree=6) for _ in range(4)]
    assert not axiom_suite(sample).by_name("spectrality").passed


def test_selectors_and_dist_fail_when_newton_fails(rng, tmp_path, newton_fails):
    l1, l0 = (random_legendrian(rng, degree=6) for _ in range(2))
    r = selectors(l1, l0)
    assert r.spectrum.lengths == ()
    assert not r.plus_in_spectrum and not r.minus_in_spectrum
    assert _dist(tmp_path, l1.generator, l0.generator) == 1
