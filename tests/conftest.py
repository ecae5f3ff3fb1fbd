import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import settings

from jetflat import fourier
from jetflat.fourier import FourierFunction

settings.register_profile("numeric", deadline=None, max_examples=40, derandomize=True)
settings.load_profile("numeric")


def fn(a0=0.0, cos=(), sin=()):
    """Shorthand circle-function builder used all over the tests."""
    return FourierFunction.from_circle_coeffs(a0, list(cos), list(sin))


@pytest.fixture
def rng():
    return np.random.default_rng(20240315)


@pytest.fixture
def scanned(monkeypatch):
    """The functions scanned so far, one entry (the scan size) each.

    Circle scans are counted in the stacked product every one of them goes
    through, torus scans in values_on_grid.
    """
    counts = []
    circle_scans, values_on_grid = fourier._circle_scans, FourierFunction.values_on_grid

    def counted_circle_scans(stack, n):
        counts.extend([n] * len(stack))
        return circle_scans(stack, n)

    def counted_values_on_grid(self, n):
        if self.domain.kind == "T2":
            counts.append(n)
        return values_on_grid(self, n)

    monkeypatch.setattr(fourier, "_circle_scans", counted_circle_scans)
    monkeypatch.setattr(FourierFunction, "values_on_grid", counted_values_on_grid)
    return counts


@pytest.fixture
def spectra_lacking_largest(monkeypatch):
    """A fault for the spectrality negative controls: every chord spectrum the
    axiom suite reads lacks its largest length, so ell_plus drops out of it
    while every record (and so every other axiom) keeps its bits."""
    selectors = importlib.import_module("jetflat.selectors")  # the package's `selectors` is the function
    chord_spectra = selectors.chord_spectra

    def faulty(*args, **kwargs):
        return [dataclasses.replace(s, lengths=s.lengths[:-1]) for s in chord_spectra(*args, **kwargs)]

    monkeypatch.setattr(selectors, "chord_spectra", faulty)


@pytest.fixture
def newton_fails(monkeypatch):
    """A fault for the root-finder negative controls: every row of the circle
    Newton run comes back failed (NaN root and value), so no circle critical
    point is found and every record falls back to its scan values."""
    newton_circle = fourier._newton_circle

    def failed(*args, **kwargs):
        roots, vals = newton_circle(*args, **kwargs)
        return np.full_like(roots, np.nan), np.full_like(vals, np.nan)

    monkeypatch.setattr(fourier, "_newton_circle", failed)
