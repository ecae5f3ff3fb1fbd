"""Seeded inputs and output checks for the three benchmark workloads.

An instance is one ``jetflat.cli.main`` call with default flags on spec
files written here.  Each instance kind draws its inputs from its own
generator, seeded by (workload seed, kind name), so the same seed gives
byte-identical spec files and adding a kind leaves the others unchanged.

A workload is a list of rounds; a round runs each kind of the workload a
fixed number of times, each instance on its own input.  Every check
compares against the dense-grid reference in ``reference.py`` with a
tolerance, never against output bytes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from jetflat import sampling, serialization
from jetflat.fourier import CIRCLE, TORUS2
from jetflat.paths import IsotopyPath

import reference as ref

# Relative tolerance of value checks.  The engine refines to ~1e-12 and the
# reference to ~1e-13, so this only rejects genuinely wrong values.
VALUE_TOL = 1e-9
# Optimizer oracle window, as in the acceptance gate (criterion 6).
GAP_LOW, GAP_HIGH = -1e-9, 1e-4

FAMILY_KNOTS = 64
PATH_KNOTS = 16


@dataclass
class Instance:
    kind: str
    pool_index: int
    argv: list[str]
    check: Callable[[dict], list[str]]


def _write(path: Path, obj: dict) -> str:
    path.write_text(serialization.canonical_json(obj), encoding="utf-8")
    return str(path)


def _series(fn) -> ref.Series:
    return ref.Series.from_spec(serialization.dump_function(fn))


def _expect(problems: list[str], label: str, value, reference: float) -> None:
    if not isinstance(value, (int, float)) or not ref.close(float(value), reference, VALUE_TOL):
        problems.append(f"{label}={value!r}, reference {reference!r}")


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _lazy(compute: Callable[[], dict]) -> Callable[[], dict]:
    """Reference values are computed on first use, then reused every round."""
    cache: dict = {}

    def get() -> dict:
        if not cache:
            cache.update(compute())
        return cache

    return get


# -- spectra: one pair (or one map) per call ----------------------------------


def _pair(command: str, domain, degree: int):
    def make(rng, out: Path, name: str) -> tuple[list[str], Callable]:
        f = sampling.random_function(rng, domain, degree)
        g = sampling.random_function(rng, domain, degree)
        argv = [
            command,
            _write(out / f"{name}-f.json", serialization.dump_function(f)),
            _write(out / f"{name}-g.json", serialization.dump_function(g)),
        ]
        diff = _series(f) - _series(g)
        expected = _lazy(lambda: {"max": ref.maximum(diff), "min": ref.minimum(diff)})

        def check(report: dict) -> list[str]:
            e, problems = expected(), []
            if command == "dist":
                _expect(problems, "ell_plus", report["ell_plus"], e["max"])
                _expect(problems, "ell_minus", report["ell_minus"], e["min"])
                _expect(problems, "d_spec", report["d_spec"], max(e["max"], -e["min"]))
                _require(problems, report["plus_in_spectrum"] is True, "ell_plus not in spectrum")
                _require(problems, report["minus_in_spectrum"] is True, "ell_minus not in spectrum")
            else:
                lengths = report["lengths"]
                _require(problems, lengths == sorted(lengths) and len(lengths) >= 2, "bad spectrum")
                if lengths:
                    _expect(problems, "max length", lengths[-1], e["max"])
                    _expect(problems, "min length", lengths[0], e["min"])
            return problems

        return argv, check

    return make


def _contact(sub: str):
    def make(rng, out: Path, name: str) -> tuple[list[str], Callable]:
        phi = sampling.random_contactomorphism(rng, degree=6, c1_target=0.4)
        argv = ["contact", sub, _write(out / f"{name}.json", serialization.dump_contactomorphism(phi))]
        f = _series(phi.displacement)
        expected = _lazy(lambda: {"max": ref.maximum(f), "min": ref.minimum(f)})

        def check(report: dict) -> list[str]:
            e, problems = expected(), []
            norm = max(e["max"], -e["min"])
            if sub == "norm":
                _expect(problems, "c_plus", report["c_plus"], e["max"])
                _expect(problems, "c_minus", report["c_minus"], e["min"])
                _expect(problems, "norm", report["norm"], norm)
                _require(problems, report["c1_advisory"] is False, "C1 advisory at c1 0.4")
            elif sub == "translated":
                t = report["translations"]
                _require(problems, t == sorted(t) and len(t) >= 2, "bad translation spectrum")
                if t:
                    _expect(problems, "max translation", t[-1], e["max"])
                    _expect(problems, "min translation", t[0], e["min"])
            else:
                _expect(problems, "spectral_norm", report["spectral_norm"], norm)
                gap = report["gap"]
                _require(problems, GAP_LOW <= gap <= GAP_HIGH, f"gap {gap!r} outside window")
                _expect(problems, "upper - spectral_norm", report["upper"] - report["spectral_norm"], gap)
            return problems

        return argv, check

    return make


# -- families: many small functions per call ----------------------------------


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.empty(len(times))
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    return w


def _integral(family_kind: str):
    """The three family kinds of acceptance criterion 5."""

    def make(rng, out: Path, name: str) -> tuple[list[str], Callable]:
        h = sampling.random_function(rng, CIRCLE, 5, amplitude=0.4)
        ts = np.linspace(0.0, 1.0, FAMILY_KNOTS)
        if family_kind == "scaled":  # positive multiples of h: quasi-autonomous
            knots = [float(lam) * h for lam in rng.uniform(0.2, 1.5, FAMILY_KNOTS)]
        elif family_kind == "crossing":  # multiples of h changing sign
            shift = rng.uniform(-0.2, 0.2)
            knots = [float(c + shift) * h for c in np.linspace(-1.0, 1.0, FAMILY_KNOTS)]
        else:
            h2 = sampling.random_function(rng, CIRCLE, 5, amplitude=0.4)
            knots = [(1.0 - float(t)) * h + float(t) * h2 for t in ts]
        family = IsotopyPath(knots=tuple(knots), times=tuple(ts))
        argv = ["integral-criterion", _write(out / f"{name}.json", serialization.dump_path(family))]
        series = [_series(k) for k in knots]
        weights = _trapezoid_weights(ts)

        def compute() -> dict:
            lhs = float(weights @ ref.sup_abs_many(series))
            return {"lhs": lhs, "rhs": ref.sup_abs(ref.scaled_sum(zip(weights, series)))}

        expected = _lazy(compute)

        def check(report: dict) -> list[str]:
            e, problems = expected(), []
            _expect(problems, "lhs", report["lhs"], e["lhs"])
            _expect(problems, "rhs", report["rhs"], e["rhs"])
            _expect(problems, "gap", report["gap"], report["lhs"] - report["rhs"])
            _require(problems, report["holds"] == (report["witness"] is not None), "holds/witness disagree")
            if family_kind == "scaled":
                _require(problems, report["witness"] is not None, "no witness for a scaled family")
            return problems

        return argv, check

    return make


def _path_lengths(knot_series: list[ref.Series]) -> dict:
    """Sup-norm length and endpoint distance of a circle path."""
    segments = [b - a for a, b in zip(knot_series[:-1], knot_series[1:])]
    norms = ref.sup_abs_many(segments + [knot_series[-1] - knot_series[0]])
    return {"length": float(norms[:-1].sum()), "d_spec": float(norms[-1])}


def _geodesic_check(quasi_autonomous: bool):
    def make(rng, out: Path, name: str) -> tuple[list[str], Callable]:
        if quasi_autonomous:
            path = sampling.random_quasi_autonomous_path(rng, PATH_KNOTS, degree=6)
        else:
            path = sampling.random_path(rng, PATH_KNOTS, degree=6)
        argv = ["geodesic", _write(out / f"{name}.json", serialization.dump_path(path))]
        expected = _lazy(lambda: _path_lengths([_series(k) for k in path.knots]))

        def check(report: dict) -> list[str]:
            e, problems = expected(), []
            _expect(problems, "length", report["length"], e["length"])
            _expect(problems, "d_spec", report["d_spec"], e["d_spec"])
            if quasi_autonomous:
                seg = report["segmentation"]
                _require(problems, report["qa_witness"] is not None, "no witness on a quasi-autonomous path")
                _require(problems, report["minimizing"] is True, "quasi-autonomous path not minimizing")
                _require(problems, seg["windows"] == [[0, PATH_KNOTS - 1]], f"windows {seg['windows']}")
            return problems

        return argv, check

    return make


def _props(rng, out: Path, name: str) -> tuple[list[str], Callable]:
    argv = ["props", "--count", "8", "--seed", str(int(rng.integers(2**31)))]

    def check(report: dict) -> list[str]:
        problems: list[str] = []
        _require(problems, report["sample_size"] == 8, "sample size")
        _require(problems, report["all_pass"] is True, "axiom failures")
        return problems

    return argv, check


# -- optimizer: the variational oracle -----------------------------------------


def _optimize(rng, out: Path, name: str) -> tuple[list[str], Callable]:
    """The criterion-6 setting: degree 8, default 6 knots and 16 restarts."""
    f0 = sampling.random_function(rng, CIRCLE, 8)
    f1 = sampling.random_function(rng, CIRCLE, 8)
    path = IsotopyPath.uniform([f0, f1])
    argv = ["geodesic", _write(out / f"{name}.json", serialization.dump_path(path)), "--mode", "optimize"]
    expected = _lazy(lambda: {"d_spec": ref.sup_abs(_series(f1) - _series(f0))})

    def check(report: dict) -> list[str]:
        problems: list[str] = []
        _expect(problems, "d_spec", report["d_spec"], expected()["d_spec"])
        gap = report["gap"]
        _require(problems, GAP_LOW <= gap <= GAP_HIGH, f"gap {gap!r} outside window")
        knots = [ref.Series.from_spec(k) for k in report["path"]["knots"]]
        _expect(problems, "best_length", report["best_length"], _path_lengths(knots)["length"])
        return problems

    return argv, check


KINDS: dict[str, Callable] = {
    "dist-s1-5": _pair("dist", CIRCLE, 5),
    "dist-s1-8": _pair("dist", CIRCLE, 8),
    "dist-s1-16": _pair("dist", CIRCLE, 16),
    "dist-t2-4": _pair("dist", TORUS2, 4),
    "spectrum-s1-5": _pair("spectrum", CIRCLE, 5),
    "spectrum-s1-8": _pair("spectrum", CIRCLE, 8),
    "spectrum-s1-16": _pair("spectrum", CIRCLE, 16),
    "spectrum-t2-4": _pair("spectrum", TORUS2, 4),
    "contact-norm": _contact("norm"),
    "contact-translated": _contact("translated"),
    "integral-scaled": _integral("scaled"),
    "integral-crossing": _integral("crossing"),
    "integral-interp": _integral("interp"),
    "geodesic-qa": _geodesic_check(True),
    "geodesic-random": _geodesic_check(False),
    "props": _props,
    "geodesic-optimize": _optimize,
    "contact-upper": _contact("upper"),
}


@dataclass(frozen=True)
class Workload:
    """What one round runs: ``mix`` maps each kind to its instances per round.

    Every instance of a run has its own input, up to ``pool`` distinct
    rounds, because input cost varies by about 20% between draws.  The
    traced run repeats the first ``trace_rounds`` rounds, so its
    per-instance counts do not depend on machine speed.
    """

    mix: dict[str, int]
    pool: int
    trace_rounds: int


# The mixes keep p50 and p90 inside one group of similar latencies instead
# of on the gap between two groups.  spectra: degree 5/8 pairs ~6 ms (29%),
# degree-16 pairs and contact maps ~11 ms (57%), T2 pairs ~55 ms (14%).
# families: integral ~100 ms (64%), random geodesic
# ~140 ms (14%), props ~300 ms (7%), quasi-autonomous geodesic ~700 ms (14%),
# so p50 falls among the integral criteria and p90 among the segmentations.
# optimizer: contact upper (degree 6) runs ~15% faster than geodesic
# optimize (degree 8), which takes two thirds of the instances.
WORKLOADS: dict[str, Workload] = {
    "spectra": Workload(
        {
            "dist-s1-5": 1,
            "spectrum-s1-5": 1,
            "dist-s1-8": 1,
            "spectrum-s1-8": 1,
            "dist-s1-16": 2,
            "spectrum-s1-16": 2,
            "contact-norm": 2,
            "contact-translated": 2,
            "dist-t2-4": 1,
            "spectrum-t2-4": 1,
        },
        32,
        4,
    ),
    "families": Workload(
        {
            "integral-scaled": 3,
            "integral-crossing": 3,
            "integral-interp": 3,
            "geodesic-qa": 2,
            "geodesic-random": 2,
            "props": 1,
        },
        12,
        1,
    ),
    "optimizer": Workload({"geodesic-optimize": 2, "contact-upper": 1}, 12, 1),
}


def build(workload: str, seed: int, out: Path) -> list[list[Instance]]:
    """Write the workload's spec files under ``out`` and return its rounds."""
    spec = WORKLOADS[workload]
    rounds: list[list[Instance]] = [[] for _ in range(spec.pool)]
    for kind, count in spec.mix.items():
        rng = np.random.default_rng([seed, zlib.crc32(kind.encode())])
        for i in range(count * spec.pool):
            argv, check = KINDS[kind](rng, out, f"{kind}-{i}")
            rounds[i // count].append(Instance(kind, i, argv, check))
    return rounds
