"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from jetflat import cli, sampling, serialization  # noqa: E402
from jetflat.fourier import CIRCLE, TORUS2, extremum, sup_norm  # noqa: E402

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _fill(recorder, rows):
    """rows: (name index, start, end, parent, nested)."""
    for name, start, end, parent, nested in rows:
        recorder.name.append(name)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.nested.append(nested)
        recorder.instance.append(0)


def test_self_time_of_a_synthetic_nest():
    rec = spans.Recorder(("a", "b", "c", "unused"))
    _fill(rec, [
        (0, 0.0, 10.0, -1, False),  # a: children b(3) and b(4) -> self 3
        (1, 1.0, 4.0, 0, False),  # b: child c(1) -> self 2
        (2, 2.0, 3.0, 1, False),  # c: leaf -> self 1
        (1, 5.0, 9.0, 0, False),  # b: child a(2) -> self 2
        (0, 6.0, 8.0, 3, True),  # a inside a: not added to a's total again
    ])
    got = rec.reduce()
    assert got["a"] == {"calls": 2, "total_ms": 10_000.0, "self_ms": 5_000.0}
    assert got["b"] == {"calls": 2, "total_ms": 7_000.0, "self_ms": 4_000.0}
    assert got["c"] == {"calls": 1, "total_ms": 1_000.0, "self_ms": 1_000.0}
    assert got["unused"] == {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    # self times partition the root span
    assert sum(v["self_ms"] for v in got.values()) == pytest.approx(got["a"]["total_ms"])


def test_traced_wraps_every_namespace_and_restores():
    import jetflat
    import jetflat.fourier as fourier
    import jetflat.geodesics as geodesics

    original = fourier.sup_norm
    f = sampling.random_function(np.random.default_rng(0), CIRCLE, 5)
    rec = spans.Recorder(("fourier.sup_norm", "fourier.extremum", "fourier.no_such_helper"))
    with spans.traced(rec) as absent:
        assert geodesics.sup_norm is not original and jetflat.sup_norm is not original
        traced_value = fourier.sup_norm(f)
    assert absent == ["fourier.no_such_helper"]
    assert fourier.sup_norm is original and geodesics.sup_norm is original
    assert jetflat.sup_norm is original
    assert traced_value == sup_norm(f)
    got = rec.reduce()
    assert got["fourier.sup_norm"]["calls"] == 1
    assert got["fourier.extremum"]["calls"] == 2
    assert list(rec.parent) == [-1, 0, 0]


def test_method_targets_are_wrapped_on_the_class():
    from jetflat.fourier import FourierFunction

    f = sampling.random_function(np.random.default_rng(1), CIRCLE, 4)
    rec = spans.Recorder(("fourier.FourierFunction.__call__",))
    original = FourierFunction.__dict__["__call__"]
    with spans.traced(rec):
        assert f(0.25) == original(f, 0.25)
    assert FourierFunction.__dict__["__call__"] is original
    f(0.5)
    assert rec.reduce()["fourier.FourierFunction.__call__"]["calls"] == 1


@pytest.mark.parametrize("domain, degree", [(CIRCLE, 5), (CIRCLE, 16), (TORUS2, 4)])
def test_reference_extrema_agree_with_the_engine(domain, degree):
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = sampling.random_function(rng, domain, degree)
        s = ref.Series.from_spec(serialization.dump_function(f))
        assert ref.maximum(s) == pytest.approx(extremum(f, "max").value, abs=1e-12)
        assert ref.minimum(s) == pytest.approx(extremum(f, "min").value, abs=1e-12)


def test_batched_circle_norms_match_the_engine():
    rng = np.random.default_rng(8)
    fs = [sampling.random_function(rng, CIRCLE, d) for d in (3, 5, 8, 16, 5)]
    got = ref.sup_abs_many([ref.Series.from_spec(serialization.dump_function(f)) for f in fs])
    assert got == pytest.approx([sup_norm(f) for f in fs], abs=1e-12)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return json.loads(out.getvalue())


def test_check_rejects_a_perturbed_d_spec(tmp_path):
    argv, check = workloads.KINDS["dist-s1-8"](np.random.default_rng(3), tmp_path, "pair")
    report = _run(argv)
    assert check(report) == []
    report["d_spec"] += 1e-6
    problems = check(report)
    assert len(problems) == 1 and problems[0].startswith("d_spec=")


def test_check_rejects_a_wrong_integral_lhs(tmp_path):
    argv, check = workloads.KINDS["integral-scaled"](np.random.default_rng(4), tmp_path, "fam")
    report = _run(argv)
    assert check(report) == []
    assert report["witness"] is not None
    report["lhs"] *= 1.0 + 1e-7
    assert any(p.startswith("lhs=") for p in check(report))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_specs(tmp_path, workload):
    def specs(seed, name):
        out = tmp_path / name
        out.mkdir()
        rounds = workloads.build(workload, seed, out)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        argvs = [[a.replace(str(out), "") for a in inst.argv] for r in rounds for inst in r]
        return files, argvs

    first, second, other = specs(5, "first"), specs(5, "second"), specs(6, "other")
    assert first[0] and first == second
    assert first[0] != other[0]
