import json

import numpy as np
import pytest

from jetflat import cli, fourier
from jetflat.cli import main
from jetflat.contact import CircleContactomorphism
from jetflat.errors import SpecParseError, ViolationReport
from jetflat.fourier import TORUS2, FourierFunction
from jetflat.paths import IsotopyPath
from jetflat.sampling import random_function, random_path, random_quasi_autonomous_path
from jetflat.serialization import (
    canonical_json,
    dump_contactomorphism,
    dump_function,
    dump_path,
    parse_contact_path,
    parse_contactomorphism,
    parse_function,
    parse_path,
)

from conftest import fn


# -- serialization ----------------------------------------------------------


def test_circle_roundtrip_is_exact(rng):
    f = random_function(rng, degree=6)
    again = parse_function(dump_function(f))
    assert again == f


def test_torus_roundtrip(rng):
    from jetflat.fourier import TORUS2

    t = random_function(rng, TORUS2, degree=3)
    again = parse_function(dump_function(t))
    assert again == t


def test_degree_inferred_from_arrays():
    f = parse_function({"domain": "S1", "a0": 0.0, "cos": [0.0, 0.0, 1.0], "sin": []})
    assert f.degree == 3


def test_torus_constant_block_folds_into_mean():
    t = parse_function({"domain": "T2", "coeffs": {"a0": 0.25, "cc": [[0.5]]}})
    assert t.mean_value == 0.75


def test_parse_rejects_bad_documents():
    for doc in (
        [],
        {"domain": "S3"},
        {"domain": "S1", "a0": float("nan")},
        {"domain": "S1", "a0": 0.0, "cos": ["x"]},
        {"domain": "T2", "coeffs": {"cc": [[0.0, 1.0]]}},
    ):
        with pytest.raises(SpecParseError):
            parse_function(doc)


def test_path_roundtrip():
    path = parse_path(
        {
            "times": [0.0, 0.25, 1.0],
            "knots": [dump_function(fn(0.0)), dump_function(fn(0.3)), dump_function(fn(0.7, [0.1]))],
        }
    )
    assert path.n_segments == 2
    again = parse_path(dump_path(path))
    assert again.times == path.times
    assert all(a == b for a, b in zip(again.knots, path.knots))


def test_contact_path_parsing():
    doc = {
        "times": [0.0, 1.0],
        "knots": [
            {"displacement": dump_function(fn(0.0))},
            {"displacement": dump_function(fn(0.2))},
        ],
    }
    maps, times = parse_contact_path(doc)
    assert len(maps) == 2 and times == [0.0, 1.0]
    assert parse_contactomorphism(doc["knots"][1]).displacement == fn(0.2)


def test_canonical_json_is_stable():
    doc = {"b": 1.5, "a": [1, 2]}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


# -- command line -------------------------------------------------------------


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def specs(tmp_path):
    return {
        "zero": _write(tmp_path, "zero.json", dump_function(fn(0.0))),
        "amp": _write(tmp_path, "amp.json", dump_function(fn(0.0, [0.3], [-0.1]))),
        "const": _write(tmp_path, "const.json", dump_function(fn(0.7))),
        "cos": _write(tmp_path, "cos.json", dump_function(fn(0.0, [1.0]))),
        "torus": _write(
            tmp_path, "torus.json", {"domain": "T2", "coeffs": {"a0": 0.0, "cc": [[0.0, 1.0], [1.0, 0.0]]}}
        ),
        "reversal": _write(
            tmp_path,
            "reversal.json",
            {
                "times": [0.0, 0.5, 1.0],
                "knots": [
                    dump_function(fn(0.0)),
                    dump_function(fn(0.0, [0.5])),
                    dump_function(fn(0.0)),
                ],
            },
        ),
        "phi": _write(
            tmp_path, "phi.json", {"displacement": dump_function(fn(0.0, [], [0.1]))}
        ),
        "tmp": tmp_path,
    }


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_cmd_dist_equal_specs(capsys, specs):
    code, out = run_json(capsys, ["dist", specs["zero"], specs["zero"]])
    assert code == 0
    assert out["d_spec"] == 0.0


def test_cmd_dist_constant_shift(capsys, specs):
    code, out = run_json(capsys, ["dist", specs["const"], specs["zero"]])
    assert code == 0
    assert (out["ell_plus"], out["ell_minus"], out["d_spec"]) == (0.7, 0.7, 0.7)


def test_cmd_dist_amplitude(capsys, specs):
    code, out = run_json(capsys, ["dist", specs["amp"], specs["zero"]])
    assert code == 0
    assert out["d_spec"] == pytest.approx(np.sqrt(0.1), abs=1e-9)


@pytest.mark.parametrize("amp, tol", [(1e-11, 1e-12), (1e-13, 1e-14)])
def test_cmd_dist_tiny_amplitude_in_spectrum(capsys, specs, tmp_path, amp, tol):
    # max|f'| is far below 1 at both amplitudes, and neither is a constant
    # (the range is far above rounding of max|f|): the Newton residual and
    # the plateau threshold scale with max|f'|, so the spectrum holds the
    # root-found extrema at the command's tolerance
    f = _write(tmp_path, "tiny.json", {"domain": "S1", "a0": 0, "cos": [amp]})
    code, out = run_json(capsys, ["dist", f, specs["zero"], "--tol", str(tol)])
    assert code == 0
    assert out["plus_in_spectrum"] and out["minus_in_spectrum"]
    assert (out["ell_plus"], out["ell_minus"]) == pytest.approx((amp, -amp), abs=tol)


def test_cmd_dist_coarse_tol_keeps_extrema_in_spectrum(capsys, specs, tmp_path):
    # about 32 critical values in +-2.2e-3, each under 1e-3 from the next:
    # clustered at --tol they would merge into one mean near 0
    cos = [2e-3] + [0.0] * 14 + [2e-4]
    f = _write(tmp_path, "ripple.json", {"domain": "S1", "a0": 0, "cos": cos})
    code, out = run_json(capsys, ["dist", f, specs["zero"], "--tol", "1e-3"])
    assert code == 0
    assert out["plus_in_spectrum"] and out["minus_in_spectrum"]
    assert out["ell_plus"] == pytest.approx(2.2e-3, abs=1e-12)


def test_extremum_outside_its_enclosure_exits_1(monkeypatch, capsys, specs):
    # a refined max can only lie in [hi, hi + margin], the margin bounding
    # what the scan misses between its points (M2 dq^2 / 2, plus 10 tol);
    # a broken Newton run that reports each value 1 too high lands outside
    newton = fourier._newton_circle

    def lifted(stack, seeds, lo, hi, residual, sign):
        roots, values = newton(stack, seeds, lo, hi, residual, sign)
        return roots, values + 1.0

    monkeypatch.setattr(fourier, "_newton_circle", lifted)
    with pytest.raises(ViolationReport, match="enclosure"):
        fourier.attaining_set(fn(0.0, [0.3], [-0.1]))
    assert main(["dist", specs["amp"], specs["zero"]]) == 1
    assert capsys.readouterr().out == ""


def test_cmd_dist_parse_failure_exit_2(capsys, specs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dist", str(bad), specs["zero"]]) == 2


def test_boolean_numbers_exit_2(capsys, specs, tmp_path):
    # JSON true/false are not numbers, in any slot that takes one
    torus = {"domain": "T2", "coeffs": {"a0": 0.0, "cc": [[0.0, True], [1.0, 0.0]]}}
    docs = {
        "a0": {"domain": "S1", "a0": True, "cos": [0.5]},
        "cos": {"domain": "S1", "a0": 0.0, "cos": [False, True]},
        "torus a0": {"domain": "T2", "coeffs": {"a0": False, "cc": [[0.0, 1.0], [1.0, 0.0]]}},
        "torus block": torus,
    }
    for name, doc in docs.items():
        assert main(["dist", _write(tmp_path, "bad.json", doc), specs["zero"]]) == 2, name
    path = {"times": [0.0, True], "knots": [dump_function(fn(0.0)), dump_function(fn(0.0, [0.5]))]}
    assert main(["geodesic", _write(tmp_path, "bad-path.json", path)]) == 2
    assert capsys.readouterr().out == ""


def test_cmd_dist_domain_mismatch_exit_3(capsys, specs):
    assert main(["dist", specs["torus"], specs["zero"]]) == 3


def test_cmd_spectrum(capsys, specs):
    code, out = run_json(capsys, ["spectrum", specs["cos"], specs["zero"]])
    assert code == 0
    assert out["lengths"] == pytest.approx([-1.0, 1.0], abs=1e-9)
    code, out = run_json(capsys, ["spectrum", specs["zero"], specs["zero"]])
    assert out["plateau"] is True and out["lengths"] == [0.0]


def test_cmd_geodesic_check_reversal(capsys, specs):
    code, out = run_json(capsys, ["geodesic", specs["reversal"]])
    assert code == 0
    assert not out["minimizing"]
    assert out["gap"] == pytest.approx(1.0, abs=1e-9)
    assert out["qa_witness"] is None
    assert set(out) == {
        "length", "d_spec", "gap", "minimizing", "qa_witness", "cross_check_mismatch", "segmentation",
    }
    assert out["segmentation"] == {"windows": [[0, 1], [1, 2]], "multi_segment_windows": []}


@pytest.mark.parametrize("eps,tol", [(1e-7, 1e-9), (1e-4, 1e-6)])
def test_cmd_geodesic_check_near_geodesic(capsys, specs, eps, tol):
    # 4 steps lambda_k h + eps g_k of degree 6: the gap, about eps^2, lies
    # far below tol, so the witness search at the same tol must find the
    # witness and the verdicts agree
    path = random_quasi_autonomous_path(np.random.default_rng(3), n_knots=5, perturbation=eps)
    spec = _write(specs["tmp"], "near.json", dump_path(path))
    code, out = run_json(capsys, ["geodesic", spec, "--tol", repr(tol)])
    assert out["gap"] <= tol / 100
    assert code == 0 and out["cross_check_mismatch"] is False
    assert out["minimizing"] and out["qa_witness"] is not None


def test_cmd_geodesic_tied_maxima(capsys, specs):
    # f has two equal maxima near 0.007118 and 0.992882, and h peaks at the
    # second one, so 0 -> f -> f + h is quasi-autonomous through it
    f = fn(0.5, [0.999, -0.25])
    path = IsotopyPath.uniform([fn(0.0), f, f + fn(0.1, [0.0999], [-0.00447])])
    spec = _write(specs["tmp"], "tied.json", dump_path(path))
    code, out = run_json(capsys, ["geodesic", spec])
    assert code == 0 and out["cross_check_mismatch"] is False
    assert out["minimizing"] and out["qa_witness"]["base_point"] == pytest.approx([0.992882], abs=1e-6)
    assert out["segmentation"]["windows"] == [[0, 2]]


def test_cmd_geodesic_optimize(capsys, specs):
    code, out = run_json(
        capsys,
        ["geodesic", specs["reversal"], "--mode", "optimize", "--knots", "4", "--restarts", "2"],
    )
    assert code == 0
    assert abs(out["gap"]) <= 1e-9  # endpoints coincide: best length ~ 0


def test_cmd_props_passes(capsys):
    code, out = run_json(capsys, ["props", "--count", "5", "--seed", "42"])
    assert code == 0
    assert out["all_pass"] is True


def test_degree_is_a_props_flag(monkeypatch, capsys, specs):
    degrees = []
    sample = cli.random_legendrian

    def spy(rng, **kwargs):
        degrees.append(kwargs["degree"])
        return sample(rng, **kwargs)

    monkeypatch.setattr(cli, "random_legendrian", spy)
    code, out = run_json(capsys, ["props", "--count", "3", "--degree", "12"])
    assert code == 0 and out["all_pass"] is True
    assert degrees == [12, 12, 12]
    degrees.clear()
    assert main(["props", "--count", "2"]) == 0
    assert degrees == [8, 8]
    assert main(["props", "--count", "2", "--degree", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["dist", specs["zero"], specs["zero"], "--degree", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["dist", "spectrum", "monotone", "length", "integral-criterion"])
def test_seed_belongs_to_the_commands_that_read_it(capsys, specs, command):
    # only props, geodesic and contact draw random numbers; elsewhere --seed is rejected
    operands = [specs["zero"]] * (2 if command in ("dist", "spectrum") else 1)
    with pytest.raises(SystemExit) as exc:
        main([command, *operands, "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["monotone", "length"])
def test_tol_belongs_to_the_commands_that_read_it(capsys, specs, command):
    # monotone and length compare nothing at a tolerance; there --tol is rejected
    with pytest.raises(SystemExit) as exc:
        main([command, specs["reversal"], "--tol", "1e-9"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cmd_props_negative_control(capsys, spectra_lacking_largest):
    # spectra short of their largest length (conftest): props must exit 1
    # with spectrality, and only it, false (without the fault it exits 0)
    code, out = run_json(capsys, ["props", "--count", "3", "--seed", "42"])
    assert code == 1
    assert [name for name, axiom in out["axioms"].items() if not axiom["pass"]] == ["spectrality"]


def test_cmd_monotone(capsys, specs, tmp_path):
    up = _write(
        tmp_path,
        "up.json",
        {"times": [0.0, 1.0], "knots": [dump_function(fn(0.0)), dump_function(fn(0.4))]},
    )
    code, out = run_json(capsys, ["monotone", up])
    assert code == 0 and out["monotone"] is True
    code, out = run_json(capsys, ["monotone", specs["reversal"]])
    assert out["monotone"] is False


def test_cmd_length(capsys, specs):
    code, out = run_json(capsys, ["length", specs["reversal"]])
    assert code == 0
    assert out == {"sch_length": pytest.approx(1.0, abs=1e-9)}


def test_cmd_integral_criterion(capsys, specs, tmp_path):
    ts = [i / 64 for i in range(65)]
    fam = _write(
        tmp_path,
        "fam.json",
        {"times": ts, "knots": [dump_function(fn(2 * t - 1)) for t in ts]},
    )
    code, out = run_json(capsys, ["integral-criterion", fam])
    assert code == 0
    assert out["holds"] is False
    assert out["lhs"] == 0.5 and out["rhs"] == 0.0


def test_cmd_contact_norm_translated_qa_upper(capsys, specs, tmp_path):
    code, out = run_json(capsys, ["contact", "norm", specs["phi"]])
    assert code == 0 and out["norm"] == pytest.approx(0.1, abs=1e-9)

    code, out = run_json(capsys, ["contact", "translated", specs["phi"]])
    assert code == 0 and out["translations"] == pytest.approx([-0.1, 0.1], abs=1e-9)

    cpath = _write(
        tmp_path,
        "cpath.json",
        {
            "times": [0.0, 1.0],
            "knots": [
                {"displacement": dump_function(fn(0.0))},
                {"displacement": dump_function(fn(0.0, [], [0.1]))},
            ],
        },
    )
    code, out = run_json(capsys, ["contact", "qa", cpath])
    assert code == 0 and out["qa_witness"] is not None

    code, out = run_json(capsys, ["contact", "upper", specs["phi"], "--restarts", "4"])
    assert code == 0 and out["gap"] <= 1e-4


def test_cmd_contact_upper_reads_the_spectral_norm_once(monkeypatch, capsys, specs):
    calls, spectral_norm = [], cli.spectral_norm

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return spectral_norm(*args, **kwargs)

    monkeypatch.setattr(cli, "spectral_norm", counted)
    code, out = run_json(capsys, ["contact", "upper", specs["phi"], "--knots", "3", "--restarts", "2"])
    assert code == 0 and len(calls) == 1
    assert out["gap"] == out["upper"] - out["spectral_norm"]
    # --tol reaches the spectral norm, as in contact norm
    calls.clear()
    code, _ = run_json(capsys, ["contact", "upper", specs["phi"], "--knots", "3", "--restarts", "2", "--tol", "1e-3"])
    assert code == 0 and calls == [{"tol": 1e-3}]


def test_cmd_contact_norm_shares_dist_membership_rule(capsys, specs):
    # at --tol 1e-3 the spectrum's cluster means drift off the extrema of this
    # displacement; contact norm reads selectors, as dist does, so both exit 0
    f = fn(0.0, [0.003] + [0.0] * 9 + [0.0006])  # 0.003 cos 2 pi q + 0.0006 cos 22 pi q
    phi = _write(specs["tmp"], "drift.json", {"displacement": dump_function(f)})
    code, norm = run_json(capsys, ["contact", "norm", phi, "--tol", "1e-3"])
    assert code == 0
    spec = _write(specs["tmp"], "drift-f.json", dump_function(f))
    code, dist = run_json(capsys, ["dist", spec, specs["zero"], "--tol", "1e-3"])
    assert code == 0
    assert (norm["c_plus"], norm["c_minus"], norm["norm"]) == (0.0036, -0.0036, 0.0036)
    assert (dist["ell_plus"], dist["ell_minus"], dist["d_spec"]) == (0.0036, -0.0036, 0.0036)


def test_cmd_contact_qa_follows_tol(capsys, specs):
    # 4 steps lambda_k h + 1e-3 g_k from the identity: the jet-side gap, about
    # 7.6e-10, lies far below 1e-4, so the witness search at --tol 1e-4 finds
    # the witness, and at 1e-9 it does not
    rng = np.random.default_rng(5)
    path = random_quasi_autonomous_path(rng, n_knots=5, amplitude=0.005, perturbation=1e-3)
    maps = [CircleContactomorphism(k - path.knots[0]) for k in path.knots]
    doc = {"times": list(path.times), "knots": [dump_contactomorphism(m) for m in maps]}
    spec = _write(specs["tmp"], "near-contact.json", doc)
    code, out = run_json(capsys, ["contact", "qa", spec, "--tol", "1e-4"])
    assert code == 0 and out["qa_witness"] is not None
    code, out = run_json(capsys, ["contact", "qa", spec, "--tol", "1e-9"])
    assert code == 0 and out["qa_witness"] is None


def test_knot_time_count_mismatch_exit_3(capsys, tmp_path):
    # 3 knots and 2 times are malformed geometry, in a path and in a contact path
    knots = [fn(0.0), fn(0.0, [], [0.05]), fn(0.0, [], [0.1])]
    path = _write(tmp_path, "path.json", {"times": [0.0, 1.0], "knots": [dump_function(k) for k in knots]})
    cpath = _write(
        tmp_path,
        "cpath.json",
        {"times": [0.0, 1.0], "knots": [{"displacement": dump_function(k)} for k in knots]},
    )
    assert main(["geodesic", path]) == 3
    assert main(["contact", "qa", cpath]) == 3
    assert capsys.readouterr().out == ""


def test_missing_times_exit_2(capsys, tmp_path):
    # "times" is required, as "knots" is: a spec without it is an invalid
    # input document, not a knot/time count mismatch
    knots = [fn(0.0), fn(0.0, [], [0.05])]
    path = _write(tmp_path, "path.json", {"knots": [dump_function(k) for k in knots]})
    cpath = _write(tmp_path, "cpath.json", {"knots": [{"displacement": dump_function(k)} for k in knots]})
    assert main(["length", path]) == 2
    assert main(["contact", "qa", cpath]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic", "reversal", "--mode", "optimize", "--restarts", "-3"],
        ["contact", "upper", "phi", "--restarts", "-2"],
    ],
    ids=["geodesic", "contact-upper"],
)
def test_negative_restarts_exit_2(capsys, specs, argv):
    argv = [specs.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value", [("--knots", "1"), ("--knots", "0"), ("--restarts", "-1")])
@pytest.mark.parametrize(
    "command", [["geodesic", "reversal", "--mode", "optimize"], ["contact", "upper", "phi"]], ids=["geodesic", "contact-upper"]
)
def test_optimizer_flags_out_of_range_exit_2(capsys, specs, command, flag, value):
    # fewer than two knots, like a negative restart count, is an input
    # error, not malformed geometry (exit 3)
    assert main([specs.get(a, a) for a in command] + [flag, value]) == 2
    assert capsys.readouterr().out == ""


def test_grid_evaluations_per_command(monkeypatch, capsys, scanned, specs, rng):
    # one scan per function per command: dist and spectrum scan f1 - f0 once
    # and read the selectors from the critical set's extrema record; a
    # contact map scans f' once when it is built, and the norm and the
    # translated points then scan f once; the integral criterion scans each
    # knot once plus the integral; the geodesic check scans each segment
    # once, for the length, the witness and the segmentation, and the
    # endpoint difference once; length scans each segment once; props scans
    # the 36 pairs i <= j once, for their chord spectra and ell_pm, the 28
    # pairs i > j, the 64 Reeb-shifted pairs and the 28 squares.  One Newton
    # run per domain and batch refines the max, min and critical seeds of
    # all its functions: the 64 knots with their integral and the 15 (or 4)
    # segments with their endpoint difference are one batch each, and props
    # makes four batches (chord spectra, ell_pm, shifted pairs, squares)
    tzero = _write(specs["tmp"], "tzero.json", {"domain": "T2", "coeffs": {"a0": 0.0, "cc": [[0.0]]}})
    h = random_function(rng, degree=5, amplitude=0.4)
    ts = np.linspace(0.0, 1.0, 64)
    family = IsotopyPath(knots=tuple(float(lam) * h for lam in rng.uniform(0.2, 1.5, 64)), times=tuple(ts))
    family_spec = _write(specs["tmp"], "family.json", dump_path(family))
    path_spec = _write(specs["tmp"], "path.json", dump_path(random_quasi_autonomous_path(rng, 16)))
    torus_path_spec = _write(specs["tmp"], "tpath.json", dump_path(random_path(rng, 5, TORUS2, degree=3)))
    runs = {"_newton_circle": [], "_newton_torus": []}

    def counted_runs(name):
        newton = getattr(fourier, name)

        def wrapper(*args):
            runs[name].append(args)
            return newton(*args)

        return wrapper

    for name in runs:
        monkeypatch.setattr(fourier, name, counted_runs(name))
    for argv, scans, circle_runs, torus_runs in (
        (["dist", specs["amp"], specs["zero"]], 1, 1, 0),
        (["dist", specs["torus"], tzero], 1, 0, 1),
        (["spectrum", specs["amp"], specs["zero"]], 1, 1, 0),
        (["contact", "norm", specs["phi"]], 2, 2, 0),
        (["contact", "translated", specs["phi"]], 2, 2, 0),
        (["integral-criterion", family_spec], 65, 1, 0),
        (["geodesic", path_spec], 16, 1, 0),
        (["geodesic", torus_path_spec], 5, 0, 1),
        (["length", path_spec], 15, 1, 0),
        (["props", "--count", "8"], 156, 4, 0),
        (["contact", "upper", specs["phi"], "--knots", "3", "--restarts", "2"], 9, None, 0),
    ):
        scanned.clear()
        for r in runs.values():
            r.clear()
        assert main(argv) == 0
        assert len(scanned) == scans, argv[:2]
        assert circle_runs is None or len(runs["_newton_circle"]) == circle_runs, argv[:2]
        assert len(runs["_newton_torus"]) == torus_runs, argv[:2]
    capsys.readouterr()


def test_non_diffeomorphism_exit_3(capsys, tmp_path):
    # 1 + f' dips below zero: the map is rejected when it is built
    bad = {"displacement": dump_function(fn(0.0, [], [0.5]))}
    spec = _write(tmp_path, "bad.json", bad)
    identity = {"displacement": dump_function(fn(0.0))}
    cpath = _write(tmp_path, "bad_path.json", {"times": [0.0, 1.0], "knots": [identity, bad]})
    for argv in (["norm", spec], ["translated", spec], ["qa", cpath], ["upper", spec, "--restarts", "2"]):
        assert main(["contact", *argv]) == 3, argv[0]
    assert capsys.readouterr().out == ""


def test_output_bytes_are_deterministic(capsys, specs):
    main(["dist", specs["amp"], specs["zero"]])
    first = capsys.readouterr().out
    main(["dist", specs["amp"], specs["zero"]])
    second = capsys.readouterr().out
    assert first == second


def test_csv_output(capsys, specs):
    code = main(["dist", specs["amp"], specs["zero"], "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    header, row = out.splitlines()
    assert header == "case_id,ell_plus,ell_minus,d_spec,in_spectrum"
    assert row.startswith("pair,") and row.endswith(",True") and len(row.split(",")) == 5
    code = main(["length", specs["reversal"], "--format", "csv"])
    out = capsys.readouterr().out
    assert out.startswith("key,value")


def test_bad_config_exit_2(specs):
    assert main(["dist", specs["zero"], specs["zero"], "--tol", "1.0"]) == 2
