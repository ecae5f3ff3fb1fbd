"""Batch command line: parse JSON specs, dispatch computations, emit reports.

Reports go to stdout (canonical JSON by default, CSV on request); logs go
to stderr.  Exit codes: 0 when every property the command asserts holds,
1 on a failed assertion or cross-check, 2 on unreadable/invalid input
documents, 3 on domain mismatches and malformed geometry.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from functools import cache
from typing import Any

import numpy as np

from .config import EQUALITY_TOL
from .contact import contact_qa_check, shelukhin_norm_upper, spectral_norm, translated_points
from .errors import (
    CrossCheckMismatch,
    DimensionMismatch,
    EquivalenceViolation,
    MalformedPath,
    NotADiffeomorphism,
    SpecParseError,
    ViolationReport,
)
from .geodesics import (
    integral_criterion,
    minimizing_geodesic_check,
    monotone_check,
    optimize_path,
)
from .jets import JetLegendrian, chord_spectrum
from .sampling import random_legendrian
from .selectors import axiom_suite, sch_length, selectors
from .serialization import (
    canonical_json,
    dump_path,
    parse_contact_path,
    parse_contactomorphism,
    parse_function,
    parse_path,
)

log = logging.getLogger("jetflat")

SELECTOR_CSV_COLUMNS = ("case_id", "ell_plus", "ell_minus", "d_spec", "in_spectrum")

CSV_HELP = (
    "CSV columns: 'dist' emits (%s); 'spectrum' emits (index, length); "
    "other commands emit flattened (key, value) rows." % ", ".join(SELECTOR_CSV_COLUMNS)
)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _flat_rows(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    rows: list[tuple[str, Any]] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flat_rows(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flat_rows(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _emit(report: dict, fmt: str, csv_rows: list[list] | None = None) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if csv_rows is not None:
        writer.writerows(csv_rows)
    else:
        writer.writerow(("key", "value"))
        for key, value in _flat_rows(report):
            writer.writerow((key, value if not isinstance(value, float) else repr(value)))
    sys.stdout.write(buf.getvalue())


def _cmd_dist(args) -> tuple[dict, bool, list[list] | None]:
    f = parse_function(_load_json(args.f_spec))
    g = parse_function(_load_json(args.g_spec))
    r = selectors(JetLegendrian(f), JetLegendrian(g), membership_tol=args.tol)
    report = {
        "ell_plus": r.ell_plus,
        "ell_minus": r.ell_minus,
        "d_spec": r.d_spec,
        "plus_in_spectrum": r.plus_in_spectrum,
        "minus_in_spectrum": r.minus_in_spectrum,
    }
    ok = r.in_spectrum and r.ell_minus <= r.ell_plus + args.tol and r.d_spec >= -args.tol
    rows = [
        list(SELECTOR_CSV_COLUMNS),
        ["pair", repr(r.ell_plus), repr(r.ell_minus), repr(r.d_spec), r.in_spectrum],
    ]
    return report, ok, rows


def _cmd_spectrum(args) -> tuple[dict, bool, list[list] | None]:
    f = parse_function(_load_json(args.f_spec))
    g = parse_function(_load_json(args.g_spec))
    spec = chord_spectrum(JetLegendrian(f), JetLegendrian(g), tol=args.tol)
    report = {"lengths": list(spec.lengths), "plateau": spec.plateau, "tolerance": args.tol}
    rows = [["index", "length"]] + [[i, repr(v)] for i, v in enumerate(spec.lengths)]
    return report, True, rows


def _cmd_geodesic(args) -> tuple[dict, bool, list[list] | None]:
    path = parse_path(_load_json(args.path_spec))
    if args.mode == "check":
        rep = minimizing_geodesic_check(path, tol=args.tol)
        return rep.to_json_dict(), not rep.cross_check_mismatch, None
    result = optimize_path(
        path.knots[0], path.knots[-1], knots=args.knots, restarts=args.restarts, seed=args.seed
    )
    report = {
        "best_length": result.length,
        "d_spec": result.certified_lower,
        "gap": result.gap,
        "knots": args.knots,
        "restarts": args.restarts,
        "seed": args.seed,
        "path": dump_path(result.path),
    }
    return report, result.gap >= -1e-9, None


def _cmd_props(args) -> tuple[dict, bool, list[list] | None]:
    if args.count < 2:
        raise SpecParseError("props needs count >= 2")
    if args.degree < 1:
        raise SpecParseError("props needs degree >= 1")
    rng = np.random.default_rng(args.seed)
    sample = [random_legendrian(rng, degree=args.degree) for _ in range(args.count)]
    report = axiom_suite(sample, tol=args.tol, membership_tol=args.tol)
    return report.to_json_dict(), report.all_pass, None


def _cmd_monotone(args) -> tuple[dict, bool, list[list] | None]:
    path = parse_path(_load_json(args.path_spec))
    verdict = monotone_check(path)
    report = {"monotone": verdict, "segments": path.n_segments}
    return report, True, None


def _cmd_length(args) -> tuple[dict, bool, list[list] | None]:
    path = parse_path(_load_json(args.path_spec))
    return {"sch_length": sch_length(path)}, True, None


def _cmd_integral(args) -> tuple[dict, bool, list[list] | None]:
    family = parse_path(_load_json(args.family_spec))
    rep = integral_criterion(family, tol=args.tol)
    return rep.to_json_dict(), True, None


def _cmd_contact(args) -> tuple[dict, bool, list[list] | None]:
    if args.sub == "qa":
        maps, times = parse_contact_path(_load_json(args.spec))
        witness = contact_qa_check(maps, times, args.tol)
        return {"qa_witness": None if witness is None else witness.to_json_dict()}, True, None
    if args.sub == "upper":
        phi = parse_contactomorphism(_load_json(args.spec))
        upper = shelukhin_norm_upper(phi, knots=args.knots, restarts=args.restarts, seed=args.seed)
        norm = spectral_norm(phi, tol=args.tol).norm  # asserts spectrality, logs the C1 advisory
        gap = upper - norm
        report = {"upper": upper, "spectral_norm": norm, "gap": gap}
        return report, gap <= 1e-4, None
    phi = parse_contactomorphism(_load_json(args.spec))
    if args.sub == "norm":
        r = spectral_norm(phi, tol=args.tol)
        report = {
            "c_plus": r.c_plus,
            "c_minus": r.c_minus,
            "norm": r.norm,
            "c1_advisory": r.c1_advisory,
        }
        return report, True, None
    spec = translated_points(phi, tol=args.tol)
    return {"translations": list(spec.lengths), "plateau": spec.plateau}, True, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetflat",
        description="Spectral selectors, chord spectra, sup-norm geodesics and "
        "circle-contactomorphism norms for truncated-Fourier data.",
        epilog=CSV_HELP,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    tolerant = argparse.ArgumentParser(add_help=False)  # for the commands that compare at a tolerance
    tolerant.add_argument("--tol", type=float, default=EQUALITY_TOL, help="equality/membership tolerance")
    seeded = argparse.ArgumentParser(add_help=False)  # for the commands that draw random numbers
    seeded.add_argument("--seed", type=int, default=0, help="seed of the random Legendrians or restarts")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[common, tolerant], help="selectors and spectral distance of two function specs")
    p.add_argument("f_spec")
    p.add_argument("g_spec")

    p = sub.add_parser("spectrum", parents=[common, tolerant], help="Reeb-chord spectrum of two function specs")
    p.add_argument("f_spec")
    p.add_argument("g_spec")

    p = sub.add_parser("geodesic", parents=[common, tolerant, seeded], help="geodesic check or path optimization")
    p.add_argument("path_spec")
    p.add_argument("--mode", choices=("check", "optimize"), default="check")
    p.add_argument("--knots", type=int, default=6)
    p.add_argument("--restarts", type=int, default=16)

    p = sub.add_parser("props", parents=[common, tolerant, seeded], help="selector axiom suite on random Legendrians")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--degree", type=int, default=8, help="truncation degree of the random Legendrians")

    p = sub.add_parser("monotone", parents=[common], help="monotonicity check of a path spec")
    p.add_argument("path_spec")

    p = sub.add_parser("length", parents=[common], help="sup-norm length of a path")
    p.add_argument("path_spec")

    p = sub.add_parser("integral-criterion", parents=[common, tolerant], help="integrated sup-norm equality test for a sampled family")
    p.add_argument("family_spec")

    p = sub.add_parser("contact", parents=[common, tolerant, seeded], help="circle contactomorphism computations")
    p.add_argument("sub", choices=("norm", "translated", "qa", "upper"))
    p.add_argument("spec")
    p.add_argument("--knots", type=int, default=6)
    p.add_argument("--restarts", type=int, default=16)

    return parser


_parser = cache(build_parser)  # one parser per process: parsing never changes it


_DISPATCH = {
    "dist": _cmd_dist,
    "spectrum": _cmd_spectrum,
    "geodesic": _cmd_geodesic,
    "props": _cmd_props,
    "monotone": _cmd_monotone,
    "length": _cmd_length,
    "integral-criterion": _cmd_integral,
    "contact": _cmd_contact,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    args = _parser().parse_args(argv)
    if hasattr(args, "tol") and not 0.0 < args.tol <= 1e-3:
        log.error("bad configuration: tolerance must lie in (0, 1e-3]")
        return 2
    try:
        report, ok, rows = _DISPATCH[args.command](args)
    except (DimensionMismatch, MalformedPath, NotADiffeomorphism) as exc:
        log.error("geometry error: %s", exc)
        return 3
    except (SpecParseError, json.JSONDecodeError, OSError, ValueError) as exc:
        log.error("input error: %s", exc)
        return 2
    except (EquivalenceViolation, CrossCheckMismatch, ViolationReport) as exc:
        log.error("check failed: %s", exc)
        return 1
    _emit(report, args.format, rows if args.format == "csv" else None)
    if not ok:
        log.error("asserted properties failed in command %r", args.command)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
