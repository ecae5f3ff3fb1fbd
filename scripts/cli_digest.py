#!/usr/bin/env python3
"""Digest of the command line's stdout on seeded specs, one run per mode.

Builds specs with jetflat.sampling from one seed, runs every subcommand and
mode through cli.main in-process, and prints one line per run, ``name exit
sha256[:16]`` of its stdout, then the digest of all those lines.  Two
source trees that print the same combined digest give the same exit code
and the same stdout bytes on every run, so a refactor that must not change
any output can be checked against its parent tree:

    PYTHONPATH=<tree>/src python3 scripts/cli_digest.py --seed 1

Logs are not part of the digest and are switched off.
"""

import argparse
import contextlib
import hashlib
import io
import json
import logging
import sys
import tempfile
from pathlib import Path

import numpy as np

from jetflat import cli, sampling, serialization
from jetflat.contact import CircleContactomorphism
from jetflat.fourier import CIRCLE, TORUS2
from jetflat.paths import IsotopyPath


def _runs(seed: int, out: Path) -> list[tuple[str, list[str]]]:
    rng = np.random.default_rng(seed)

    def write(name: str, doc: dict) -> str:
        p = out / f"{name}.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def function(name: str, domain, degree: int) -> str:
        f = sampling.random_function(rng, domain, degree)
        return write(name, serialization.dump_function(f))

    pairs = {
        "s1": (function("f-s1", CIRCLE, 6), function("g-s1", CIRCLE, 6)),
        "t2": (function("f-t2", TORUS2, 3), function("g-t2", TORUS2, 3)),
    }
    path = write("path", serialization.dump_path(sampling.random_path(rng, 6)))
    qa_path = write("qa-path", serialization.dump_path(sampling.random_quasi_autonomous_path(rng, 6)))
    monotone = write("monotone", serialization.dump_path(sampling.random_monotone_path(rng, 4)))
    h = sampling.random_function(rng, CIRCLE, 5, amplitude=0.4)
    ts = np.linspace(0.0, 1.0, 16)
    family = IsotopyPath(knots=tuple(float(lam) * h for lam in rng.uniform(0.2, 1.5, 16)), times=tuple(ts))
    family_spec = write("family", serialization.dump_path(family))
    phi = sampling.random_contactomorphism(rng, degree=6, c1_target=0.4)
    phi_spec = write("phi", serialization.dump_contactomorphism(phi))
    maps = [CircleContactomorphism(t * phi.displacement) for t in (0.0, 0.5, 1.0)]
    contact_path = write(
        "contact-path",
        {"times": [0.0, 0.5, 1.0], "knots": [serialization.dump_contactomorphism(m) for m in maps]},
    )
    # drawn last, so that every earlier spec keeps its bytes
    torus_path = write("torus-path", serialization.dump_path(sampling.random_path(rng, 4, TORUS2, 3)))

    runs = []
    for domain, (f, g) in pairs.items():
        for fmt in ("json", "csv"):
            runs.append((f"dist-{domain}-{fmt}", ["dist", f, g, "--format", fmt]))
            runs.append((f"spectrum-{domain}-{fmt}", ["spectrum", f, g, "--format", fmt]))
    short = ["--knots", "3", "--restarts", "2"]
    runs += [
        ("geodesic-random", ["geodesic", path]),
        ("geodesic-qa", ["geodesic", qa_path]),
        ("geodesic-optimize", ["geodesic", path, "--mode", "optimize", *short]),
        ("props", ["props", "--count", "4", "--seed", str(seed)]),
        ("monotone", ["monotone", monotone]),
        ("length", ["length", path]),
        ("integral-criterion", ["integral-criterion", family_spec]),
        ("contact-norm", ["contact", "norm", phi_spec]),
        ("contact-translated", ["contact", "translated", phi_spec]),
        ("contact-qa", ["contact", "qa", contact_path]),
        ("contact-upper", ["contact", "upper", phi_spec, *short]),
        ("geodesic-t2", ["geodesic", torus_path]),
        ("geodesic-optimize-t2", ["geodesic", torus_path, "--mode", "optimize", *short]),
        # the benchmark's optimizer setting: default --knots and --restarts
        ("geodesic-optimize-default", ["geodesic", path, "--mode", "optimize"]),
        ("geodesic-optimize-t2-default", ["geodesic", torus_path, "--mode", "optimize"]),
        ("contact-upper-default", ["contact", "upper", phi_spec]),
    ]
    return runs


def _run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, buf.getvalue().encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    logging.disable(logging.CRITICAL)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in _runs(args.seed, Path(tmp)):
            code, stdout = _run(argv)
            lines.append(f"{name} {code} {hashlib.sha256(stdout).hexdigest()[:16]}")
            print(lines[-1], flush=True)
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    print(f"combined {combined}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
