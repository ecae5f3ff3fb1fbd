"""JSON schemas for functions, paths, and contactomorphisms.

Function spec (circle):   {"domain": "S1", "a0": n, "cos": [...], "sin": [...]}
Function spec (torus):    {"domain": "T2", "coeffs": {"a0": n, "cc": [[...]],
                           "cs": [[...]], "sc": [[...]], "ss": [[...]]}}
Path spec:                {"times": [0, ..., 1], "knots": [<function>, ...]}
Contactomorphism spec:    {"displacement": <function>}
Contact path spec:        {"times": [...], "knots": [<contactomorphism>, ...]}

Truncation degrees are inferred from array lengths; all entries must be
finite numbers.  Dumps are canonical: sorted keys, minimal separators, so
identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .contact import CircleContactomorphism
from .errors import SpecParseError
from .fourier import CIRCLE, FourierFunction
from .paths import IsotopyPath


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SpecParseError(msg)


def _finite(v: Any, msg: str) -> float:
    """v as a float; JSON booleans are not numbers, although bool is an int subclass."""
    _require(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v), msg)
    return float(v)


def _finite_list(obj: Any, name: str) -> list[float]:
    _require(isinstance(obj, (list, tuple)), f"{name} must be an array")
    return [_finite(v, f"{name} entries must be finite numbers") for v in obj]


def _finite_matrix(obj: Any, name: str) -> np.ndarray:
    _require(isinstance(obj, (list, tuple)) and obj, f"{name} must be a non-empty matrix")
    rows = [_finite_list(r, name) for r in obj]
    width = len(rows[0])
    _require(all(len(r) == width for r in rows), f"{name} rows must have equal length")
    return np.array(rows)


def parse_function(obj: Any) -> FourierFunction:
    _require(isinstance(obj, dict), "function spec must be an object")
    domain = obj.get("domain")
    if domain == "S1":
        a0 = _finite(obj.get("a0", 0.0), "a0 must be a finite number")
        cos = _finite_list(obj.get("cos", []), "cos")
        sin = _finite_list(obj.get("sin", []), "sin")
        return FourierFunction.from_circle_coeffs(a0, cos, sin)
    if domain == "T2":
        coeffs = obj.get("coeffs")
        _require(isinstance(coeffs, dict), "T2 spec needs a coeffs object")
        a0 = _finite(coeffs.get("a0", 0.0), "a0 must be a finite number")
        blocks = {}
        size = None
        for key in ("cc", "cs", "sc", "ss"):
            if key in coeffs:
                blocks[key] = _finite_matrix(coeffs[key], key)
                _require(blocks[key].shape[0] == blocks[key].shape[1], f"{key} must be square")
                size = blocks[key].shape[0] if size is None else size
                _require(blocks[key].shape[0] == size, "coefficient blocks must share one size")
        _require(size is not None, "T2 spec needs at least one of cc/cs/sc/ss")
        zero = np.zeros((size, size))
        return FourierFunction.from_torus_coeffs(
            a0,
            blocks.get("cc", zero),
            blocks.get("cs", zero),
            blocks.get("sc", zero),
            blocks.get("ss", zero),
        )
    raise SpecParseError(f"unknown domain {domain!r} (expected 'S1' or 'T2')")


def dump_function(f: FourierFunction) -> dict:
    if f.domain.kind == "S1":
        a0, a, b = f.circle_cos_sin()
        return {"domain": "S1", "a0": a0, "cos": list(a), "sin": list(b)}
    a0, cc, cs, sc, ss = f.torus_blocks()
    return {
        "domain": "T2",
        "coeffs": {
            "a0": a0,
            "cc": cc.tolist(),
            "cs": cs.tolist(),
            "sc": sc.tolist(),
            "ss": ss.tolist(),
        },
    }


def parse_path(obj: Any) -> IsotopyPath:
    _require(isinstance(obj, dict), "path spec must be an object")
    times = _finite_list(obj.get("times"), "times")
    knots_raw = obj.get("knots")
    _require(isinstance(knots_raw, list) and len(knots_raw) >= 2, "path needs >= 2 knots")
    knots = tuple(parse_function(k) for k in knots_raw)
    return IsotopyPath(knots=knots, times=tuple(times))


def dump_path(path: IsotopyPath) -> dict:
    return {"times": list(path.times), "knots": [dump_function(k) for k in path.knots]}


def parse_contactomorphism(obj: Any) -> CircleContactomorphism:
    _require(isinstance(obj, dict) and "displacement" in obj, "contactomorphism spec needs a displacement")
    f = parse_function(obj["displacement"])
    _require(f.domain == CIRCLE, "contactomorphism displacement must live on S1")
    return CircleContactomorphism(f)


def dump_contactomorphism(phi: CircleContactomorphism) -> dict:
    return {"displacement": dump_function(phi.displacement)}


def parse_contact_path(obj: Any) -> tuple[list[CircleContactomorphism], list[float]]:
    _require(isinstance(obj, dict), "contact path spec must be an object")
    times = _finite_list(obj.get("times"), "times")
    knots_raw = obj.get("knots")
    _require(isinstance(knots_raw, list) and len(knots_raw) >= 2, "contact path needs >= 2 knots")
    maps = [parse_contactomorphism(k) for k in knots_raw]
    return maps, times


def canonical_json(obj: Any) -> str:
    """Deterministic rendering: same object, same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
