"""Spans around calls into jetflat's public functions, recorded from outside.

``traced(recorder)`` rebinds each target in every ``jetflat.*`` module
namespace that holds it (and on the class, for methods), and restores the
originals on exit.  Spans go into flat in-memory arrays and are reduced
once the run ends: calls, total time (outermost spans of a name only, so
recursion is not counted twice) and self time (span time minus the time of
its direct child spans).
"""

from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

# "<module>.<name>" or "<module>.<Class>.<method>", relative to jetflat.
TARGETS = (
    "cli.main",
    "serialization.parse_function",
    "serialization.parse_path",
    "serialization.parse_contactomorphism",
    "serialization.canonical_json",
    "selectors.selectors",
    "selectors.sch_length",
    "selectors.axiom_suite",
    "jets.chord_spectrum",
    "jets.pointwise_leq",
    "geodesics.integral_criterion",
    "geodesics.minimizing_geodesic_check",
    "geodesics.local_quasi_autonomy_check",
    "geodesics.common_attaining_point",
    "geodesics.optimize_path",
    "geodesics._run_restart",
    "contact.spectral_norm",
    "contact.translated_points",
    "contact.graph_of",
    "contact.shelukhin_norm_upper",
    "fourier.attaining_set",
    "fourier.extremum",
    "fourier.sup_norm",
    "fourier.critical_set",
    "fourier.FourierFunction.values_on_grid",
    "fourier.FourierFunction.__call__",
    "fourier._newton_circle",
    "fourier._newton_torus",
    "fourier._ternary_max_circle",
    "fourier._bisect_root",
)


class Recorder:
    """Flat span store: one entry per call of a wrapped function.

    ``observers`` maps a target name to a callback that receives the return
    value, for counters that need more than the call itself.
    """

    def __init__(self, names: tuple[str, ...], observers: dict[str, Callable] | None = None):
        self.names = names
        self.observers = observers or {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("h")
        self.nested = array("b")  # an enclosing span has the same name
        self.instance = array("l")
        self.current_instance = -1
        self._open: list[int] = []
        self._depth = [0] * len(names)

    def wrap(self, fn: Callable, index: int) -> Callable:
        observe = self.observers.get(self.names[index])
        start, end, parent, name = self.start, self.end, self.parent, self.name
        nested, instance, open_, depth = self.nested, self.instance, self._open, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(open_[-1] if open_ else -1)
            name.append(index)
            nested.append(depth[index] > 0)
            instance.append(self.current_instance)
            end.append(0.0)
            depth[index] += 1
            open_.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_.pop()
                depth[index] -= 1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def reduce(self) -> dict[str, dict[str, float]]:
        """Per target name: calls, total_ms and self_ms over all spans."""
        k = len(self.names)
        if len(self.start) == 0:
            return {n: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for n in self.names}
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        name = np.array(self.name, dtype=np.int64)
        nested = np.array(self.nested, dtype=bool)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_ms": 1e3 * total[i], "self_ms": 1e3 * own[i]}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span once, as numpy arrays (times in seconds)."""
        t0 = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.array(self.start) - t0,
            end=np.array(self.end) - t0,
            parent=np.array(self.parent, dtype=np.int64),
            name=np.asarray(self.name, dtype=np.int16),
            instance=np.asarray(self.instance, dtype=np.int64),
        )


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None if it is absent."""
    parts = target.split(".")
    module = sys.modules.get("jetflat." + parts[0])
    owner = module
    for attr in parts[1:-1]:
        owner = getattr(owner, attr, None)
    if owner is None:
        return None
    original = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install wrappers for every target that exists; yield the absent ones."""
    rebound: list[tuple[object, str, object]] = []
    absent = []
    try:
        for index, target in enumerate(recorder.names):
            found = _resolve(target)
            if found is None:
                absent.append(target)
                continue
            owner, attr, original = found
            wrapper = recorder.wrap(original, index)
            if isinstance(owner, type):
                rebound.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "jetflat" and not mod_name.startswith("jetflat."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        rebound.append((module, key, original))
                        setattr(module, key, wrapper)
        yield absent
    finally:
        for owner, attr, original in reversed(rebound):
            setattr(owner, attr, original)
