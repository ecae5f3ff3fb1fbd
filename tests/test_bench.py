"""The committed BENCH_<n>.json files have the schema scripts/bench.py writes.

No benchmark runs here: summarize is fed stand-in lines of perfbench/run.py's
output, and the document it builds is compared key for key with the newest
committed file.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _run_lines(kinds):
    """An (environment line, result line) pair with run.py's keys."""
    info = {
        "environment": {"python": "3", "numpy": "2", "nproc": 2, "affinity": 2, "threads": {}},
        "speed_scale": 1.0,
        "per_kind": {k: {"instances": 4, "p50_ms": 2.0} for k in kinds},
    }
    result = {
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {m: {"value": 1.0, "unit": "u"} for m in bench.METRICS},
    }
    return info, result


def _schema(doc):
    """The keys of a BENCH document at every level, workload and kind names aside."""
    return (
        sorted(doc),
        {
            (
                tuple(sorted(w)),
                tuple(sorted({k for run in w["runs"] for k in run})),
                tuple(sorted(w["end_to_end"])),
                tuple(sorted({k for s in w["end_to_end"].values() for k in s})),
                tuple(sorted({k for s in w["per_kind_p50_ms"].values() for k in s})),
            )
            for w in doc["workloads"].values()
        },
    )


def test_committed_bench_file_has_the_written_schema():
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert files, "no BENCH_<n>.json is committed"
    committed = json.loads(files[-1].read_text())
    assert set(committed["workloads"]) == set(bench.WORKLOADS)
    kinds = {w: list(entry["per_kind_p50_ms"]) for w, entry in committed["workloads"].items()}
    written = bench.summarize(
        {w: [_run_lines(kinds[w])] * 2 for w in committed["workloads"]},
        {"git_sha": "0" * 40, "git_dirty": False},
    )
    assert _schema(committed) == _schema(written)
    for entry in committed["workloads"].values():
        assert len(entry["runs"]) == committed["runs"]
        assert all(run["correct"] for run in entry["runs"])
        for stat in [*entry["end_to_end"].values(), *entry["per_kind_p50_ms"].values()]:
            assert stat["q1"] <= stat["median"] <= stat["q3"]
