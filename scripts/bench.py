#!/usr/bin/env python3
"""Repeated benchmark runs summarized into one BENCH_<n>.json.

Runs ``perfbench/run.py --trace 0`` ``--runs`` times per workload, each in
its own interpreter, with the workloads interleaved run by run so that a
slow spell of a shared machine falls on all of them.  Every run lasts
``run_seconds`` of ``BENCHMARK.json`` and uses the seed ``SEED``, so the runs
differ only by timing and two files of one machine are comparable.  The
JSON written to ``--out`` holds:

- the git sha of HEAD and whether the tracked files differ from it, the
  Python and numpy versions, ``nproc``, the CPU affinity, the thread
  variables, the command, seconds, seed and number of runs;
- per workload, each run's speed scale (``run.py`` reports every time at a
  reference machine speed), correctness and instance counts;
- per workload, the median and quartiles over the runs of every end-to-end
  metric of ``BENCHMARK.json``, and of the p50 latency of each instance
  kind, scaled to the reference speed like the end-to-end metrics.

From the root of a source checkout:

    python3 scripts/bench.py --runs 5 --out BENCH_<n>.json

A speed claim compares two such files written on the same machine.  The
tier-1 time and the acceptance criteria's times are not recorded yet.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
METRICS = tuple(m["name"] for m in SPEC["end_to_end"])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run_once(workload: str) -> tuple[dict, dict]:
    """One run.py --trace 0 run in a fresh interpreter: its (environment line, result line)."""
    cmd = [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def _stats(values: list[float], unit: str) -> dict:
    """Median and quartiles (inclusive method; a single value is all three)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"unit": unit, "median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[tuple[dict, dict]]], head: dict) -> dict:
    """The BENCH document of runs[workload] = [(environment line, result line), ...].

    head holds the git sha and dirty flag; the versions, nproc and threads
    come from the first run's environment line.
    """
    env = next(iter(runs.values()))[0][0]["environment"]
    doc = {
        **head,
        "python": env["python"],
        "numpy": env["numpy"],
        "nproc": env["nproc"],
        "affinity": env["affinity"],
        "threads": {v: env["threads"].get(v) for v in THREAD_VARS},
        "command": SPEC["command"] + ["--trace", "0"],
        "seconds": SPEC["run_seconds"],
        "seed": SEED,
        "runs": max(len(r) for r in runs.values()),
        "workloads": {},
    }
    for workload, pairs in runs.items():
        kinds = sorted({k for info, _ in pairs for k in info["per_kind"]})
        doc["workloads"][workload] = {
            "runs": [
                {"speed_scale": info["speed_scale"], "correct": res["correct"],
                 "attempted": res["attempted"], "failed": res["failed"]}
                for info, res in pairs
            ],
            "end_to_end": {
                m: _stats([res["metrics"][m]["value"] for _, res in pairs], pairs[0][1]["metrics"][m]["unit"])
                for m in METRICS
            },
            "per_kind_p50_ms": {
                k: _stats([info["speed_scale"] * info["per_kind"][k]["p50_ms"] for info, _ in pairs
                           if k in info["per_kind"]], "ms")
                for k in kinds
            },
        }
    return doc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="the JSON file to write, BENCH_<n>.json")
    ap.add_argument("--runs", type=int, default=5, help="runs per workload")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    head = {"git_sha": _git("rev-parse", "HEAD"), "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    runs: dict[str, list[tuple[dict, dict]]] = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        for w in WORKLOADS:
            runs[w].append(run_once(w))
            tp = runs[w][-1][1]["metrics"]["throughput_per_s"]["value"]
            print(f"run {i + 1}/{args.runs} {w}: throughput {tp:.2f}/s", file=sys.stderr)
    doc = summarize(runs, head)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
