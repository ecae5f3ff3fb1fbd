"""jetflat benchmark: seeded CLI workloads, timed end to end or traced by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 25 --trace 0

One client calls ``jetflat.cli.main(argv)`` in this process, in a closed
loop, with default flags.  Every output is checked against the dense-grid
reference (``reference.py``).  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and lists every failing instance.

--trace 0  end-to-end metrics: set-up time (median over fresh interpreters),
           throughput and CPU per instance (from per-kind medians), latency
           p50/p90, peak RSS and the share of instances that succeed.  No
           wrapper is installed.
--trace 1  per-layer metrics: the workload's first rounds are repeated
           untraced, then as often again traced (``spans.py``), giving
           calls, total and self time per wrapped function and instance,
           derived counters and the tracing overhead.  The spans are
           written to .perfbench_out/.

A run measures until ``--seconds`` of time inside ``cli.main`` has passed,
then finishes the current round.  Times are reported at a reference machine
speed: between instances a fixed pure-Python loop is timed, and every time
is scaled by REFERENCE_PROBE_S over its median (see ``_speed_probe``).  The
line before the result holds the scale and the unscaled end-to-end values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters set up before the measured one; set-up time is the
# median over all of them.
SETUP_PROBES = 2
# Median time of _speed_probe on the machine the bounds were set on (a shared
# 2-vCPU Xeon at 2.1 GHz); times are reported at that speed.  The probe runs
# between instances, about every PROBE_EVERY_S of time inside cli.main.
REFERENCE_PROBE_S = 8.5e-3
PROBE_EVERY_S = 0.25
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "JETFLAT_THREADS")


class LogCapture(logging.Handler):
    """Keeps the program's log lines of the current instance.

    Installed before the first ``cli.main`` call, so the CLI's own
    ``basicConfig`` leaves it in place; records are still formatted as the
    CLI would format them.
    """

    def __init__(self) -> None:
        super().__init__()
        self.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(self.format(record))


class Bench:
    """Set-up state: the CLI module, the workload's rounds and its spec dir."""

    def __init__(self, workload: str, seed: int) -> None:
        self.logs = LogCapture()
        logging.basicConfig(level=logging.INFO, handlers=[self.logs])
        import jetflat.cli

        import workloads

        if not Path(jetflat.cli.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"jetflat imported from {jetflat.cli.__file__}, not from {SRC}")
        self.cli = jetflat.cli
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=SCRATCH))
        self.rounds = workloads.build(workload, seed, self.dir)
        spec = workloads.WORKLOADS[workload]
        self.mix = spec.mix
        self.trace_rounds = self.rounds[: spec.trace_rounds]
        self.seed = seed
        self.failures: dict[tuple[str, int], str] = {}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def call(self, inst) -> tuple[float, float, str | None]:
        """Run one instance; (wall s, cpu s, problem or None)."""
        out = io.StringIO()
        self.logs.lines.clear()
        code, error = None, None
        t, c = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(inst.argv)
        except SystemExit as exc:  # argparse rejects its argv
            code = exc.code
        except Exception as exc:  # an instance may fail; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - t, process_time() - c
        if error is None and code != 0:
            error = f"exit code {code}: {' | '.join(self.logs.lines[-3:])}"
        if error is None:
            try:
                problems = inst.check(json.loads(out.getvalue()))
            except Exception as exc:  # a malformed report fails its instance
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
            error = "; ".join(problems) or None
        if error is not None:
            self.failures.setdefault((inst.kind, inst.pool_index), error)
        return wall, cpu, error

    def run_rounds(self, schedule, seconds=None, rounds=None, whole_cycles=False, recorder=None) -> dict:
        """Closed loop over the rounds of ``schedule``, cyclically.

        Stops after ``rounds`` rounds, or else at the end of the first round
        (or whole cycle of the schedule) once ``seconds`` of busy time passed.
        """
        multiple = len(schedule) if whole_cycles else 1
        lat, cpu, kinds, probe, failed, busy, r = [], [], [], [], 0, 0.0, 0
        while r < rounds if rounds is not None else (busy < seconds or r % multiple):
            for inst in schedule[r % len(schedule)]:
                if busy >= PROBE_EVERY_S * len(probe):
                    probe.append(_speed_probe())
                if recorder is not None:
                    recorder.current_instance = len(lat)
                wall, used, error = self.call(inst)
                kinds.append(inst.kind)
                lat.append(wall)
                cpu.append(used)
                busy += wall
                failed += error is not None
            r += 1
        return {
            "latency": lat, "cpu": cpu, "kinds": kinds, "probe": probe,
            "failed": failed, "busy": busy, "rounds": r,
        }


def _speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, independent of jetflat.

    Other tenants of a shared machine change its speed by up to 30% for
    minutes at a time, slowing the probe and the program alike; scaling
    times by REFERENCE_PROBE_S / probe cancels most of that (over ten seeds
    the spread of families throughput fell from 0.38 to 0.08).
    """
    t = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return perf_counter() - t


def set_up(workload: str, seed: int) -> tuple[float, Bench]:
    """Import jetflat, write the inputs, and run every instance kind once."""
    t0 = perf_counter()
    bench = Bench(workload, seed)
    try:
        first_of_kind: dict = {}
        for inst in bench.rounds[0]:
            first_of_kind.setdefault(inst.kind, inst)
        for inst in first_of_kind.values():
            bench.call(inst)
    except BaseException:
        bench.close()
        raise
    return perf_counter() - t0, bench


def probe_set_up(args) -> float:
    """Set-up time of a fresh interpreter running this same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _by_kind(res: dict, key: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for kind, value in zip(res["kinds"], res[key]):
        out.setdefault(kind, []).append(1e3 * value)
    return out


def per_kind(res: dict) -> dict:
    """Instances and median latency of each kind, for reading a result."""
    return {
        k: {"instances": len(v), "p50_ms": statistics.median(v)}
        for k, v in _by_kind(res, "latency").items()
    }


def speed_scale(res: dict) -> float:
    """Factor taking this run's times to the reference machine speed."""
    return REFERENCE_PROBE_S / statistics.median(res["probe"])


def end_to_end(res: dict, setup: list[float], mix: dict[str, int]) -> tuple[dict, dict]:
    """(metrics at reference speed, the same unscaled).

    Throughput and CPU come from per-kind medians weighted by the mix, so a
    few seconds of interference move them no more than the latency median.
    """
    n = len(res["latency"])
    lat_ms = [1e3 * x for x in res["latency"]]
    wall, cpu = _by_kind(res, "latency"), _by_kind(res, "cpu")
    per_round = sum(mix.values())
    round_ms = sum(c * statistics.median(wall[k]) for k, c in mix.items())
    round_cpu_ms = sum(c * statistics.median(cpu[k]) for k, c in mix.items())
    raw = {
        "setup_s": (statistics.median(setup), "s", 1),
        "throughput_per_s": (1e3 * per_round / round_ms, "1/s", -1),
        "latency_ms.p50": (statistics.median(lat_ms), "ms", 1),
        "latency_ms.p90": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms", 1),
        "cpu_ms_per_instance": (round_cpu_ms / per_round, "ms", 1),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 0),
        "success_ratio": ((n - res["failed"]) / n, "ratio", 0),
    }
    scale = speed_scale(res)
    metrics = {k: {"value": v * scale**power, "unit": u} for k, (v, u, power) in raw.items()}
    return metrics, {k: v for k, (v, _, _) in raw.items()}


def per_layer(bench: Bench, seconds: float, workload: str) -> tuple[dict, dict, list[str]]:
    """Untraced then traced cycles of the trace rounds; per-instance metrics."""
    import spans

    plain = bench.run_rounds(bench.trace_rounds, seconds=seconds / 2, whole_cycles=True)
    scan_points, excess = [0], []

    def on_grid(values):
        scan_points[0] += values.size

    def on_optimize(result):
        excess.extend(length - result.certified_lower for length in result.restart_lengths)

    recorder = spans.Recorder(spans.TARGETS, {
        "fourier.FourierFunction.values_on_grid": on_grid,
        "geodesics.optimize_path": on_optimize,
    })
    with spans.traced(recorder) as absent:
        traced = bench.run_rounds(bench.trace_rounds, rounds=plain["rounds"], recorder=recorder)
    OUT.mkdir(exist_ok=True)
    recorder.save(OUT / f"spans-{workload}-seed{bench.seed}.npz")

    n = len(traced["latency"])
    scale = speed_scale(traced)
    metrics = {}
    for name, agg in recorder.reduce().items():
        metrics[f"{name}.calls"] = (agg["calls"] / n, "count/instance")
        metrics[f"{name}.total_ms"] = (scale * agg["total_ms"] / n, "ms/instance")
        metrics[f"{name}.self_ms"] = (scale * agg["self_ms"] / n, "ms/instance")

    def calls(name: str) -> float:
        return metrics[f"fourier.{name}.calls"][0]

    newton = calls("_newton_circle") + calls("_newton_torus")
    fallbacks = calls("_ternary_max_circle") + calls("_bisect_root")
    metrics["fourier.scan_points"] = (scan_points[0] / n, "count/instance")
    metrics["fourier.fallback_ratio"] = (fallbacks / newton if newton else 0.0, "ratio")
    metrics["geodesics.restart_excess.p50"] = (statistics.median(excess) if excess else 0.0, "reeb_time")
    metrics["trace_overhead_ratio"] = (traced["busy"] / plain["busy"], "ratio")
    both = {k: plain[k] + traced[k] for k in ("latency", "kinds", "probe", "failed")}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, both, absent


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(load_before: tuple[float, ...]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("spectra", "families", "optimizer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "jetflat" / "__init__.py").is_file():
        print(f"no jetflat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    load_before = os.getloadavg()
    setup = [] if args.trace or args.setup_only else [probe_set_up(args) for _ in range(SETUP_PROBES)]
    elapsed, bench = set_up(args.workload, args.seed)
    setup.append(elapsed)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": elapsed}))
            return 0
        if args.trace:
            metrics, res, absent = per_layer(bench, args.seconds, args.workload)
            raw = None
        else:
            res = bench.run_rounds(bench.rounds, seconds=args.seconds)
            metrics, raw = end_to_end(res, setup, bench.mix)
            absent = []
    finally:
        bench.close()

    attempted = len(res["latency"])
    failures = [{"kind": k, "pool_index": i, "seed": args.seed, "problem": p}
                for (k, i), p in sorted(bench.failures.items())]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_ratio": res["failed"] / attempted,
        "per_kind": per_kind(res),
        "failures": failures,
        "absent_targets": absent,
        "setup_samples_s": setup,
        "speed_probe_ms_p50": 1e3 * statistics.median(res["probe"]),
        "speed_scale": speed_scale(res),
        "unscaled_metrics": raw,
        "environment": environment(load_before),
    }))
    print(json.dumps({
        "correct": res["failed"] == 0 and not failures,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
