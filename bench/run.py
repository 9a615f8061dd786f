#!/usr/bin/env python3
"""Benchmark of the ecdrive experiment runner, end to end and per layer.

Run from the root of an ecdrive checkout:

    python3 bench/run.py --workload highway_sweep --seed 0 --seconds 20 --trace 0

The benchmark builds the workload's experiment config from ``--seed``, then
repeats ``ecdrive run <config>`` and ``ecdrive summarize <traces> --out
<csv>`` in-process through ``ecdrive.cli.main`` for ``--seconds`` seconds,
checking every episode's outputs. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repeats and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object; the lines before it are the
environment block and each metric's median, quartiles and sample count.
Everything it writes goes under ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

import workloads as wl
from hostspeed import REFERENCE_S, HostSpeed, Timed
from tracer import Tracer

OUT = Path(".bench_out")
EXPECTED_PATH = Path(__file__).with_name("expected.json")
SETUP_REPEATS = 5
# Seconds of ``summarize`` calls after each untraced run. Each call is one
# sample: ~15 ms on corridor_mmd, ~150 ms on highway_sweep.
SUMMARIZE_BUDGET_S = 0.5
# A fresh interpreter imports ecdrive.cli and validates the config, then
# notes the time and runs the calibration units itself: units timed in the
# child track the child's host speed better than units the parent runs
# around it.
SETUP_CODE = """
import sys, time
sys.path.insert(0, "src")
import ecdrive.cli
rc = ecdrive.cli.main(["validate", sys.argv[1]])
done = time.perf_counter()
sys.path.append(sys.argv[2])
import hostspeed
print(done, hostspeed.calibrate(5))
sys.exit(rc)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_cli():
    """Import ``ecdrive.cli`` from ``src/`` of the working directory only."""
    src = Path("src").resolve()
    if not (src / "ecdrive" / "cli.py").is_file():
        raise BenchError("src/ecdrive/cli.py not found: run from the root of an ecdrive checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ecdrive.cli

    if Path(ecdrive.cli.__file__).resolve().parent != src / "ecdrive":
        raise BenchError(f"imported ecdrive from {ecdrive.cli.__file__}, not from {src}")
    return ecdrive.cli


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if not values:  # nothing succeeded; the non-finite value fails the result
        return math.nan, math.nan, math.nan
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def episode_facts(data: bytes) -> dict:
    """Counts read straight from one JSONL trace, independent of its summary."""
    records = [json.loads(line) for line in data.splitlines()[1:] if line.strip()]
    cloud = [r for r in records if r["cloud_decision"] is not None]
    tests = [r["drift_report"] for r in records if r["drift_report"] is not None]
    return {
        "records": len(records),
        "offloads": sum(1 for r in records if r["offloaded"]),
        "collisions": sum(1 for r in records if r["collision"]),
        "total_bytes_up": sum(r["bytes_up"] for r in records),
        "drift_tests": len(tests),
        "drift_flags": sum(1 for t in tests if t["is_drift"]),
        "cloud_calls": len(cloud),
        "cloud_changed": sum(
            1 for r in cloud if r["cloud_decision"]["action"] != r["edge_decision"]["action"]
        ),
        "bytes": len(data),
    }


EXPECTED_KEYS = ("offloads", "collisions", "total_bytes_up", "records")


class Timing(NamedTuple):
    """Seconds of one repeat's ``run`` and of each of its ``summarize`` calls."""

    run: Timed
    summarize: list[Timed]


class Workload:
    """One workload's config on disk plus the checks on its outputs."""

    def __init__(self, cli, name: str, seed: int, tiny: bool = False,
                 expected: dict | None = None):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.dir = OUT / (f"{name}-tiny" if tiny else name)
        self.traces = self.dir / "traces"
        self.config = wl.build_config(name, seed, str(self.traces), tiny)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1), encoding="utf-8")
        self.csv_path = self.dir / "summary.csv"
        self.steps = self.config["steps"]
        self.scenario = self.config["scenario"]["name"]
        self.episodes = [(m, s) for m in self.config["modes"] for s in self.config["seeds"]]
        self.expected = expected
        self.digests: dict | None = None
        self.facts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def warm_up(self, speed: HostSpeed) -> None:
        """Run the tiny version of this workload once, untimed; its failures count."""
        warm = Workload(self.cli, self.name, self.seed, tiny=True)
        warm.repeat(speed, 0.0)
        self.attempted += warm.attempted
        self.failed += warm.failed
        self.problems += warm.problems

    @property
    def steps_per_run(self) -> int:
        return len(self.episodes) * self.steps

    def _call(self, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # an episode crash is a counted failure
                print(f"{type(exc).__name__}: {exc}", file=err)
                rc = -1
        if rc != 0:
            self.problems.append(f"ecdrive {argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
        return rc

    def repeat(self, speed: HostSpeed, summarize_budget_s: float) -> Timing:
        """One ``run``, then ``summarize`` until the budget is spent; checks both."""
        shutil.rmtree(self.traces, ignore_errors=True)
        rc_run, run = speed.time(self._call, ["run", str(self.config_path)])
        argv = ["summarize", str(self.traces / "*.jsonl"), "--out", str(self.csv_path)]
        summarize: list[Timed] = []
        rc_sum = 0
        start = time.perf_counter()
        while True:
            rc, timed = speed.time(self._call, argv)
            rc_sum = rc_sum or rc
            summarize.append(timed)
            if time.perf_counter() - start >= summarize_budget_s:
                break
        self._check(rc_run, rc_sum)
        return Timing(run, summarize)

    def _check(self, rc_run: int, rc_sum: int) -> None:
        """Count each episode whose outputs are missing, wrong or not repeatable."""
        bad: set = set()
        if rc_run != 0 or rc_sum != 0:
            bad.update(self.episodes)
        rows = {}
        if rc_sum == 0:
            with open(self.csv_path, newline="", encoding="utf-8") as handle:
                rows = {(r["mode"], r["seed"]): r for r in csv.DictReader(handle)}
        first = self.digests is None
        digests = {}
        for mode, seed in self.episodes:
            key = f"{mode}/{seed}"
            path = self.traces / self.cli.trace_filename(self.scenario, mode, seed)
            if not path.is_file():
                bad.add((mode, seed))
                continue
            data = path.read_bytes()
            digests[key] = hashlib.sha256(data).hexdigest()
            if first:
                self.facts[key] = episode_facts(data)
            elif digests[key] != self.digests.get(key):
                self.problems.append(f"{key}: trace differs from the first repeat")
                bad.add((mode, seed))
                continue
            facts = self.facts.get(key)
            if facts is None:
                bad.add((mode, seed))
                continue
            if facts["records"] != self.steps:
                self.problems.append(f"{key}: {facts['records']} records, expected {self.steps}")
                bad.add((mode, seed))
            row = rows.get((mode, str(seed)))
            if rc_sum == 0 and (
                row is None
                or int(row["total_bytes_up"]) != facts["total_bytes_up"]
                or int(row["collision_count"]) != facts["collisions"]
                or round(float(row["offload_rate"]) * self.steps) != facts["offloads"]
            ):
                self.problems.append(f"{key}: summarize row disagrees with the trace")
                bad.add((mode, seed))
            if self.expected is not None:
                want = self.expected.get(key)
                got = {k: facts[k] for k in EXPECTED_KEYS}
                if want != got:
                    self.problems.append(f"{key}: got {got}, committed {want}")
                    bad.add((mode, seed))
        if first:
            self.digests = digests
        self.attempted += len(self.episodes)
        self.failed += len(bad)

    def fact_total(self, key: str) -> int:
        return sum(f[key] for f in self.facts.values())


def committed(name: str, seed: int, tiny: bool) -> dict | None:
    """Committed per-episode counts, which exist for the default seed only."""
    if seed != wl.DEFAULT_SEED or tiny:
        return None
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[name]


def measure_setup(config_path: Path) -> tuple[list[Timed], list[str]]:
    """Time fresh interpreters from start until ``validate`` returns.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's timestamp is comparable with the parent's start time.
    """
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(config_path),
            str(Path(__file__).resolve().parent)]
    timings, problems = [], []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or lines[:1] != ["ok"] or len(lines) != 3:
            problems.append(f"validate exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        if i > 0:  # the first start compiles bytecode and fills the file cache
            elapsed = float(lines[1]) - start
            timings.append(Timed(elapsed, elapsed * REFERENCE_S / float(lines[2])))
    return timings, problems


def blas_threads() -> str:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({ln.split()[-1] for ln in maps.splitlines()
                   if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "commit": commit,
    }


def report(name: str, unit: str, scaled: list[float], raw: list[float], lines: list[str]) -> dict:
    """Median of the scaled samples, logged with quartiles and the unscaled median."""
    q1, median, q3 = quartiles(scaled)
    lines.append(
        f"{name}: median {median:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(scaled)}; "
        f"unscaled median {quartiles(raw)[1]:.6g})"
    )
    return {"value": median, "unit": unit}


def report_rate(name: str, unit: str, work: float, timings: list[Timed], lines: list[str]) -> dict:
    return report(name, unit, [work / t.scaled for t in timings],
                  [work / t.seconds for t in timings], lines)


def calibration_line(speed: HostSpeed) -> str:
    q1, median, q3 = quartiles(speed.calibrations())
    return (f"host calibration unit: median {median * 1e3:.3f} ms (q1 {q1 * 1e3:.3f}, "
            f"q3 {q3 * 1e3:.3f}, n={len(speed.calibrations())}); "
            f"timings scaled to a {REFERENCE_S * 1e3:.3f} ms unit")


def end_to_end(cli, name: str, seed: int, seconds: float, tiny: bool, lines: list[str]):
    work = Workload(cli, name, seed, tiny, committed(name, seed, tiny))
    setup, setup_problems = measure_setup(work.config_path)
    work.problems += setup_problems
    speed = HostSpeed()
    with speed.sampling():
        work.warm_up(speed)

        timings: list[Timing] = []
        deadline = time.perf_counter() + seconds
        while True:
            timings.append(work.repeat(speed, SUMMARIZE_BUDGET_S))
            if time.perf_counter() >= deadline:
                break

    steps = work.steps_per_run
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "run_steps_per_s": report_rate(
            "run_steps_per_s", "steps/s", steps, [t.run for t in timings], lines),
        "summarize_records_per_s": report_rate(
            "summarize_records_per_s", "records/s", steps,
            [call for t in timings for call in t.summarize], lines),
        "setup_s": report(
            "setup_s", "s", [t.scaled for t in setup], [t.seconds for t in setup], lines),
        "peak_rss_mb": report("peak_rss_mb", "MB", [peak_mb], [peak_mb], lines),
    }
    lines.append(f"ops_failed_frac: {work.failed}/{work.attempted} episodes")
    lines.append(calibration_line(speed))
    return work, metrics


def per_layer(cli, name: str, seed: int, seconds: float, tiny: bool, lines: list[str]):
    work = Workload(cli, name, seed, tiny, committed(name, seed, tiny))
    speed = HostSpeed()
    untraced: list[Timing] = []
    traced: list[Timing] = []
    counts = []
    calls_total, self_total = Counter(), Counter()
    tracer = None
    with speed.sampling():
        work.warm_up(speed)
        deadline = time.perf_counter() + seconds
        while True:
            if len(untraced) <= len(traced):
                untraced.append(work.repeat(speed, 0.0))
            else:
                tracer = Tracer()
                with tracer.installed():
                    traced.append(work.repeat(speed, 0.0))
                calls, self_ns = tracer.layer_totals()
                counts.append(dict(calls))
                calls_total += calls
                self_total += self_ns
            if traced and time.perf_counter() >= deadline:
                break
    tracer.write(work.dir / "spans.jsonl")
    if any(c != counts[0] for c in counts):
        work.problems.append("per-layer call counts differ between traced repeats")

    def us_per(layer: str, per: float | None = None) -> float:
        denominator = calls_total[layer] if per is None else per * len(traced)
        return self_total[layer] / 1000.0 / denominator if denominator else 0.0

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    count = counts[0]
    steps = work.steps_per_run
    values = {
        "highway.step.calls": (count.get("highway.step", 0), "count"),
        "highway.step.us_per_call": (us_per("highway.step"), "us"),
        "highway.spawn_scenario.us_per_call": (us_per("highway.spawn_scenario"), "us"),
        "codec.featurize.calls": (count.get("codec.featurize", 0), "count"),
        "codec.featurize.us_per_call": (us_per("codec.featurize"), "us"),
        "drift.predict.calls": (count.get("drift.predict", 0), "count"),
        "drift.predict.us_per_call": (us_per("drift.predict"), "us"),
        "drift.fit.calls": (count.get("drift.fit", 0), "count"),
        "drift.fit.us_per_call": (us_per("drift.fit"), "us"),
        "drift.drift_frac": (
            ratio(work.fact_total("drift_flags"), work.fact_total("drift_tests")), "ratio"),
        "policies.edge_decide.calls": (count.get("policies.edge_decide", 0), "count"),
        "policies.edge_decide.us_per_call": (us_per("policies.edge_decide"), "us"),
        "policies.cloud_decide.calls": (count.get("policies.cloud_decide", 0), "count"),
        "policies.cloud_decide.self_us_per_call": (us_per("policies.cloud_decide"), "us"),
        "policies.rollout_cost.calls": (count.get("policies.rollout_cost", 0), "count"),
        "policies.rollout_cost.us_per_call": (us_per("policies.rollout_cost"), "us"),
        "policies.cloud_changed_frac": (
            ratio(work.fact_total("cloud_changed"), work.fact_total("cloud_calls")), "ratio"),
        "orchestrator.run_episode.self_us_per_step": (
            us_per("orchestrator.run_episode", steps), "us"),
        "orchestrator.write_trace.us_per_record": (us_per("orchestrator.write_trace", steps), "us"),
        "orchestrator.trace_bytes_per_record": (ratio(work.fact_total("bytes"), steps), "B"),
        "orchestrator.load_trace.us_per_record": (us_per("orchestrator.load_trace", steps), "us"),
        "orchestrator.aggregate_metrics.us_per_call": (
            us_per("orchestrator.aggregate_metrics"), "us"),
        "cli.load_experiment_config.us_per_call": (us_per("cli.load_experiment_config"), "us"),
        "cli.cmd_run.self_ms": (us_per("cli.cmd_run") / 1000.0, "ms"),
        "cli.cmd_summarize.self_ms": (us_per("cli.cmd_summarize") / 1000.0, "ms"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for key, (value, unit) in values.items():
        lines.append(f"{key}: {value:.6g} {unit}")
    for key, samples in (("untraced", untraced), ("traced", traced)):
        name = f"trace.run_steps_per_s_{key}"
        metrics[name] = report_rate(name, "steps/s", steps, [t.run for t in samples], lines)
    overhead = 1.0 - (metrics["trace.run_steps_per_s_traced"]["value"]
                      / metrics["trace.run_steps_per_s_untraced"]["value"])
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    lines.append(f"trace.overhead_frac: {overhead:.4f} ratio (1 - traced/untraced run_steps_per_s)")
    lines.append(calibration_line(speed))
    return work, metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines."""
    if workload not in wl.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(wl.WORKLOADS)}")
    cli = import_cli()
    lines = [f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}"
             + (" tiny" if tiny else "")]
    lines += [f"env {k}: {v}" for k, v in environment().items()]
    measure = per_layer if trace else end_to_end
    work, metrics = measure(cli, workload, seed, seconds, tiny, lines)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    lines += [f"problem: {p}" for p in work.problems]
    result = {
        "correct": work.failed == 0 and not work.problems and finite,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
