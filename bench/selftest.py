#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

Run from the root of an ecdrive checkout:

    python3 bench/selftest.py

For every workload in BENCHMARK.json it checks that the untraced run prints
every end-to-end metric, and the traced run every per-layer metric, each
with a finite value and the declared unit, that the outputs check as
correct, and that two traced runs give identical per-layer counts.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run as bench

SEED = 1
SECONDS = 0.5


def check_metrics(label: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: outputs failed the check: {result}")
    for spec in declared:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            problems.append(f"{label}: {spec['name']} missing")
        elif not math.isfinite(metric["value"]) or metric["unit"] != spec["unit"]:
            problems.append(f"{label}: {spec['name']} = {metric}, declared unit {spec['unit']}")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced, _ = bench.run_benchmark(workload, SEED, SECONDS, trace=False, tiny=True)
        problems += check_metrics(f"{workload} trace 0", untraced, spec["end_to_end"])
        counts = []
        for attempt in (1, 2):
            traced, _ = bench.run_benchmark(workload, SEED, SECONDS, trace=True, tiny=True)
            problems += check_metrics(f"{workload} trace 1 #{attempt}", traced, spec["per_layer"])
            counts.append({k: m["value"] for k, m in traced["metrics"].items()
                           if m["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: per-layer counts differ: {counts[0]} vs {counts[1]}")
        print(f"{workload}: {'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
