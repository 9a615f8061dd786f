#!/usr/bin/env python3
"""Rewrite expected.json: per-episode counts of every workload at the default seed.

Run from the root of an ecdrive checkout whose traces are known good:

    python3 bench/record_expected.py

The benchmark compares offload count, collision count, total_bytes_up and
record count of each (workload, mode, episode seed) exactly against this
file whenever it runs with the default seed.
"""

from __future__ import annotations

import json
import sys

import run as bench
import workloads as wl


def main() -> int:
    cli = bench.import_cli()
    expected = {}
    for name in wl.WORKLOADS:
        work = bench.Workload(cli, name, wl.DEFAULT_SEED)
        work.repeat(0.0)
        if work.failed or work.problems:
            print(f"{name}: {work.problems}", file=sys.stderr)
            return 1
        expected[name] = {
            key: {k: facts[k] for k in bench.EXPECTED_KEYS}
            for key, facts in sorted(work.facts.items())
        }
    bench.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {bench.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
