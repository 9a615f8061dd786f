"""Span tracing of ecdrive's layers from outside the package.

Each wrapped function records one span -- name, start, end, parent span --
in memory. Names are patched in the namespace of the module that calls
them, because ``from .x import y`` binds a separate name there; patching
``ecdrive.drift.predict`` alone would miss the orchestrator's calls.
Microsecond helpers (``legal_actions``, ``check_collision``,
``inject_drift``) are not wrapped: their cost stays in the caller's self
time instead of being swamped by the wrapper's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# (namespace the caller looks the name up in, attribute, layer metric prefix)
WRAP_POINTS = (
    ("ecdrive.orchestrator", "spawn_scenario", "highway.spawn_scenario"),
    ("ecdrive.orchestrator", "step", "highway.step"),
    ("ecdrive.orchestrator", "featurize", "codec.featurize"),
    ("ecdrive.orchestrator", "fit", "drift.fit"),
    ("ecdrive.orchestrator", "predict", "drift.predict"),
    ("ecdrive.orchestrator", "edge_decide", "policies.edge_decide"),
    ("ecdrive.orchestrator", "cloud_decide", "policies.cloud_decide"),
    ("ecdrive.policies", "rollout_cost", "policies.rollout_cost"),
    ("ecdrive.orchestrator", "aggregate_metrics", "orchestrator.aggregate_metrics"),
    ("ecdrive.cli", "aggregate_metrics", "orchestrator.aggregate_metrics"),
    ("ecdrive.cli", "run_episode", "orchestrator.run_episode"),
    ("ecdrive.cli", "write_trace", "orchestrator.write_trace"),
    ("ecdrive.cli", "load_trace", "orchestrator.load_trace"),
    ("ecdrive.cli", "load_experiment_config", "cli.load_experiment_config"),
    ("ecdrive.cli", "cmd_run", "cli.cmd_run"),
    ("ecdrive.cli", "cmd_summarize", "cli.cmd_summarize"),
)

LAYER_OF = {f"{module}.{attr}": layer for module, attr, layer in WRAP_POINTS}


class Tracer:
    """Collects spans as ``(name, start_ns, end_ns, parent_index)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        originals = []
        try:
            for module_name, attr, _layer in WRAP_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self nanoseconds per layer metric prefix.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (single thread).
        """
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (name, start, end, _parent), children in zip(self.spans, child_ns):
            layer = LAYER_OF[name]
            calls[layer] += 1
            self_ns[layer] += end - start - children
        return calls, self_ns

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                "parent": parent}) + "\n"
                )
