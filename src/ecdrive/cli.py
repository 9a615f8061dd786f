"""Command-line entry point: run experiment suites, summarize traces, validate.

Commands:
    ecdrive run <config.json>
    ecdrive summarize <trace_glob> --out <csv>
    ecdrive validate <config.json>

An experiment file is a run's description, read by ``trace.read_run`` as
a trace header's config is, plus ``seeds``, ``output_dir`` and ``modes``;
any other key is a config error.

``run`` splits the seeds over one process per CPU it may run on, at most
one per seed: it runs the first share itself and forks a child for each
other share, and each process holds one seed at a time. Traces, summary
lines, ``io error:`` lines and exit codes are those of one process running
every seed. A platform without ``os.sched_getaffinity``, or a process that
has other threads, runs them all in one process.

Exit codes: 0 success, 2 invalid config or empty glob, 3 I/O failure,
4 malformed or inconsistent trace. Remote credentials are read from the
EC_DRIVE_API_KEY environment variable only; config files and trace
snapshots never carry secrets. A trace header holds the endpoint block as
configured (base_url, model, timeout_s, role), and a base_url with a user
name or password in it is a config error.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import os
import pickle
import sys
import threading
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .highway import DriftInjection, ScenarioConfig, ScenarioError, spawn_scenario
from .orchestrator import (
    MODES,
    EpisodeTrace,
    Metrics,
    OffloadConfig,
    _is_seed,
    aggregate_metrics,
    run_episode,  # noqa: F401 (bench/tracer.py wraps this name)
    run_episodes,
)
from .policies import EndpointConfig
from .trace import (
    ConfigError, TextMemo, _loads, _require, load_trace, read_run, temp_name, write_trace,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRACE = 4

# the longest file name most file systems take, in bytes
NAME_MAX = 255
# the largest process id Linux hands out (PID_MAX_LIMIT on 64-bit hosts)
PID_MAX = 4_194_304

CSV_COLUMNS = (
    "scenario",
    "mode",
    "seed",
    "offload_rate",
    "mean_latency_ms",
    "p95_latency_ms",
    "total_bytes_up",
    "collision_count",
    "agreement_rate",
    "in_window_offload_fraction",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment file."""

    scenario: ScenarioConfig
    injections: tuple[DriftInjection, ...]
    offload: OffloadConfig
    seeds: tuple[int, ...]
    steps: int
    output_dir: Path
    modes: tuple[str, ...]
    endpoint: EndpointConfig | None = None


def load_experiment_config(path) -> ExperimentConfig:
    """Parse and invariant-check an experiment JSON file: the run's
    description through :func:`read_run`, then ``seeds``, ``output_dir``
    and ``modes``; any other key is an error. NaN and Infinity are
    rejected while parsing.
    """
    path = Path(path)
    try:
        data = _loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    others = ("seeds", "output_dir", "modes")
    scenario, injections, offload, steps, endpoint = read_run(data, others)

    seeds = _require(data, "seeds")
    if not isinstance(seeds, list) or not seeds or not all(map(_is_seed, seeds)):
        raise ConfigError("seeds: must be a non-empty list of non-negative integers")
    _reject_repeats("seeds", seeds)

    output_dir = _require(data, "output_dir")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir: must be a string")

    modes = data.get("modes", [offload.mode])
    if not isinstance(modes, list):
        raise ConfigError("modes: must be a list")
    modes = tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"modes: {mode!r} is not one of {MODES}")
    if not modes:
        raise ConfigError("modes: must not be empty")
    _reject_repeats("modes", modes)
    _check_trace_names(scenario.name, modes, seeds)

    return ExperimentConfig(scenario, injections, offload, tuple(seeds), steps,
                            Path(output_dir), modes, endpoint)


def _reject_repeats(field: str, values) -> None:
    """Each seed and mode names one episode and one trace file, so none may
    repeat."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{field}: {value!r} appears more than once")
        seen.add(value)


def trace_filename(scenario_name: str, mode: str, seed: int) -> str:
    return f"{scenario_name}_{mode}_{seed}.jsonl"


def _check_trace_names(scenario_name: str, modes, seeds) -> None:
    """Reject a scenario name that some trace file of the run could not
    carry: the longest name ``run`` writes is the temporary file of the
    longest mode and seed, under the longest process id."""
    longest = temp_name(trace_filename(scenario_name, max(modes, key=len), max(seeds)), PID_MAX)
    try:
        size = len(os.fsencode(longest))
    except UnicodeEncodeError as exc:
        raise ConfigError(f"scenario: name is not a valid file name ({exc})") from exc
    if size > NAME_MAX:
        raise ConfigError(
            f"scenario: name is too long: trace file names reach {size} bytes, "
            f"over the {NAME_MAX}-byte limit"
        )


def _spawn_seeds(config: ExperimentConfig) -> None:
    """Spawn every seed's initial scene: a seed that cannot spawn is a
    config error."""
    for seed in config.seeds:
        try:
            spawn_scenario(config.scenario, seed)
        except ScenarioError as exc:
            raise ConfigError(f"scenario: seed {seed}: {exc}") from exc


def cmd_run(config_path: str) -> int:
    """Run every (seed x mode) episode of the experiment and write traces.

    Each seed's modes run in lockstep through one :func:`run_episodes`
    call, on one burn-in of the seed (the burn-in does not depend on the
    mode): the call fits the detector to its features once and computes
    each scene the modes and the burn-in share once. That seed's traces are
    then written, through one :class:`TextMemo`, so each record part they
    share is serialized once, and the burn-in, the traces and the memo are
    freed before the next seed runs. The seeds are split over one process
    per CPU this process may run on, at most one per seed, and none is
    forked from a process with other threads (see :func:`_run_shares`);
    each process holds one seed at a time. The ``io error:`` lines follow
    in seed order, one per trace that could not be written, and then the
    summary lines, one per written trace, in (mode, seed) order. A seed
    whose scene cannot be spawned is a config error, reported before any
    output. A trace that cannot be written does not stop the remaining
    episodes; the exit code is then EXIT_IO.
    """
    try:
        config = load_experiment_config(config_path)
        _spawn_seeds(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"io error: cannot create output_dir: {exc}", file=sys.stderr)
        return EXIT_IO

    # a forked child holds only the thread that forked it, so a lock another
    # thread held would stay locked there: a process with threads forks none
    share = min(_usable_cpus(), len(config.seeds)) if threading.active_count() == 1 else 1
    lines, errors = _run_shares(config, share)
    for seed in config.seeds:
        for mode in config.modes:
            if (mode, seed) in errors:
                print(errors[mode, seed], file=sys.stderr)
    for mode in config.modes:
        for seed in config.seeds:
            if (mode, seed) in lines:
                print(lines[mode, seed])
    return EXIT_IO if errors else EXIT_OK


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    cannot tell (it has no ``os.sched_getaffinity``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


class _ChildTraceback(Exception):
    """The traceback of an exception raised in a forked share, as text."""

    def __str__(self) -> str:
        return "\n" + self.args[0]


def _run_shares(config: ExperimentConfig, share: int) -> tuple[dict, dict]:
    """Run ``config.seeds[j::share]`` in process ``j`` for ``j < share``:
    this process runs share 0 and forks one child for each other share.

    Returns the summary line of each written trace and the ``io error:``
    text of each trace that could not be written, both keyed by
    (mode, seed). A child prints nothing; it pickles back its two dicts, or
    the exception it raised, over a pipe, and this process re-raises that
    exception. Every child is waited for before this returns or raises.
    """
    offloads = [replace(config.offload, mode=mode) for mode in config.modes]
    children = []
    try:
        for j in range(1, share):
            _fork_share(config, offloads, config.seeds[j::share], children)
        lines, errors = _run_share(config, offloads, config.seeds[0::share])
        for pid, pipe in children:
            try:
                result, child_traceback = pickle.load(pipe)
            except EOFError:  # killed, say, by a signal
                raise RuntimeError(f"child process {pid} ended before it sent its result")
            if child_traceback is not None:
                raise result from _ChildTraceback(child_traceback)
            lines.update(result[0])
            errors.update(result[1])
    finally:
        # closing a pipe first ends a child that still writes to it
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return lines, errors


def _fork_share(config: ExperimentConfig, offloads: list[OffloadConfig], seeds,
                children: list) -> None:
    """Fork a child that runs ``seeds`` and pickles back ``(result, None)``
    or ``(exception, traceback text)``; append its (pid, pipe) to
    ``children``. The child ends in ``os._exit`` and never returns."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        children.append((pid, os.fdopen(read_end, "rb")))
        return
    try:
        os.close(read_end)
        for _, pipe in children:
            pipe.close()
        try:
            message = (_run_share(config, offloads, seeds), None)
        except BaseException as exc:
            message = (exc, traceback.format_exc())
        try:
            payload = pickle.dumps(message)
        except Exception:  # an exception pickle cannot carry
            error = RuntimeError(f"{type(message[0]).__name__}: {message[0]}")
            payload = pickle.dumps((error, message[1]))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _run_share(config: ExperimentConfig, offloads: list[OffloadConfig],
               seeds) -> tuple[dict, dict]:
    """Run and write ``seeds``' episodes one seed at a time, as
    :func:`_run_shares` describes its result."""
    lines, errors = {}, {}
    for seed in seeds:
        _run_seed(config, offloads, seed, lines, errors)
    return lines, errors


def _run_seed(config: ExperimentConfig, offloads: list[OffloadConfig], seed: int,
              lines: dict, errors: dict) -> None:
    """Run and write one seed's episodes, adding a summary line per written
    trace to ``lines`` and an ``io error:`` text per unwritten one to
    ``errors``. The seed's burn-in, traces and memo live only as long as
    this call."""
    traces = run_episodes(
        config.scenario,
        config.injections,
        offloads,
        seed=seed,
        steps=config.steps,
        endpoint=config.endpoint,
    )
    texts = TextMemo()
    for mode, trace in zip(config.modes, traces):
        path = config.output_dir / trace_filename(config.scenario.name, mode, seed)
        try:
            write_trace(trace, path, texts)
        except OSError as exc:
            errors[mode, seed] = f"io error: cannot write {path}: {exc}"
            continue
        s = trace.summary
        lines[mode, seed] = (
            f"{config.scenario.name} mode={mode} seed={seed}: "
            f"offload_rate={s.offload_rate:.3f} "
            f"mean_latency={s.mean_latency_ms:.1f}ms "
            f"bytes_up={s.total_bytes_up} collisions={s.collision_count}"
        )


def _metrics_row(trace: EpisodeTrace, metrics: Metrics) -> dict:
    return {
        "scenario": trace.scenario.name,
        "mode": trace.offload.mode,
        "seed": trace.seed,
        **asdict(metrics),
    }


def cmd_summarize(trace_glob: str, out_csv: str) -> int:
    """Recompute and tabulate metrics for every trace matching the glob.

    Each trace's embedded summary is re-derived from its records; any
    mismatch is an integrity failure (exit 4), as is a malformed trace; a
    matched file that cannot be read is an I/O failure (exit 3). The CSV
    gets one row per trace plus one aggregate row per mode with means
    across seeds.
    """
    paths = sorted(globmod.glob(trace_glob))
    if not paths:
        print(f"error: no trace files match {trace_glob!r}", file=sys.stderr)
        return EXIT_CONFIG

    rows = []
    for path in paths:
        try:
            trace = load_trace(path)
        except OSError as exc:
            print(f"io error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"trace error: {exc}", file=sys.stderr)
            return EXIT_TRACE
        recomputed = aggregate_metrics(trace.records, trace.injections, trace.offload.window)
        if recomputed != trace.summary:
            print(
                f"trace error: {path}: stored summary does not match recomputed metrics",
                file=sys.stderr,
            )
            return EXIT_TRACE
        rows.append(_metrics_row(trace, recomputed))

    numeric = CSV_COLUMNS[3:]
    aggregates = []
    for mode in MODES:
        mode_rows = [r for r in rows if r["mode"] == mode]
        if not mode_rows:
            continue
        agg = {"scenario": "aggregate", "mode": mode, "seed": ""}
        for col in numeric:
            agg[col] = sum(r[col] for r in mode_rows) / len(mode_rows)
        aggregates.append(agg)

    try:
        with open(out_csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in rows + aggregates:
                writer.writerow(row)
    except OSError as exc:
        print(f"io error: cannot write {out_csv}: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"wrote {len(rows)} trace rows + {len(aggregates)} aggregate rows to {out_csv}")
    return EXIT_OK


def cmd_validate(config_path: str) -> int:
    """Parse and invariant-check a config file without side effects.

    Each seed's initial scene is spawned too, so a config ``validate``
    accepts cannot fail to spawn in ``run``.
    """
    try:
        config = load_experiment_config(config_path)
        _spawn_seeds(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("ok")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecdrive",
        description="Edge-cloud collaborative driving experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run all (seed x mode) episodes of a config")
    p_run.add_argument("config", help="experiment config JSON file")

    p_sum = sub.add_parser("summarize", help="tabulate trace metrics into a CSV")
    p_sum.add_argument("trace_glob", help="glob matching trace .jsonl files")
    p_sum.add_argument("--out", required=True, help="output CSV path")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config", help="experiment config JSON file")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "summarize":
        return cmd_summarize(args.trace_glob, args.out)
    return cmd_validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
