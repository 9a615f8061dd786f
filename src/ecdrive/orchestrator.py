"""Per-step collaboration loop: featurize, edge decide, gate, escalate, log.

Each step the edge model decides first; the drift detector then tests the
sliding feature window and, together with the confidence gate, decides
whether the step escalates to the cloud, whose decision overrides the
edge's for execution. Latency and uplink bytes are accounted from
configured constants so seeded experiments are machine independent; only
remote calls record wall-clock time: an answer costs its own, and a failed
call costs the attempt plus the configured cost of the local policy that
stands in.

Injections never mutate the persistent world: the effective scene of a step
is the pristine scene with the active injections overlaid, and only the
evolved state (time, ego, other vehicles) is carried over from stepping it.
Obstacles, the traffic target offset and the noise level therefore come
from the pristine scene again on the next step, so an obstacle vanishes,
traffic targets revert and noise stops once their window closes.

The episodes of a seed rest on one burn-in: an injection-free EdgeOnly
episode of ``n_ref`` steps from the seed's initial scene, run by the same
step function as every other episode, with each step's results kept.
Every detector is fitted to its features, every episode starts from its
first scene, and an episode that stands on a scene equal to one of its
scenes at a step with no injection overlaid takes over that step's
feature, collision, edge decision and stepped successor instead of
computing them.

The records and summary of an episode come back as an :class:`EpisodeTrace`;
:mod:`ecdrive.trace` writes and reads it as JSON Lines.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .codec import featurize
from .drift import METHODS, DriftDetector, DriftReport, Monitor, confidence_gate, fit
from .drift import predict  # noqa: F401 (bench/tracer.py wraps this name)
from .highway import (
    Action,
    DriftInjection,
    Scene,
    ScenarioConfig,
    _is_int,
    _is_number,
    check_collision,
    inject_drift,
    legal_actions,
    spawn_scenario,
    step,
    validate_injection,
)
from .policies import (
    Decision,
    EndpointConfig,
    RemoteUnavailable,
    cloud_decide,
    edge_decide,
    remote_decide,
)
from .codec import NoDecisionFound

logger = logging.getLogger(__name__)

MODES = ("EdgeOnly", "CloudOnly", "Collaborative")
#: the largest ``edge_ms``, ``cloud_ms`` and ``rtt_ms``: a step then costs
#: at most 3e9 ms, so an episode's summed latency stays finite
MAX_LATENCY_MS = 1e9
#: the largest ``uplink_bytes_per_sample``, a terabyte: the byte totals a
#: run can reach then average to finite floats in ``ecdrive summarize``
MAX_UPLINK_BYTES = 10**12
#: the largest ``window``, ``n_ref`` and ``n_perm``. ``n_ref`` is also the
#: burn-in's length in steps. The MMD detector holds n_ref x n_ref and
#: n_perm x (n_ref + window) arrays and a (2 window)^2 ring, so a run at all
#: three peaks near 200 MB; a window test then costs about n_perm * window^2
#: multiply-adds
MAX_WINDOW = 1000
MAX_N_REF = 2000
MAX_N_PERM = 1000


@dataclass(frozen=True)
class OffloadConfig:
    """Offloading, detector and latency-model settings for one experiment."""

    mode: str = "Collaborative"
    tau: float = 0.5
    method: str = "ks"
    alpha: float = 0.05
    window: int = 40
    n_ref: int = 200
    n_perm: int = 100
    edge_ms: float = 50.0
    cloud_ms: float = 750.0
    rtt_ms: float = 50.0
    uplink_bytes_per_sample: int = 2048

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("tau", "alpha", "edge_ms", "cloud_ms", "rtt_ms"):
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (0.0 <= self.tau <= 1.0):
            raise ValueError("tau must lie in [0, 1]")
        if not isinstance(self.method, str) or self.method.lower() not in METHODS:
            raise ValueError(f"unknown detector method {self.method!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        for name in ("window", "n_ref", "n_perm", "uplink_bytes_per_sample"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name, least, most in (("window", 10, MAX_WINDOW), ("n_ref", 30, MAX_N_REF),
                                  ("n_perm", 20, MAX_N_PERM),
                                  ("uplink_bytes_per_sample", 0, MAX_UPLINK_BYTES)):
            value = getattr(self, name)
            if not least <= value <= most:
                raise ValueError(f"{name} must lie in [{least}, {most}], got {value!r}")
        for name in ("edge_ms", "cloud_ms", "rtt_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if not 0 <= value <= MAX_LATENCY_MS:
                raise ValueError(f"{name} must lie in [0, {MAX_LATENCY_MS:g}], got {value!r}")


@dataclass(frozen=True)
class StepRecord:
    """Everything observed, decided and accounted on one step."""

    step: int
    feature: np.ndarray
    edge_decision: Decision
    drift_report: DriftReport | None
    offloaded: bool
    offload_reason: str
    cloud_decision: Decision | None
    executed_action: Action
    latency_ms: float
    bytes_up: int
    collision: bool


@dataclass(frozen=True)
class Metrics:
    """Episode-level summary, recomputable from the step records."""

    offload_rate: float
    mean_latency_ms: float
    p95_latency_ms: float
    total_bytes_up: int
    collision_count: int
    agreement_rate: float
    in_window_offload_fraction: float


@dataclass(frozen=True)
class EpisodeTrace:
    """One seeded episode: config snapshot, per-step records and summary."""

    scenario: ScenarioConfig
    injections: tuple[DriftInjection, ...]
    offload: OffloadConfig
    seed: int
    steps: int
    records: tuple[StepRecord, ...]
    summary: Metrics
    endpoint: EndpointConfig | None = None


def offload_rule(
    report: DriftReport | None, confidence: float, config: OffloadConfig
) -> tuple[bool, str]:
    """Decide whether a step escalates to the cloud and why.

    Collaborative mode escalates on detected drift OR a confidence below
    tau; EdgeOnly never escalates and CloudOnly always does.
    """
    if config.mode == "EdgeOnly":
        return False, "None"
    if config.mode == "CloudOnly":
        return True, "None"
    drift = bool(report.is_drift) if report is not None else False
    low = confidence_gate(confidence, config.tau)
    if drift and low:
        return True, "Both"
    if drift:
        return True, "Drift"
    if low:
        return True, "LowConfidence"
    return False, "None"


def _apply_injections(
    scene: Scene, injections: tuple[DriftInjection, ...], step_index: int
) -> Scene:
    for injection in injections:
        scene = inject_drift(scene, injection, step_index)
    return scene


def _next_scene(scene: Scene, effective: Scene, action: Action) -> Scene:
    """The scene of the next step: ``effective`` stepped with ``action``,
    its injection overlay stripped again by taking only the evolved state
    (time, ego, other vehicles) onto ``scene``."""
    advanced = step(effective, action)
    if effective is scene:  # no overlay active: nothing to strip
        return advanced
    return replace(scene, time=advanced.time, ego=advanced.ego, others=advanced.others)


def _decide_role(entry: dict, role: str, local, local_ms: float, effective: Scene,
            endpoint: EndpointConfig | None) -> tuple[Decision, float]:
    """The decision of ``role`` ("Edge" or "Cloud") on ``effective`` and
    the milliseconds it costs.

    The local policy ``local`` decides once per ``entry`` and costs its
    configured ``local_ms``. An endpoint of the role is asked instead, and
    its answer costs its wall-clock time. If it fails, the local decision
    stands in and costs the attempt (its wall-clock time, or the endpoint's
    timeout if it timed out) plus ``local_ms``.
    """
    if endpoint is None or endpoint.role != role:
        return _shared(entry, role, local, effective), local_ms
    start = time.perf_counter()
    try:
        return remote_decide(effective, endpoint), (time.perf_counter() - start) * 1000.0
    except (RemoteUnavailable, NoDecisionFound) as exc:
        attempt = (time.perf_counter() - start) * 1000.0
        if isinstance(exc, RemoteUnavailable) and exc.timed_out:
            attempt = endpoint.timeout_s * 1000.0
        logger.warning("remote %s failed, using local policy: %s", role, exc)
        return _shared(entry, role, local, effective), attempt + local_ms


def _is_seed(value) -> bool:
    """The one rule for a seed, wherever one is read."""
    return _is_int(value) and value >= 0


def _check_seed(seed) -> None:
    if not _is_seed(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _check_steps(steps) -> None:
    """The one rule for an episode's step count, wherever one is read."""
    if not _is_int(steps) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")


def _detector_settings(config: OffloadConfig) -> tuple:
    """The settings a fitted detector depends on, besides the seed."""
    return (config.method.lower(), config.alpha, config.window, config.n_ref, config.n_perm)


def _entry_of(scene: Scene, entries: list[dict]) -> dict:
    """The first of a step's ``entries`` whose scene is ``scene`` itself or
    has an equal ego and key; else a new entry, appended. The other
    vehicles move whatever the ego does, so the scenes of one step mostly
    differ in the ego alone: comparing it first keeps keys rare."""
    for entry in entries:
        other = entry["scene"]
        if other is scene or (other.ego == scene.ego and other.key == scene.key):
            return entry
    entry = {"scene": scene}
    entries.append(entry)
    return entry


def _shared(entry: dict, name, compute, *args):
    """``compute(*args)``, computed once per ``entry`` and ``name``."""
    value = entry.get(name, entry)  # the entry itself is never a stored value
    if value is entry:
        value = entry[name] = compute(*args)
    return value


class _Episode:
    """The state one episode of :func:`run_episodes` carries between steps."""

    def __init__(self, config: OffloadConfig, detector: DriftDetector | None, scene: Scene,
                 seed: int):
        self.config = config
        self.scene = scene
        self.noise_rng = np.random.default_rng(seed)
        # only a Collaborative step waits for its drift report
        self.monitor = Monitor(detector, config.mode == "Collaborative")
        self.edges: list[Decision] = []
        # each step's record fields after drift_report, in StepRecord's field order
        self.outcomes: list[tuple] = []

    def advance(self, index: int, injections: tuple[DriftInjection, ...],
                endpoint: EndpointConfig | None, entry: dict) -> None:
        """Run step ``index``. The pure per-scene results are looked up in,
        or added to, ``entry``, the results of the step on scenes equal to
        the episode's; a remote call and a noisy feature are always the
        episode's own. Every episode overlays the same injections at the
        same index, so equal scenes have equal effective scenes, and the
        entry holds the effective scene too."""
        config = self.config
        scene = self.scene
        effective = _shared(entry, "effective", _apply_injections, scene, injections, index)
        collision = _shared(entry, "collision", check_collision, effective)
        # a noisy feature is drawn from the episode's own rng, kept apart
        own = entry if not effective.noise_sigma > 0 else {}
        feature = _shared(own, "feature", featurize, effective, self.noise_rng)

        edge, edge_latency = _decide_role(entry, "Edge", edge_decide, config.edge_ms,
                                          effective, endpoint)

        self.edges.append(edge)
        report = self.monitor.push(feature)
        offloaded, reason = offload_rule(report, edge.confidence, config)

        cloud: Decision | None = None
        cloud_latency = 0.0
        if offloaded:
            cloud, cloud_latency = _decide_role(entry, "Cloud", cloud_decide,
                                                config.rtt_ms + config.cloud_ms, effective,
                                                endpoint)

        executed = cloud.action if cloud is not None else edge.action
        if executed not in legal_actions(effective):
            logger.warning(
                "step %d: illegal action %s from %s, executing Keep instead",
                index,
                executed.value,
                (cloud or edge).source,
            )
            executed = Action.KEEP

        self.outcomes.append((
            offloaded,
            reason,
            cloud,
            executed,
            edge_latency + cloud_latency,
            config.uplink_bytes_per_sample if offloaded else 0,
            collision,
        ))

        self.scene = _shared(entry, ("step", executed), _next_scene, scene, effective, executed)

    def records(self) -> list[StepRecord]:
        steps = zip(self.monitor.samples, self.edges, self.monitor.reports(), self.outcomes)
        return [StepRecord(index, feature, edge, report, *outcome)
                for index, (feature, edge, report, outcome) in enumerate(steps)]


def _burn_in(start: Scene, n_ref: int, seed: int) -> tuple[list[np.ndarray], list[dict]]:
    """Run ``n_ref`` steps of an injection-free EdgeOnly episode from
    ``start``, with no endpoint.

    Returns its features and the entry of each step: the results the step
    found for its scene (see :meth:`_Episode.advance`), which an episode of
    :func:`run_episodes` that stands on the same scene takes over."""
    burn = _Episode(OffloadConfig(mode="EdgeOnly"), None, start, seed)
    entries = []
    for index in range(n_ref):
        entries.append({"scene": burn.scene})
        burn.advance(index, (), None, entries[-1])
    return burn.monitor.samples, entries


def run_episodes(
    scenario: ScenarioConfig,
    injections,
    configs,
    seed: int,
    steps: int,
    endpoint: EndpointConfig | None = None,
) -> list[EpisodeTrace]:
    """Run one seeded episode per offload config, in lockstep; one trace
    each, in the order of ``configs``, each equal byte for byte to the one
    :func:`run_episode` gives for its config alone.

    The seed's initial scene is spawned once. The episodes rest on one
    burn-in from it (:func:`_burn_in`): an injection-free EdgeOnly episode
    of the largest ``n_ref`` of ``configs`` steps, with no endpoint. Each
    distinct detector setting is fitted once, to the first ``n_ref``
    features of the burn-in, and stays frozen. Every episode starts from
    the initial scene.

    At each step index the pure per-scene calls (the injection overlay,
    :func:`check_collision`, a noiseless :func:`featurize`, the local
    :func:`edge_decide` and :func:`cloud_decide`, and :func:`step` for each
    executed action) run once per distinct scene, into the entry
    :func:`_entry_of` finds among the burn-in's step, if no injection
    overlays its scene, and the entries of the episodes before. A burn-in
    step's entry is dropped once its index has run, so its scene is freed.
    The drift test, the offload rule, a noisy feature (drawn from the
    episode's own rng) and every remote call stay each episode's own; a
    remote failure degrades to the local policy of its role and never
    aborts.

    Each episode's :class:`~ecdrive.drift.Monitor` gives its drift
    reports; only a Collaborative one streams. The episodes that share a
    fitted detector share its memo of reports, so each distinct window is
    tested once.
    """
    _check_steps(steps)
    _check_seed(seed)
    configs = tuple(configs)
    for config in configs:
        config.validate()
    scenario.validate()
    injections = tuple(injections)
    for injection in injections:
        validate_injection(injection, scenario.lane_count)
    if endpoint is not None:
        endpoint.validate()

    start = spawn_scenario(scenario, seed)
    features, entries = _burn_in(start, max((c.n_ref for c in configs), default=0), seed)
    detectors = {}
    for config in configs:
        settings = _detector_settings(config)
        if settings not in detectors:
            detectors[settings] = fit(
                features[: config.n_ref],
                method=config.method,
                alpha=config.alpha,
                window=config.window,
                seed=seed,
                n_perm=config.n_perm,
            )

    episodes = [_Episode(c, detectors[_detector_settings(c)], start, seed) for c in configs]
    for index in range(steps):
        candidates = []
        if index < len(entries):
            scene = entries[index]["scene"]
            if _apply_injections(scene, injections, index) is scene:
                candidates.append(entries[index])
            entries[index] = None  # each burn-in scene is freed once passed
        for episode in episodes:
            episode.advance(index, injections, endpoint, _entry_of(episode.scene, candidates))

    traces = []
    for episode in episodes:
        records = episode.records()
        traces.append(EpisodeTrace(
            scenario=scenario,
            injections=injections,
            offload=episode.config,
            seed=seed,
            steps=steps,
            records=tuple(records),
            summary=aggregate_metrics(records, injections, episode.config.window),
            endpoint=endpoint,
        ))
    return traces


def run_episode(
    scenario: ScenarioConfig,
    injections,
    config: OffloadConfig,
    seed: int,
    steps: int,
    endpoint: EndpointConfig | None = None,
) -> EpisodeTrace:
    """Run one seeded episode of the collaboration loop:
    ``run_episodes(..., (config,), ...)[0]``."""
    return run_episodes(scenario, injections, (config,), seed, steps, endpoint)[0]


def _nearest_rank_p95(values: list[float]) -> float:
    ordered = sorted(values)
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1]


def aggregate_metrics(
    records,
    injections=(),
    detector_window: int = 0,
) -> Metrics:
    """Summarize step records exactly per the metric definitions.

    An offload counts as in-window when its step falls inside any injection
    window extended by the detector window length (detection lags a
    window-based test). With zero offloads the agreement rate is vacuously
    1 and the in-window fraction 0.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    n = len(records)
    offloaded = [r for r in records if r.offloaded]
    n_off = len(offloaded)
    windows = [
        (inj.start_step, inj.end_step + detector_window) for inj in injections
    ]
    in_window = sum(
        1
        for r in offloaded
        if any(lo <= r.step < hi for lo, hi in windows)
    )
    agree = sum(
        1
        for r in offloaded
        if r.cloud_decision is not None
        and r.cloud_decision.action == r.edge_decision.action
    )
    return Metrics(
        offload_rate=n_off / n,
        mean_latency_ms=sum(r.latency_ms for r in records) / n,
        p95_latency_ms=_nearest_rank_p95([r.latency_ms for r in records]),
        total_bytes_up=sum(r.bytes_up for r in records),
        collision_count=sum(1 for r in records if r.collision),
        agreement_rate=agree / n_off if n_off else 1.0,
        in_window_offload_fraction=in_window / n_off if n_off else 0.0,
    )
