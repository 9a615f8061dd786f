"""An executable spec of the collaboration loop, written for reading.

:func:`spec_episodes` gives the traces :func:`ecdrive.run_episodes` gives
for a run without a remote endpoint, from a plain loop over the public
per-layer functions. Each episode runs alone and computes every step
itself; only the burn-in its detector is fitted to is the seed's. So the
loop states what the fast loop's scene sharing, burn-in take-over, report
memo and batched drift tests must keep. The remote path stays out,
because its latency is wall-clock.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ecdrive import (
    Action,
    EpisodeTrace,
    StepRecord,
    aggregate_metrics,
    check_collision,
    cloud_decide,
    edge_decide,
    featurize,
    fit,
    inject_drift,
    legal_actions,
    offload_rule,
    predict_windows,
    spawn_scenario,
    step,
)


def _executable(action: Action, scene) -> Action:
    """``action``, or Keep where it is illegal on ``scene``."""
    return action if action in legal_actions(scene) else Action.KEEP


def burn_in(start, steps: int, seed: int) -> list[np.ndarray]:
    """The features of an injection-free EdgeOnly episode of ``steps``
    steps from ``start``: the reference every detector is fitted to."""
    rng = np.random.default_rng(seed)
    scene, features = start, []
    for _ in range(steps):
        features.append(featurize(scene, rng))
        scene = step(scene, _executable(edge_decide(scene).action, scene))
    return features


def spec_episode(scenario, injections, config, seed: int, steps: int,
                 reference) -> EpisodeTrace:
    """One episode of ``config``, its detector fitted to the first
    ``config.n_ref`` features of ``reference``."""
    detector = fit(reference[: config.n_ref], method=config.method, alpha=config.alpha,
                   window=config.window, seed=seed, n_perm=config.n_perm)
    rng = np.random.default_rng(seed)
    scene = spawn_scenario(scenario, seed)
    features, records = [], []
    for index in range(steps):
        effective = scene
        for injection in injections:
            effective = inject_drift(effective, injection, index)
        collision = check_collision(effective)
        features.append(featurize(effective, rng))
        edge = edge_decide(effective)
        report = None
        if len(features) >= detector.window:
            report = predict_windows(detector, features[-detector.window :])[0]

        offloaded, reason = offload_rule(report, edge.confidence, config)
        cloud = cloud_decide(effective) if offloaded else None
        action = _executable(edge.action if cloud is None else cloud.action, effective)
        latency = config.edge_ms + (config.rtt_ms + config.cloud_ms if offloaded else 0.0)
        bytes_up = config.uplink_bytes_per_sample if offloaded else 0
        records.append(StepRecord(index, features[-1], edge, report, offloaded, reason, cloud,
                                  action, latency, bytes_up, collision))

        # the overlay is stripped: only the evolved state carries over
        advanced = step(effective, action)
        scene = replace(scene, time=advanced.time, ego=advanced.ego, others=advanced.others)

    return EpisodeTrace(
        scenario=scenario,
        injections=injections,
        offload=config,
        seed=seed,
        steps=steps,
        records=tuple(records),
        summary=aggregate_metrics(records, injections, config.window),
    )


def spec_episodes(scenario, injections, configs, seed: int, steps: int) -> list[EpisodeTrace]:
    """One trace per offload config, in order, all detectors fitted to one
    burn-in of the largest ``n_ref`` of ``configs`` steps."""
    injections = tuple(injections)
    reference = burn_in(spawn_scenario(scenario, seed), max(c.n_ref for c in configs), seed)
    return [spec_episode(scenario, injections, config, seed, steps, reference)
            for config in configs]
