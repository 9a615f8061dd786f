"""Collaboration-loop tests: gating, accounting, determinism, trace round trips."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ecdrive import (
    MODES,
    Action,
    Decision,
    DriftInjection,
    DriftReport,
    OffloadConfig,
    SlidingWindow,
    StepRecord,
    aggregate_metrics,
    fit,
    legal_actions,
    load_trace,
    offload_rule,
    predict,
    predict_windows,
    run_episode,
    run_episodes,
    spawn_scenario,
    write_trace,
)
from ecdrive import drift, orchestrator, policies
from ecdrive.highway import validate_injection
from ecdrive.trace import trace_lines

from scenarios import (
    corridor_config,
    corridor_obstacle,
    drift_injections,
    obstacle_zone_config,
    obstacle_zone_injections,
    open_highway_config,
    reference_config,
    runnable_injections,
    runnable_offloads,
    runnable_scenarios,
)


def _report(is_drift: bool) -> DriftReport:
    return DriftReport(
        is_drift=is_drift,
        p_values=np.array([0.001 if is_drift else 0.9]),
        statistic=np.array([0.5]),
        threshold_used=0.05,
    )


class TestOffloadRule:
    def test_drift_alone(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.5)
        assert offload_rule(_report(True), 0.9, cfg) == (True, "Drift")

    def test_low_confidence_alone(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.5)
        assert offload_rule(_report(False), 0.2, cfg) == (True, "LowConfidence")

    def test_neither(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.5)
        assert offload_rule(_report(False), 0.9, cfg) == (False, "None")

    def test_both(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.5)
        assert offload_rule(_report(True), 0.2, cfg) == (True, "Both")

    def test_missing_report_means_no_drift(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.5)
        assert offload_rule(None, 0.9, cfg) == (False, "None")

    def test_edge_only_never_offloads(self):
        cfg = OffloadConfig(mode="EdgeOnly")
        assert offload_rule(_report(True), 0.0, cfg) == (False, "None")

    def test_cloud_only_always_offloads(self):
        cfg = OffloadConfig(mode="CloudOnly")
        assert offload_rule(_report(False), 1.0, cfg) == (True, "None")


class TestRunEpisodeModes:
    def test_edge_only_semantics(self):
        trace = run_episode(corridor_config(), (), OffloadConfig(mode="EdgeOnly"),
                            seed=0, steps=300)
        assert trace.summary.offload_rate == 0.0
        assert trace.summary.mean_latency_ms == 50.0
        assert trace.summary.total_bytes_up == 0

    def test_cloud_only_semantics(self):
        trace = run_episode(corridor_config(), (), OffloadConfig(mode="CloudOnly"),
                            seed=0, steps=100)
        assert trace.summary.offload_rate == 1.0
        assert trace.summary.mean_latency_ms == 850.0
        assert all(r.offload_reason == "None" for r in trace.records)

    def test_collaborative_obstacle_localizes_offloads(self):
        trace = run_episode(corridor_config(), corridor_obstacle(),
                            OffloadConfig(mode="Collaborative", tau=0.0),
                            seed=1, steps=300)
        offload_steps = [r.step for r in trace.records if r.offloaded]
        assert offload_steps, "the injected obstacle must trigger offloads"
        window = (100, 200 + 40)
        in_window = [s for s in offload_steps if window[0] <= s < window[1]]
        assert len(in_window) / len(offload_steps) >= 0.8
        assert trace.summary.in_window_offload_fraction >= 0.8

    def test_edge_first_and_offload_iff_cloud(self):
        trace = run_episode(corridor_config(), corridor_obstacle(),
                            OffloadConfig(mode="Collaborative", tau=0.0),
                            seed=1, steps=250)
        for record in trace.records:
            assert isinstance(record.edge_decision, Decision)
            assert record.offloaded == (record.cloud_decision is not None)

    def test_latency_identity_per_record(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.6, edge_ms=50.0,
                            cloud_ms=750.0, rtt_ms=50.0)
        trace = run_episode(open_highway_config(), (), cfg, seed=0, steps=150)
        for record in trace.records:
            expected = 50.0 + (800.0 if record.offloaded else 0.0)
            assert record.latency_ms == expected

    def test_bytes_conservation(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.6)
        trace = run_episode(open_highway_config(), (), cfg, seed=2, steps=150)
        offloads = sum(1 for r in trace.records if r.offloaded)
        assert trace.summary.total_bytes_up == offloads * cfg.uplink_bytes_per_sample

    def test_latency_sandwich(self):
        means = {}
        for mode in ("EdgeOnly", "Collaborative", "CloudOnly"):
            trace = run_episode(open_highway_config(), (),
                                OffloadConfig(mode=mode, tau=0.6), seed=0, steps=150)
            means[mode] = trace.summary.mean_latency_ms
        assert means["EdgeOnly"] <= means["Collaborative"] <= means["CloudOnly"]

    def test_offload_rate_monotone_in_tau(self):
        rates = []
        for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
            trace = run_episode(corridor_config(), corridor_obstacle(),
                                OffloadConfig(mode="Collaborative", tau=tau),
                                seed=0, steps=250)
            rates.append(trace.summary.offload_rate)
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_byte_identical_reruns(self):
        cfg = OffloadConfig(mode="Collaborative", tau=0.0)
        first = run_episode(corridor_config(), corridor_obstacle(), cfg, seed=5, steps=200)
        second = run_episode(corridor_config(), corridor_obstacle(), cfg, seed=5, steps=200)
        assert trace_lines(first) == trace_lines(second)

    def test_collision_flags_in_edge_only_obstacle_run(self):
        trace = run_episode(obstacle_zone_config(), obstacle_zone_injections(120),
                            OffloadConfig(mode="EdgeOnly"), seed=0, steps=120)
        assert trace.summary.collision_count > 0

    @pytest.mark.parametrize("change", [{}, {"window": 30}, {"method": "mmd"},
                                        {"alpha": 0.01}, {"n_perm": 30}])
    def test_a_burn_in_serves_every_detector_setting(self, monkeypatch, change):
        # the burn-in depends on neither the mode nor the detector settings
        burns = _made_burn_ins(monkeypatch)
        cfg = OffloadConfig(mode="Collaborative", tau=0.0, n_ref=60, window=20)
        configs = [cfg, replace(cfg, **change)]
        traces = run_episodes(corridor_config(), corridor_obstacle(), configs, seed=2,
                              steps=80)
        assert len(burns) == 1
        for config, shared in zip(configs, traces):
            own = run_episode(corridor_config(), corridor_obstacle(), config, seed=2, steps=80)
            assert trace_lines(shared) == trace_lines(own)

    @pytest.mark.parametrize("seed", [-1, 2.0, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=60, window=20)
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ValueError, match=message):
            run_episode(corridor_config(), (), cfg, seed=seed, steps=5)

    @pytest.mark.parametrize("field", ["edge_ms", "cloud_ms", "rtt_ms"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_latency_rejected(self, field, value):
        config = OffloadConfig(**{field: value})
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            config.validate()
        with pytest.raises(ValueError, match=field):
            run_episode(corridor_config(), (), config, seed=0, steps=5)

    @pytest.mark.parametrize("steps", [0, -1, True, False, 2.0, "3", None])
    def test_steps_must_be_a_positive_integer(self, steps):
        # True ran one step and wrote a header load_trace rejects; 2.0 made range() raise
        message = f"steps must be a positive integer, got {steps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_episode(corridor_config(), (), OffloadConfig(), seed=0, steps=steps)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_episodes(corridor_config(), (), [OffloadConfig()], seed=0, steps=steps)

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_drift_report_absent_until_window_fills(self, monkeypatch, method):
        tested = _count_tested_windows(monkeypatch)
        cfg = OffloadConfig(mode="Collaborative", method=method, window=40)
        trace = run_episode(corridor_config(), (), cfg, seed=0, steps=60)
        for record in trace.records:
            assert (record.drift_report is None) == (record.step < 39)
        # the empty corridor's features are constant: one distinct window
        assert tested == {"predict": 1, "predict_windows": 0}
        assert len({id(r.drift_report) for r in trace.records[39:]}) == 1

    @pytest.mark.parametrize("mode", ["EdgeOnly", "CloudOnly"])
    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_deferred_reports_equal_a_window_slid_over_the_features(
        self, monkeypatch, mode, method
    ):
        tested = _count_tested_windows(monkeypatch)
        cfg = OffloadConfig(mode=mode, method=method, n_ref=40, window=12, n_perm=30)
        shift = DriftInjection(kind="TrafficPatternShift", start_step=20, end_step=40,
                               speed_offset=-6.0)
        trace = run_episode(open_highway_config(), (shift,), cfg, seed=1, steps=60)
        # no decision waits for a report, so no window is tested during the episode
        assert tested["predict"] == 0
        detector = _fitted(open_highway_config(), cfg, seed=1)
        window = SlidingWindow(detector)
        for record in trace.records:
            window.push(record.feature)
            if not window.full:
                assert record.drift_report is None
                continue
            expected = predict(detector, window)
            assert record.drift_report.statistic.tolist() == expected.statistic.tolist()
            assert record.drift_report.p_values.tolist() == expected.p_values.tolist()
            assert record.drift_report.is_drift is expected.is_drift

    @pytest.mark.parametrize("mode", ["EdgeOnly", "CloudOnly"])
    @pytest.mark.parametrize("steps", [5, 12, 13, 40])
    def test_deferred_drift_report_absent_until_window_fills(self, mode, steps):
        cfg = OffloadConfig(mode=mode, n_ref=40, window=12)
        trace = run_episode(open_highway_config(), (), cfg, seed=0, steps=steps)
        reports = [r.drift_report for r in trace.records]
        assert len(reports) == steps
        assert reports[:11] == [None] * min(steps, 11)
        assert all(r is not None for r in reports[11:])


def _made_burn_ins(monkeypatch) -> list[tuple[list[np.ndarray], list[dict]]]:
    """Every burn-in the loop makes from now on, in order: its features and
    a copy of its entries, as the loop drops each entry once it has passed it."""
    made = []
    real = orchestrator._burn_in

    def burn_in(*args):
        features, entries = real(*args)
        made.append((features, list(entries)))
        return features, entries

    monkeypatch.setattr(orchestrator, "_burn_in", burn_in)
    return made


def _burn_in_features(scenario, n_ref: int, seed: int) -> list[np.ndarray]:
    """The features of the seed's burn-in: an injection-free EdgeOnly
    episode of ``n_ref`` steps."""
    trace = run_episode(scenario, (), OffloadConfig(mode="EdgeOnly", n_ref=n_ref), seed,
                        steps=n_ref)
    return [record.feature for record in trace.records]


def _fitted(scenario, config: OffloadConfig, seed: int):
    """The detector ``run_episodes`` fits for ``config``: fitted to the
    features of the seed's burn-in."""
    return fit(_burn_in_features(scenario, config.n_ref, seed), method=config.method,
               alpha=config.alpha, window=config.window, seed=seed, n_perm=config.n_perm)


def _count_tested_windows(monkeypatch) -> dict[str, int]:
    """Count the windows the loop's drift monitors test from now on: one per
    ``predict`` call of a streaming monitor, and each window
    ``predict_windows`` is asked to test. The MMD ``predict_windows`` calls
    ``predict`` for each of its windows; those calls are not counted again."""
    tested = {"predict": 0, "predict_windows": 0}
    predict_one, predict_some = drift.predict, drift.predict_windows
    in_batch = []

    def counting_predict(detector, window):
        tested["predict"] += not in_batch
        return predict_one(detector, window)

    def counting_predict_windows(detector, samples, starts):
        tested["predict_windows"] += len(starts)
        in_batch.append(True)
        try:
            return predict_some(detector, samples, starts)
        finally:
            in_batch.pop()

    monkeypatch.setattr(drift, "predict", counting_predict)
    monkeypatch.setattr(drift, "predict_windows", counting_predict_windows)
    return tested


def _window_features(trace, window: int) -> list[bytes | None]:
    """Per record, the bytes of its window's features, oldest first; None
    until the window fills."""
    features = [r.feature.tobytes() for r in trace.records]
    return [None] * (window - 1) + [
        b"".join(features[t : t + window]) for t in range(len(features) - window + 1)
    ]


def _runs(scenario, injections, offloads, seed) -> bool:
    """Whether ``run_episode`` accepts these settings."""
    try:
        scenario.validate()
        spawn_scenario(scenario, seed)
        for injection in injections:
            validate_injection(injection, scenario.lane_count)
        for offload in offloads:
            offload.validate()
    except (ValueError, TypeError):
        return False
    return True


class TestRunEpisodes:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(scenario=runnable_scenarios(), offload=runnable_offloads(),
           injections=runnable_injections(),
           noise=drift_injections(kind=st.just("SensorNoise"), start_step=st.integers(0, 10),
                                  end_step=st.integers(11, 20), sigma=st.floats(0.0, 3.0)),
           tau=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 25))
    def test_each_trace_equals_its_episode_run_alone(
        self, scenario, offload, injections, noise, tau, seed, steps
    ):
        injections = (*injections, noise)
        configs = [replace(offload, mode=mode) for mode in MODES]
        configs.append(replace(offload, mode="Collaborative", tau=tau))
        assume(_runs(scenario, injections, configs, seed))
        traces = run_episodes(scenario, injections, configs, seed=seed, steps=steps)
        assert len(traces) == len(configs)
        for config, trace in zip(configs, traces):
            alone = run_episode(scenario, injections, config, seed=seed, steps=steps)
            assert trace_lines(trace) == trace_lines(alone)

    def test_modes_and_burn_in_share_their_scenes(self, monkeypatch):
        steps = 120
        configs = [OffloadConfig(mode=mode, n_ref=40, window=12) for mode in MODES]
        # the content of each scene every call is made for, and the action of a step
        seen = {"featurize": [], "edge_decide": [], "step": [], "cloud_decide": []}
        for name, keys in seen.items():
            real = getattr(orchestrator, name)

            def counting(scene, *args, real=real, keys=keys, name=name):
                keys.append((scene.key, args[0]) if name == "step" else scene.key)
                return real(scene, *args)

            monkeypatch.setattr(orchestrator, name, counting)
        shift = DriftInjection(kind="TrafficPatternShift", start_step=40, end_step=80,
                               speed_offset=-6.0)
        traces = run_episodes(open_highway_config(), (shift,), configs, seed=3, steps=steps)
        # once per distinct scene (and action) of the burn-in and the episodes
        # together: the episodes follow the 40-step burn-in until the shift
        for keys in seen.values():
            assert len(keys) == len(set(keys))
        assert {name: len(keys) for name, keys in seen.items()} == {
            "featurize": 123, "edge_decide": 123, "step": 124, "cloud_decide": 120,
        }
        offloaded = sum(r.offloaded for trace in traces for r in trace.records)
        assert len(seen["cloud_decide"]) < offloaded

    def test_open_road_decisions_roll_out_once_per_key(self, monkeypatch):
        # the ego passes the six vehicles of open_highway and then decides
        # on an empty road; each such decision's rollouts run once per key
        policies._open_road_decision.cache_clear()
        decided, rolled_out = [], []
        real_decide, real_rollout = orchestrator.cloud_decide, policies.rollout_cost

        def counting_decide(scene):
            decided.append(scene)
            return real_decide(scene)

        def counting_rollout(scene, action, hazards=None):
            rolled_out.append(action)
            return real_rollout(scene, action, hazards)

        monkeypatch.setattr(orchestrator, "cloud_decide", counting_decide)
        monkeypatch.setattr(policies, "rollout_cost", counting_rollout)
        shift = DriftInjection(kind="TrafficPatternShift", start_step=150, end_step=250,
                               speed_offset=-6.0)
        configs = [OffloadConfig(mode=mode) for mode in MODES]
        run_episodes(open_highway_config(), (shift,), configs, seed=3, steps=300)
        # the cache shares rollouts, not cloud_decide calls
        assert len(decided) == 300
        expected, open_roads, keys = 0, 0, set()
        for scene in decided:
            candidates = len(legal_actions(scene))
            if policies._plan_hazards(scene).listed:
                expected += candidates
                continue
            open_roads += 1
            ego = scene.ego
            key = (ego.speed.hex(), ego.lane, scene.lane_count, scene.v_max.hex())
            if key not in keys:
                keys.add(key)
                expected += candidates
        assert len(rolled_out) == expected
        assert 1 <= len(keys) < open_roads

    @pytest.mark.parametrize("injections", [
        (DriftInjection(kind="SensorNoise", start_step=10, end_step=20, sigma=1.0),),
        (DriftInjection(kind="NewObstacle", start_step=0, end_step=30, lane=0,
                        position=400.0, extent_m=4.0),),
        (DriftInjection(kind="TrafficPatternShift", start_step=25, end_step=35,
                        speed_offset=-6.0),
         DriftInjection(kind="SensorNoise", start_step=5, end_step=15, sigma=0.5)),
    ], ids=["noise", "obstacle_from_0", "shift_and_noise"])
    @pytest.mark.parametrize("lockstep", [True, False])
    def test_traces_equal_a_run_that_reuses_no_burn_in_step(
        self, monkeypatch, injections, lockstep
    ):
        configs = [OffloadConfig(mode=mode, n_ref=40, window=12) for mode in MODES]

        def run():
            if lockstep:
                return run_episodes(open_highway_config(), injections, configs, seed=1,
                                    steps=60)
            return [run_episode(open_highway_config(), injections, c, seed=1, steps=60)
                    for c in configs]

        calls = []
        real = orchestrator.featurize
        monkeypatch.setattr(orchestrator, "featurize",
                            lambda *args: calls.append(args) or real(*args))
        burns = _made_burn_ins(monkeypatch)
        traces = run()
        # one burn-in per call: for all episodes in lockstep, for each one alone
        burn_of = burns * len(traces) if lockstep else list(burns)
        reused = len(calls)
        burn_in = orchestrator._burn_in
        monkeypatch.setattr(orchestrator, "_burn_in", lambda *args: (burn_in(*args)[0], []))
        expected = run()
        assert [trace_lines(t) for t in traces] == [trace_lines(t) for t in expected]
        # the first step takes over the burn-in's feature unless overlaid; an
        # episode overlaid from step 0 takes over the burn-in's steps whose
        # content it reaches once the overlay ends, alone or in lockstep
        overlaid = any(i.start_step == 0 for i in injections)
        fresh = len(calls) - reused
        assert reused < fresh
        assert all((t.records[0].feature is features[0]) is not overlaid
                   for t, (features, _) in zip(traces, burn_of))
        for i in injections:
            if i.kind == "SensorNoise":
                # inside the noise window every episode draws its own features
                for t, (features, _) in zip(traces, burn_of):
                    for step in range(i.start_step, i.end_step):
                        feature = t.records[step].feature
                        assert feature.tobytes() != features[step].tobytes()

    def test_each_distinct_window_is_tested_once(self, monkeypatch):
        steps = 120
        configs = [OffloadConfig(mode=mode, n_ref=40, window=12) for mode in MODES]
        configs.append(replace(configs[-1], tau=0.3))
        tested = _count_tested_windows(monkeypatch)
        shift = DriftInjection(kind="TrafficPatternShift", start_step=40, end_step=80,
                               speed_offset=-6.0)
        traces = run_episodes(open_highway_config(), (shift,), configs, seed=3, steps=steps)
        # each distinct window is tested once, and its report shared by
        # every record whose window holds the same features
        report_of = {}
        for trace in traces:
            for record, window in zip(trace.records, _window_features(trace, 12)):
                if window is not None:
                    assert report_of.setdefault(window, record.drift_report) is record.drift_report
        assert sum(tested.values()) == len(report_of) < len(configs) * (steps - 11)
        assert tested["predict"] > 0 and tested["predict_windows"] > 0
        # the Collaborative configs that differ only in tau see the same windows
        assert all(a.drift_report is b.drift_report
                   for a, b in zip(traces[2].records[11:], traces[3].records[11:]))

    def test_a_window_in_another_order_is_tested_apart(self, monkeypatch):
        # the features cycle through 12 reference rows: every window holds
        # each row once, in one of 12 orders, and the MMD permutations tell
        # the orders apart
        rng = np.random.default_rng(0)
        reference = rng.normal(size=(40, 15))
        cycle = reference[:12].copy()
        cycle.setflags(write=False)
        # a burn-in whose features are the reference and which leaves no
        # step to take over
        monkeypatch.setattr(orchestrator, "_burn_in", lambda *args: (reference, []))
        monkeypatch.setattr(orchestrator, "featurize",
                            lambda scene, rng: cycle[int(scene.time) % 12])
        configs = [OffloadConfig(mode=mode, method="mmd", n_ref=40, window=12, n_perm=30)
                   for mode in ("Collaborative", "EdgeOnly")]
        detector = fit(reference, method="mmd", window=12, seed=4, n_perm=30)
        tested = _count_tested_windows(monkeypatch)
        traces = run_episodes(corridor_config(), (), configs, seed=4, steps=40)
        assert tested == {"predict": 12, "predict_windows": 0}
        expected = [r.p_values.tolist()
                    for r in predict_windows(detector, np.tile(cycle, (4, 1))[:40])]
        for trace in traces:
            assert [r.drift_report.p_values.tolist() for r in trace.records[11:]] == expected
        assert len({p[0] for p in expected}) > 3

    def test_noisy_windows_share_no_report_between_episodes(self):
        # the ego closes on an obstacle: EdgeOnly accelerates and CloudOnly
        # brakes from step 0, so their noisy features part after it
        scenario = replace(corridor_config(), ego_speed=8.0)
        injections = (
            DriftInjection(kind="NewObstacle", start_step=0, end_step=60, lane=0,
                           position=30.0, extent_m=4.0),
            DriftInjection(kind="SensorNoise", start_step=0, end_step=60, sigma=1.0),
        )
        configs = [OffloadConfig(mode=mode, n_ref=40, window=12)
                   for mode in ("EdgeOnly", "CloudOnly")]
        edge, cloud = run_episodes(scenario, injections, configs, seed=0, steps=40)
        assert edge.records[0].feature.tobytes() == cloud.records[0].feature.tobytes()
        assert edge.records[1].feature.tobytes() != cloud.records[1].feature.tobytes()
        reports = [{id(r.drift_report) for r in trace.records[11:]} for trace in (edge, cloud)]
        assert len(reports[0]) == len(reports[1]) == 29
        assert not reports[0] & reports[1]

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_record_arrays_are_read_only(self, method):
        configs = [OffloadConfig(mode=m, method=method, n_ref=40, window=12, n_perm=30)
                   for m in MODES]
        traces = run_episodes(open_highway_config(), (), configs, seed=3, steps=30)
        for trace in traces:
            record = trace.records[20]
            for array in (record.feature, record.drift_report.p_values,
                          record.drift_report.statistic):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = -1.0

    def test_a_key_is_formed_only_for_an_equal_ego_on_another_object(self, monkeypatch):
        formed = []
        real = orchestrator.Scene.__dict__["key"].func
        monkeypatch.setattr(orchestrator.Scene, "key",
                            property(lambda scene: formed.append(scene) or real(scene)))
        scene = spawn_scenario(open_highway_config(), 0)
        entries = [{"scene": scene}]
        # the very scene object, and a scene with another ego: no key
        assert orchestrator._entry_of(scene, entries) is entries[0]
        moved = replace(scene, ego=replace(scene.ego, position=scene.ego.position + 1.0))
        assert orchestrator._entry_of(moved, entries) is entries[1]
        assert formed == []
        # an equal ego on another object: the keys decide
        twin, later = replace(scene), replace(scene, time=scene.time + 1.0)
        assert orchestrator._entry_of(twin, entries) is entries[0]
        assert orchestrator._entry_of(later, entries) is entries[2]
        assert [entry["scene"] for entry in entries] == [scene, moved, later]
        assert set(map(id, formed)) == {id(scene), id(twin), id(later)}
        # an episode that follows the burn-in stands on its very scenes
        formed.clear()
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=12)
        run_episodes(open_highway_config(), (), [cfg], seed=0, steps=20)
        assert formed == []

    def test_one_episode_takes_over_a_burn_in_step_it_reaches_by_content(self, monkeypatch):
        # a zero-sigma noise overlay changes no value, but the episode steps
        # its own scenes until the overlay ends
        burns = _made_burn_ins(monkeypatch)
        overlay = DriftInjection(kind="SensorNoise", start_step=0, end_step=5, sigma=0.0)
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=12)
        trace = run_episode(open_highway_config(), (overlay,), cfg, seed=0, steps=10)
        ((features, entries),) = burns
        for step, record in enumerate(trace.records):
            assert record.feature.tobytes() == features[step].tobytes()
            assert (record.feature is features[step]) is (step >= 5)
            assert (record.edge_decision is entries[step]["Edge"]) is (step >= 5)

    def test_episodes_that_commute_two_lane_changes_share_one_entry(self, monkeypatch):
        # from lane 1 EdgeOnly changes left and back, CloudOnly right and
        # back: at step 2 both stand on equal scenes, on distinct objects
        def deciding(source, moves):
            def decide(scene, *args):
                action = moves.get(scene.ego.lane, Action.KEEP)
                return Decision(action=action, rationale=("r",), confidence=0.9, source=source)
            return decide

        left, right = Action.LANE_CHANGE_LEFT, Action.LANE_CHANGE_RIGHT
        monkeypatch.setattr(orchestrator, "edge_decide", deciding("Edge", {1: left, 2: right}))
        monkeypatch.setattr(orchestrator, "cloud_decide", deciding("Cloud", {1: right, 0: left}))
        # an overlay at every step, so no episode takes over a burn-in step
        overlay = DriftInjection(kind="SensorNoise", start_step=0, end_step=3, sigma=0.0)
        configs = [OffloadConfig(mode=mode, n_ref=40, window=12)
                   for mode in ("EdgeOnly", "CloudOnly")]
        edge, cloud = run_episodes(replace(open_highway_config(), ego_lane=1), (overlay,),
                                   configs, seed=0, steps=3)
        assert [r.executed_action for r in edge.records] == [left, right, left]
        assert [r.executed_action for r in cloud.records][:2] == [right, left]
        shared = [a.feature is b.feature and a.edge_decision is b.edge_decision
                  for a, b in zip(edge.records, cloud.records)]
        assert shared == [True, False, True]

    def test_a_collaborative_window_is_filled_only_on_a_miss(self, monkeypatch):
        pushed = []
        real_push = SlidingWindow.push
        monkeypatch.setattr(SlidingWindow, "push",
                            lambda window, sample: pushed.append(1) or real_push(window, sample))
        cfg = OffloadConfig(mode="Collaborative", tau=0.0, method="mmd", n_ref=40, window=12,
                            n_perm=30)
        trace = run_episode(corridor_config(), corridor_obstacle(), cfg, seed=0, steps=200)
        # the samples of each window the memo misses that no earlier missed
        # window held, as SlidingWindow.fill passes them
        features = [r.feature.tobytes() for r in trace.records]
        seen, passed, expected = set(), 0, 0
        for stop in range(12, len(features) + 1):
            key = tuple(features[stop - 12 : stop])
            if key not in seen:
                seen.add(key)
                expected += stop - max(passed, stop - 12)
                passed = stop
        assert len(pushed) == expected < len(features)
        reports = predict_windows(_fitted(corridor_config(), cfg, seed=0),
                                  [r.feature for r in trace.records])
        for record, report in zip(trace.records[11:], reports):
            assert record.drift_report.statistic.tolist() == report.statistic.tolist()
            assert record.drift_report.p_values.tolist() == report.p_values.tolist()

    def test_a_burn_in_must_have_the_largest_n_ref(self, monkeypatch):
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=12)
        configs = [cfg, replace(cfg, mode="CloudOnly", n_ref=60)]
        burns = _made_burn_ins(monkeypatch)
        traces = run_episodes(open_highway_config(), (), configs, seed=2, steps=50)
        assert [len(features) for features, _ in burns] == [60]
        # each detector is fitted to its own prefix of the one burn-in
        for config, trace in zip(configs, traces):
            alone = run_episode(open_highway_config(), (), config, seed=2, steps=50)
            assert trace_lines(trace) == trace_lines(alone)

    @settings(max_examples=15, deadline=None)
    @given(scenario=st.sampled_from([corridor_config(), open_highway_config()]),
           mode=st.sampled_from(MODES), n_ref=st.integers(30, 80),
           seed=st.integers(0, 2**32 - 1))
    def test_detectors_are_fitted_to_an_edge_only_episode(self, scenario, mode, n_ref, seed):
        fitted = []
        real_fit = orchestrator.fit
        config = OffloadConfig(mode=mode, n_ref=n_ref, window=12, n_perm=20)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orchestrator, "fit", lambda reference, **kw: fitted.append(
                np.asarray(reference)) or real_fit(reference, **kw))
            run_episodes(scenario, (), [config], seed=seed, steps=1)
        (reference,) = fitted
        expected = np.asarray(_burn_in_features(scenario, n_ref, seed))
        assert reference.shape == (n_ref, 15)
        assert reference.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("steps", [40, 70])
    def test_every_burn_in_entry_is_dropped_once_passed(self, monkeypatch, steps):
        made = []
        real = orchestrator._burn_in
        monkeypatch.setattr(orchestrator, "_burn_in",
                            lambda *args: made.append(real(*args)) or made[-1])
        shift = DriftInjection(kind="TrafficPatternShift", start_step=10, end_step=20,
                               speed_offset=-6.0)
        configs = [OffloadConfig(mode=mode, n_ref=40, window=12) for mode in MODES]
        run_episodes(open_highway_config(), (shift,), configs, seed=0, steps=steps)
        # taken over or overlaid, every entry of the burn-in is gone
        ((features, entries),) = made
        assert len(features) == len(entries) == 40
        assert entries == [None] * 40


def _record(step: int, offloaded: bool, latency: float, edge_action=Action.KEEP,
            cloud_action=Action.KEEP, collision=False) -> StepRecord:
    edge = Decision(action=edge_action, rationale=("r",), confidence=0.9, source="Edge")
    cloud = (
        Decision(action=cloud_action, rationale=("r",), confidence=0.9, source="Cloud")
        if offloaded else None
    )
    return StepRecord(
        step=step, feature=np.zeros(15), edge_decision=edge, drift_report=None,
        offloaded=offloaded, offload_reason="Drift" if offloaded else "None",
        cloud_decision=cloud, executed_action=cloud_action if offloaded else edge_action,
        latency_ms=latency, bytes_up=2048 if offloaded else 0, collision=collision,
    )


class TestInjectionLifecycle:
    """Each step sees the pristine scene with only the active injections
    overlaid; the effective scenes are captured at the loop's collision
    check."""

    STEPS = 24
    CONFIG = OffloadConfig(mode="EdgeOnly", n_ref=30, window=10)

    def _effective_scenes(self, monkeypatch, scenario, injections):
        scenes = []
        check_collision = orchestrator.check_collision

        def capture(scene):
            scenes.append(scene)
            return check_collision(scene)

        real_burn_in = orchestrator._burn_in

        def burn_in(*args):
            # capture from the episode's first step on, which takes over no
            # burn-in step, so each step checks its own effective scene
            features, _ = real_burn_in(*args)
            monkeypatch.setattr(orchestrator, "check_collision", capture)
            return features, []

        monkeypatch.setattr(orchestrator, "_burn_in", burn_in)
        trace = run_episode(scenario, injections, self.CONFIG, seed=0, steps=self.STEPS)
        assert len(scenes) == self.STEPS
        return trace, scenes

    def test_obstacle_seen_only_inside_window(self, monkeypatch):
        injection = DriftInjection(kind="NewObstacle", start_step=5, end_step=12,
                                   lane=0, position=1000.0, extent_m=4.0)
        trace, scenes = self._effective_scenes(monkeypatch, corridor_config(), [injection])
        inside = [5 <= i < 12 for i in range(self.STEPS)]
        assert [bool(s.obstacles) for s in scenes] == inside
        # front_same_present: the corridor is empty but for the obstacle
        assert [r.feature[5] == 1.0 for r in trace.records] == inside

    def test_noise_stops_when_window_ends(self, monkeypatch):
        injection = DriftInjection(kind="SensorNoise", start_step=3, end_step=8, sigma=2.0)
        trace, scenes = self._effective_scenes(monkeypatch, corridor_config(), [injection])
        inside = [3 <= i < 8 for i in range(self.STEPS)]
        assert [s.noise_sigma for s in scenes] == [2.0 if hit else 0.0 for hit in inside]
        # the corridor ego cruises at exactly 10 m/s; only noise perturbs it
        assert [r.feature[0] != 10.0 for r in trace.records] == inside

    @staticmethod
    def _expected_speeds(start: float, offsets: list[float]) -> list[float]:
        """Speed at the start of each step, relaxing at 1 m/s^2 toward
        ``start + offset`` of the step (the vehicle's own target is its
        initial speed)."""
        speeds = [start]
        for offset in offsets[:-1]:
            v = speeds[-1]
            speeds.append(v + max(-1.0, min(1.0, start + offset - v)))
        return speeds

    def _check_shifts(self, monkeypatch, injections):
        _, scenes = self._effective_scenes(monkeypatch, reference_config(), injections)
        offsets = [
            sum(i.speed_offset for i in injections if i.start_step <= k < i.end_step)
            for k in range(self.STEPS)
        ]
        assert [s.target_offset for s in scenes] == offsets
        # the pinned vehicle's target stays its own speed; only the offset moves
        assert all(s.others.target[0] == 21.2 for s in scenes)
        speeds = [s.others.speed[0] for s in scenes]
        assert speeds == pytest.approx(self._expected_speeds(21.2, offsets), abs=1e-9)
        return speeds

    def test_shift_moves_pinned_vehicle_and_reverts(self, monkeypatch):
        shift = DriftInjection(kind="TrafficPatternShift", start_step=2, end_step=12,
                               speed_offset=-4.0)
        speeds = self._check_shifts(monkeypatch, [shift])
        assert speeds[6:13] == pytest.approx([17.2] * 7)
        assert speeds[-1] == pytest.approx(21.2)

    def test_overlapping_shifts_add_and_revert(self, monkeypatch):
        shifts = [
            DriftInjection(kind="TrafficPatternShift", start_step=2, end_step=12,
                           speed_offset=-4.0),
            DriftInjection(kind="TrafficPatternShift", start_step=6, end_step=16,
                           speed_offset=-2.0),
        ]
        speeds = self._check_shifts(monkeypatch, shifts)
        assert speeds[8:13] == pytest.approx([15.2] * 5)
        assert speeds[-1] == pytest.approx(21.2)


class TestAggregateMetrics:
    def test_worked_arithmetic(self):
        records = [_record(i, offloaded=(i == 0), latency=850.0 if i == 0 else 50.0)
                   for i in range(10)]
        metrics = aggregate_metrics(records)
        assert metrics.offload_rate == 0.1
        assert metrics.mean_latency_ms == pytest.approx(50.0 + 0.1 * 800.0)

    def test_p95_identical_latencies(self):
        records = [_record(i, False, 42.0) for i in range(7)]
        assert aggregate_metrics(records).p95_latency_ms == 42.0

    def test_p95_nearest_rank(self):
        records = [_record(i, False, float(i + 1)) for i in range(100)]
        # nearest-rank: ceil(0.95 * 100) = 95th order statistic
        assert aggregate_metrics(records).p95_latency_ms == 95.0

    def test_empty_records_raise(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_agreement_rate(self):
        records = [
            _record(0, True, 850.0, edge_action=Action.KEEP, cloud_action=Action.KEEP),
            _record(1, True, 850.0, edge_action=Action.KEEP, cloud_action=Action.DECELERATE),
        ]
        assert aggregate_metrics(records).agreement_rate == 0.5

    def test_vacuous_denominators(self):
        records = [_record(0, False, 50.0)]
        metrics = aggregate_metrics(records)
        assert metrics.agreement_rate == 1.0
        assert metrics.in_window_offload_fraction == 0.0


class TestTraceRoundTrip:
    def test_write_load_and_recompute(self, tmp_path):
        cfg = OffloadConfig(mode="Collaborative", tau=0.0)
        trace = run_episode(corridor_config(), corridor_obstacle(), cfg, seed=3, steps=150)
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.seed == trace.seed
        assert loaded.steps == trace.steps
        assert loaded.offload == trace.offload
        assert loaded.scenario == trace.scenario
        assert loaded.injections == trace.injections
        assert loaded.summary == trace.summary
        recomputed = aggregate_metrics(loaded.records, loaded.injections,
                                       loaded.offload.window)
        assert recomputed == loaded.summary

    def test_malformed_line_names_file_and_line(self, tmp_path):
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=10)
        trace = run_episode(corridor_config(), (), cfg, seed=0, steps=20)
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        lines[5] = "{broken json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 6"):
            load_trace(path)

    @pytest.mark.parametrize("version", ["2", 1, None, "missing"])
    def test_schema_version_checked(self, tmp_path, version):
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=10)
        path = tmp_path / "trace.jsonl"
        write_trace(run_episode(corridor_config(), (), cfg, seed=0, steps=5), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if version == "missing":
            del header["schema_version"]
        else:
            header["schema_version"] = version
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 1: schema_version"):
            load_trace(path)

    @pytest.mark.parametrize("remote", [None, [], "http://localhost:1", 5])
    def test_remote_must_be_an_object(self, tmp_path, remote):
        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=10)
        path = tmp_path / "trace.jsonl"
        write_trace(run_episode(corridor_config(), (), cfg, seed=0, steps=5), path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"]["remote"] = remote
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"line 1: malformed header \(remote: must be a JSON object"):
            load_trace(path)

    def test_non_utf8_text_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes('{"schema_version": "1", "note": "caf\u00e9"}\n'.encode("latin-1"))
        with pytest.raises(ValueError, match=r"latin1\.jsonl: not UTF-8 text"):
            load_trace(path)

    def test_failed_write_keeps_the_old_trace(self, tmp_path):
        resource = pytest.importorskip("resource")
        import signal

        cfg = OffloadConfig(mode="EdgeOnly", n_ref=40, window=10)
        old = run_episode(corridor_config(), (), cfg, seed=0, steps=20)
        new = run_episode(corridor_config(), (), cfg, seed=1, steps=20)
        path = tmp_path / "trace.jsonl"
        write_trace(old, path)
        before = path.read_bytes()
        fresh = tmp_path / "fresh.jsonl"
        # A file size limit makes the write fail with EFBIG after 1 KiB.
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, limits[1]))
        try:
            with pytest.raises(OSError):
                write_trace(new, path)
            with pytest.raises(OSError):
                write_trace(new, fresh)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert len(before) > 1024
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
        write_trace(new, path)
        assert path.read_text() == "\n".join(trace_lines(new)) + "\n"

    def test_summary_survives_json_exactly(self, tmp_path):
        cfg = OffloadConfig(mode="Collaborative", tau=0.6)
        trace = run_episode(open_highway_config(), (), cfg, seed=1, steps=120)
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        assert load_trace(path).summary == trace.summary
