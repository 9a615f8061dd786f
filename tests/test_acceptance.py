"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the whole suite stays well under two
minutes on a laptop.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from scipy.special import kolmogorov as scipy_kolmogorov

from ecdrive import (
    Action,
    NoDecisionFound,
    OffloadConfig,
    describe,
    fit,
    ks_two_sample,
    mmd_permutation,
    parse_decision,
    predict_windows,
    run_episode,
)
from ecdrive.cli import EXIT_OK, cmd_run, cmd_summarize
from ecdrive.drift import median_bandwidth

from scenarios import (
    corridor_config,
    corridor_obstacle,
    obstacle_zone_config,
    obstacle_zone_injections,
    open_highway_config,
    reference_scene,
)


def criterion(number: int, name: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorator


def _null_rate(method: str, trials: int = 200) -> float:
    flags = 0
    for t in range(trials):
        rng = np.random.default_rng(t)
        reference = rng.normal(size=(200, 15))
        window = rng.normal(size=(40, 15))
        detector = fit(reference, method=method, alpha=0.05, window=40, seed=t)
        flags += predict_windows(detector, window)[0].is_drift
    return flags / trials


def _power(method: str, trials: int = 200, shift: float = 3.0) -> float:
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng(10_000 + t)
        reference = rng.normal(size=(200, 15))
        window = rng.normal(size=(40, 15))
        window[:, 0] += shift
        window[:, 3] += shift
        detector = fit(reference, method=method, alpha=0.05, window=40, seed=t)
        hits += predict_windows(detector, window)[0].is_drift
    return hits / trials


@criterion(1, "detector calibration")
def test_criterion_1_detector_calibration():
    ks_rate = _null_rate("ks")
    mmd_rate = _null_rate("mmd")
    assert ks_rate <= 0.08, f"KS false-positive rate {ks_rate} above 8%"
    assert 0.02 <= mmd_rate <= 0.09, f"MMD false-positive rate {mmd_rate} outside [2%, 9%]"


@criterion(2, "detector power")
def test_criterion_2_detector_power():
    ks_power = _power("ks")
    mmd_power = _power("mmd")
    assert ks_power >= 0.95, f"KS power {ks_power} below 95%"
    assert mmd_power >= 0.90, f"MMD power {mmd_power} below 90%"


@criterion(3, "offload localization")
def test_criterion_3_offload_localization():
    scenario = corridor_config()
    injections = corridor_obstacle()
    window = (100, 200 + 40)
    for seed in range(10):
        collab = run_episode(
            scenario, injections,
            OffloadConfig(mode="Collaborative", tau=0.0, window=40),
            seed=seed, steps=300,
        )
        offload_steps = [r.step for r in collab.records if r.offloaded]
        assert offload_steps, f"seed {seed}: no offloads at all"
        inside = sum(1 for s in offload_steps if window[0] <= s < window[1])
        fraction = inside / len(offload_steps)
        assert fraction >= 0.80, f"seed {seed}: only {fraction:.0%} of offloads in-window"

        edge = run_episode(scenario, injections, OffloadConfig(mode="EdgeOnly"),
                           seed=seed, steps=300)
        assert edge.summary.offload_rate == 0.0

        cloud = run_episode(scenario, injections, OffloadConfig(mode="CloudOnly"),
                            seed=seed, steps=300)
        assert cloud.summary.offload_rate == 1.0


@criterion(4, "cloud corrects edge on the obstacle suite")
def test_criterion_4_cloud_corrects_edge():
    scenario = obstacle_zone_config()
    steps = 120
    injections = obstacle_zone_injections(steps)
    seeds = range(20)
    collisions = {"EdgeOnly": 0, "Collaborative": 0, "CloudOnly": 0}
    for mode in collisions:
        for seed in seeds:
            trace = run_episode(scenario, injections, OffloadConfig(mode=mode),
                                seed=seed, steps=steps)
            collisions[mode] += trace.summary.collision_count > 0
    n = len(seeds)
    assert collisions["EdgeOnly"] / n >= 0.50, (
        f"EdgeOnly collided in only {collisions['EdgeOnly']}/{n} episodes"
    )
    assert collisions["Collaborative"] / n <= 0.05, (
        f"Collaborative collided in {collisions['Collaborative']}/{n} episodes"
    )
    assert collisions["CloudOnly"] == 0, (
        f"CloudOnly collided in {collisions['CloudOnly']}/{n} episodes"
    )


@criterion(5, "safety baseline")
def test_criterion_5_safety_baseline():
    scenario = open_highway_config()
    total = 0
    for seed in range(100):
        trace = run_episode(scenario, (), OffloadConfig(mode="EdgeOnly"),
                            seed=seed, steps=300)
        total += trace.summary.collision_count
    assert total == 0, f"{total} collision steps across 100 obstacle-free episodes"


@criterion(6, "latency sandwich and accounting")
def test_criterion_6_latency_accounting():
    config = OffloadConfig(mode="Collaborative", tau=0.6, edge_ms=50.0,
                           cloud_ms=750.0, rtt_ms=50.0)
    suites = [
        (open_highway_config(), (), (0, 1, 2)),
        (corridor_config(), corridor_obstacle(), (0,)),
    ]
    for scenario, injections, seeds in suites:
        for seed in seeds:
            means = {}
            for mode in ("EdgeOnly", "Collaborative", "CloudOnly"):
                trace = run_episode(
                    scenario, injections,
                    OffloadConfig(mode=mode, tau=0.6), seed=seed, steps=200,
                )
                summary = trace.summary
                means[mode] = summary.mean_latency_ms
                offloads = sum(1 for r in trace.records if r.offloaded)
                # exact closed-form recomputation from offload counts
                expected_mean = (
                    config.edge_ms * len(trace.records)
                    + (config.rtt_ms + config.cloud_ms) * offloads
                ) / len(trace.records)
                assert summary.mean_latency_ms == pytest.approx(expected_mean, abs=1e-12)
                assert summary.total_bytes_up == offloads * config.uplink_bytes_per_sample
                assert summary.mean_latency_ms == pytest.approx(
                    50.0 + 800.0 * summary.offload_rate, abs=1e-9
                )
            assert means["EdgeOnly"] <= means["Collaborative"] <= means["CloudOnly"]


def _brute_force_ks_stat(a: np.ndarray, b: np.ndarray) -> float:
    best = 0.0
    for g in np.concatenate([a, b]):
        best = max(best, abs(float((a <= g).mean()) - float((b <= g).mean())))
    return best


@criterion(7, "oracle equivalence")
def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        n_a = int(rng.integers(3, 80))
        n_b = int(rng.integers(3, 80))
        a = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2.0), size=n_a)
        b = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.5, 2.0), size=n_b)
        stat, p = ks_two_sample(a, b)
        assert stat == _brute_force_ks_stat(a, b)
        n_eff = n_a * n_b / (n_a + n_b)
        assert abs(p - float(scipy_kolmogorov(stat * math.sqrt(n_eff)))) < 1e-6

    x = rng.normal(size=(20, 6))
    mmd2, _ = mmd_permutation(x, x.copy(), bandwidth=median_bandwidth(x), seed=0)
    assert mmd2 <= 1e-9, f"identical-input mmd^2 {mmd2} above the zero floor"

    zeros = np.zeros((20, 5))
    shifted = np.zeros((20, 5))
    shifted[:, 0] = 10.0
    mmd2, _ = mmd_permutation(zeros, shifted, bandwidth=1.0, seed=0)
    assert abs(mmd2 - 2.0 * (1.0 - math.exp(-50.0))) < 1e-6


@criterion(8, "determinism end to end")
def test_criterion_8_determinism(tmp_path):
    import json

    config = {
        "scenario": {"name": "corridor", "lane_count": 1, "ego_lane": 0,
                     "ego_speed": 10.0, "ego_position": 0.0, "v_max": 10.0},
        "injections": [{"kind": "NewObstacle", "start_step": 30, "end_step": 60,
                        "lane": 0, "position": 480.0, "extent_m": 4.0}],
        "offload": {"mode": "Collaborative", "tau": 0.0, "window": 20, "n_ref": 60},
        "seeds": [0, 1],
        "steps": 80,
        "modes": ["EdgeOnly", "Collaborative"],
        "output_dir": "",
    }
    for label in ("first", "second"):
        run_cfg = dict(config, output_dir=str(tmp_path / label))
        cfg_path = tmp_path / f"{label}.json"
        cfg_path.write_text(json.dumps(run_cfg))
        assert cmd_run(str(cfg_path)) == EXIT_OK

    names = sorted(p.name for p in (tmp_path / "first").glob("*.jsonl"))
    assert len(names) == 4
    for name in names:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"

    # summarize must reproduce every embedded summary exactly (exit 0)
    assert cmd_summarize(str(tmp_path / "first" / "*.jsonl"),
                         str(tmp_path / "summary.csv")) == EXIT_OK


@criterion(9, "codec fidelity")
def test_criterion_9_codec_fidelity():
    text = describe(reference_scene())
    for token in ("25.0", "0.0", "361.18", "496", "372.81", "21.2", "0.2"):
        assert token in text, f"expected token {token} missing from description"

    lexicon = {
        "accelerate": Action.ACCELERATE,
        "decelerate": Action.DECELERATE,
        "slow down": Action.DECELERATE,
        "brake": Action.DECELERATE,
        "keep": Action.KEEP,
        "maintain": Action.KEEP,
        "change lane to the left": Action.LANE_CHANGE_LEFT,
        "change lanes to the left": Action.LANE_CHANGE_LEFT,
        "left lane change": Action.LANE_CHANGE_LEFT,
        "change lane to the right": Action.LANE_CHANGE_RIGHT,
        "change lanes to the right": Action.LANE_CHANGE_RIGHT,
        "right lane change": Action.LANE_CHANGE_RIGHT,
    }
    for phrase, expected in lexicon.items():
        assert parse_decision(f"The plan: {phrase}.") is expected

    with pytest.raises(NoDecisionFound):
        parse_decision("Nothing decision-like appears in this sentence.")
