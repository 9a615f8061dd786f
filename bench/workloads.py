"""Benchmark workloads: experiment configs generated from a benchmark seed.

Each workload keeps a different layer of the per-step loop dominant:

* ``highway_sweep`` -- the paper's three-mode comparison on the open
  highway with a traffic-pattern shift; time spreads over KS ``predict``,
  the cloud rollout and ``step``. The only workload whose modes repeat the
  same burn-in.
* ``dense_cloud`` -- 40 vehicles on four lanes, CloudOnly: every step
  escalates, rollout and stepping cost grow with the entity count and the
  trace records are the largest.
* ``corridor_mmd`` -- empty single-lane corridor with a dropped obstacle and
  the MMD detector: the permutation test dominates and there are no
  vehicles, so a KS, rollout, step or trace change should show no effect.

The program only ever sees the generated config; the benchmark seed picks
the episode seeds.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0


def _open_highway() -> dict:
    return {
        "name": "open_highway",
        "lane_count": 4,
        "ego_lane": 0,
        "ego_speed": 25.0,
        "ego_position": 0.0,
        "n_random_vehicles": 6,
        "speed_range": [18.0, 24.0],
        "spawn_span": [150.0, 1400.0],
        "spawn_lanes": [0],
    }


def _dense() -> dict:
    return {
        "name": "dense_cloud",
        "lane_count": 4,
        "ego_lane": 1,
        "ego_speed": 25.0,
        "ego_position": 0.0,
        "n_random_vehicles": 40,
        "speed_range": [18.0, 28.0],
        "spawn_span": [-400.0, 1600.0],
    }


def _corridor() -> dict:
    return {
        "name": "corridor",
        "lane_count": 1,
        "ego_lane": 0,
        "ego_speed": 10.0,
        "ego_position": 0.0,
        "v_max": 10.0,
    }


# name -> (scenario, injections, offload settings, modes, episode seeds per config)
WORKLOADS = {
    "highway_sweep": (
        _open_highway,
        [{"kind": "TrafficPatternShift", "start_step": 150, "end_step": 250,
          "speed_offset": -6.0}],
        {"mode": "Collaborative", "method": "ks"},
        ["EdgeOnly", "Collaborative", "CloudOnly"],
        3,
    ),
    "dense_cloud": (
        _dense,
        [],
        {"mode": "CloudOnly", "method": "ks"},
        ["CloudOnly"],
        3,
    ),
    "corridor_mmd": (
        _corridor,
        [{"kind": "NewObstacle", "start_step": 100, "end_step": 200, "lane": 0,
          "position": 1180.0, "extent_m": 4.0}],
        {"mode": "Collaborative", "tau": 0.0, "method": "mmd"},
        ["Collaborative"],
        1,
    ),
}

STEPS = 300

# Tiny size for the self-test: short episodes, small reference sample.
TINY_STEPS = 40
TINY_OFFLOAD = {"n_ref": 30, "window": 10, "n_perm": 20}


def episode_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Episode seeds of one workload, a pure function of the benchmark seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def build_config(workload: str, seed: int, output_dir: str, tiny: bool = False) -> dict:
    """The experiment config ``ecdrive run`` receives for ``workload``."""
    scenario, injections, offload, modes, n_seeds = WORKLOADS[workload]
    offload = dict(offload)
    if tiny:
        offload.update(TINY_OFFLOAD)
        n_seeds = 1
    return {
        "scenario": scenario(),
        "injections": [dict(i) for i in injections],
        "offload": offload,
        "seeds": episode_seeds(workload, seed, n_seeds),
        "steps": TINY_STEPS if tiny else STEPS,
        "modes": list(modes),
        "output_dir": output_dir,
    }
