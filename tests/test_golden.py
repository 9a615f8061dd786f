"""Golden traces: the sha256 of every trace ``ecdrive run`` writes for a few
small configs is pinned, so a change to the world, the policies, the
detector or the serializer that alters any byte of a seeded trace fails here.

The MMD statistic is formed without BLAS, so one vehicle-rich MMD config is
hashed too, and a test runs it under two OpenBLAS kernels and compares the
bytes. For a few small MMD configs the per-step drift decisions, p-values
and offload steps are also pinned exactly, and the statistic within 1e-12
(``golden_mmd.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecdrive.cli import EXIT_OK, cmd_run
from ecdrive.trace import load_trace

_SMALL_KS = {"method": "ks", "n_ref": 30, "window": 10}


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


CASES = {
    # 40 vehicles on four lanes, every step escalated
    "dense_cloud": {
        "scenario": {
            "name": "dense",
            "lane_count": 4,
            "ego_lane": 1,
            "ego_speed": 25.0,
            "ego_position": 0.0,
            "n_random_vehicles": 40,
            "speed_range": [18.0, 28.0],
            "spawn_span": [-400.0, 1600.0],
        },
        "injections": [],
        "offload": {"mode": "CloudOnly", **_SMALL_KS},
        "seeds": [0, 1],
        "steps": 60,
    },
    # 200 vehicles at the density of dense_cloud (four lanes, a 10 km
    # spawn span): most vehicles of the reachable lanes are behind the ego
    # or past the bound of a nearer vehicle ahead that comes before them in
    # column order, so the planner leaves out their tracks
    "dense_200": {
        "scenario": {
            "name": "dense200",
            "lane_count": 4,
            "ego_lane": 1,
            "ego_speed": 25.0,
            "ego_position": 0.0,
            "n_random_vehicles": 200,
            "speed_range": [18.0, 28.0],
            "spawn_span": [-2000.0, 8000.0],
        },
        "injections": [],
        "offload": {"mode": "CloudOnly", **_SMALL_KS},
        "seeds": [0, 1],
        "steps": 60,
    },
    "traffic_shift": {
        "scenario": _open_highway(),
        "injections": [{"kind": "TrafficPatternShift", "start_step": 20, "end_step": 50,
                        "speed_offset": -6.0}],
        "offload": {"mode": "Collaborative", **_SMALL_KS},
        "modes": ["EdgeOnly", "Collaborative", "CloudOnly"],
        "seeds": [3],
        "steps": 80,
    },
    # noise is drawn from the episode's rng only inside the window
    "sensor_noise": {
        "scenario": {**_open_highway(), "name": "noisy", "spawn_lanes": [0, 1, 2]},
        "injections": [{"kind": "SensorNoise", "start_step": 15, "end_step": 40,
                        "sigma": 0.8}],
        "offload": {"mode": "Collaborative", "tau": 0.3, **_SMALL_KS},
        "seeds": [5],
        "steps": 60,
    },
    # an obstacle the edge cannot see, one lane left of the ego, next to a
    # pinned vehicle with no target speed
    "adjacent_obstacle": {
        "scenario": {
            "name": "adjacent",
            "lane_count": 3,
            "ego_lane": 0,
            "ego_speed": 20.0,
            "ego_position": 0.0,
            "n_random_vehicles": 8,
            "speed_range": [12.0, 18.0],
            "spawn_span": [60.0, 900.0],
            "spawn_lanes": [0, 2],
            "fixed_others": [{"id": 7, "lane": 1, "position": 40.0, "speed": 21.0,
                              "accel": 0.5}],
        },
        "injections": [{"kind": "NewObstacle", "start_step": 10, "end_step": 45,
                        "lane": 1, "position": 500.0, "extent_m": 6.0}],
        "offload": {"mode": "Collaborative", "tau": 0.6, **_SMALL_KS},
        "seeds": [2],
        "steps": 60,
    },
    # all three modes with sensor noise over an obstacle only the cloud
    # sees: the modes meet the same noisy scenes and then part, and each
    # draws its noise from its own rng
    "noisy_obstacle": {
        "scenario": {
            "name": "noisy_obstacle",
            "lane_count": 3,
            "ego_lane": 0,
            "ego_speed": 20.0,
            "ego_position": 0.0,
            "n_random_vehicles": 6,
            "speed_range": [18.0, 24.0],
            "spawn_span": [150.0, 1400.0],
            "spawn_lanes": [1, 2],
        },
        "injections": [
            {"kind": "SensorNoise", "start_step": 5, "end_step": 50, "sigma": 0.8},
            {"kind": "NewObstacle", "start_step": 0, "end_step": 70, "lane": 0,
             "position": 700.0, "extent_m": 6.0},
        ],
        "offload": {"mode": "Collaborative", "tau": 0.4, **_SMALL_KS},
        "modes": ["EdgeOnly", "Collaborative", "CloudOnly"],
        "seeds": [6],
        "steps": 70,
    },
    # the MMD detector at its default size on a road with traffic: the
    # kernel entries take many distinct values
    "highway_mmd": {
        "scenario": _open_highway(),
        "injections": [],
        "offload": {"mode": "Collaborative", "method": "mmd"},
        "seeds": [0],
        "steps": 200,
    },
    # the MMD detector where no decision waits for its report, so every
    # window is tested after the episode
    "deferred_mmd": {
        "scenario": _open_highway(),
        "injections": [{"kind": "TrafficPatternShift", "start_step": 20, "end_step": 50,
                        "speed_offset": -6.0}],
        "offload": {"mode": "CloudOnly", "method": "mmd", "n_ref": 40, "window": 12,
                    "n_perm": 30},
        "modes": ["EdgeOnly", "CloudOnly"],
        "seeds": [1],
        "steps": 70,
    },
    # pinned vehicles whose position, speed, accel and target speed are
    # JSON integers: the columns hold them as floats from the first scene on
    "pinned_ints": {
        "scenario": {
            "name": "pinned_ints",
            "lane_count": 3,
            "ego_lane": 1,
            "ego_speed": 24.0,
            "ego_position": 0.0,
            "n_random_vehicles": 4,
            "speed_range": [16.0, 22.0],
            "spawn_span": [200.0, 900.0],
            "fixed_others": [
                {"id": 3, "lane": 1, "position": 60, "speed": 18},
                {"id": 4, "lane": 0, "position": -20, "speed": 26, "accel": 1,
                 "target_speed": 22},
                {"id": 5, "lane": 2, "position": 35, "speed": 0},
            ],
        },
        "injections": [],
        "offload": {"mode": "Collaborative", "tau": 0.5, **_SMALL_KS},
        "modes": ["EdgeOnly", "Collaborative", "CloudOnly"],
        "seeds": [4],
        "steps": 40,
    },
}

GOLDEN = {
    "dense_cloud": {
        "dense_CloudOnly_0.jsonl":
            "8a4c75e5ad615b497275f27d301c6b686fd4eae1137dabb1713ed04e2b1fe246",
        "dense_CloudOnly_1.jsonl":
            "07cdaa268c77998cee8b489edb0f2e2e2d63fb53b841dc65a63bedf72a4f9d39",
    },
    "dense_200": {
        "dense200_CloudOnly_0.jsonl":
            "bc6804621c7426de3b7f9dd3373c765efba5199182647dc70a62fc928c682f69",
        "dense200_CloudOnly_1.jsonl":
            "2f6c0b1c6d181006f6ce53ac1c86272893bf76220ef4499c23e2149a236d2765",
    },
    "traffic_shift": {
        "open_highway_CloudOnly_3.jsonl":
            "8271c298af5409d70e456c1158156c98b80573d36e0910e5cc97971b1b39b867",
        "open_highway_Collaborative_3.jsonl":
            "ea500419e829845fdfce294520f3ff218a511e200649102bdc753cbf1a4db7ac",
        "open_highway_EdgeOnly_3.jsonl":
            "51860012075bf85c2acaf0a7ad361214d3191fd8371c8ee5434cc11c8f40d89d",
    },
    "sensor_noise": {
        "noisy_Collaborative_5.jsonl":
            "6608a11b268401ef0b5b5ace6d836b306cda0616129885794039e62df6cb519e",
    },
    "adjacent_obstacle": {
        "adjacent_Collaborative_2.jsonl":
            "eb6034b16e1be35f058b2df2341023a70c3e87117d33e5c0888993481a6fa51e",
    },
    "noisy_obstacle": {
        "noisy_obstacle_CloudOnly_6.jsonl":
            "4a8f5cc5ebe32f76040b488e1b023203c20d4def9b59eae3151e6e46065c668f",
        "noisy_obstacle_Collaborative_6.jsonl":
            "27436d22c36587850d6b7eb9b26c349d501b22f7924a77f680c10d35134d8ad5",
        "noisy_obstacle_EdgeOnly_6.jsonl":
            "59952c2d5d2a1a9ae58b169dfd777817bdad842f83da0ec130c36c55508cde7b",
    },
    "highway_mmd": {
        "open_highway_Collaborative_0.jsonl":
            "3bbed80face23b50396f79d1c400938149dd6696474c523a1740f3ce9d3a2692",
    },
    "deferred_mmd": {
        "open_highway_CloudOnly_1.jsonl":
            "cd1d9ddfe86e818c70e221c9df39d7156775ec905112212fa3e4919b98b773e3",
        "open_highway_EdgeOnly_1.jsonl":
            "e3e60c9a0eb10f453955d249277b7073ccfbe2da9f7e2e5522acfa57471adee5",
    },
    "pinned_ints": {
        "pinned_ints_CloudOnly_4.jsonl":
            "aa635a23b9dd67eaf4c0d84833009ea3d9a66f537b393f0510be66cd7a73b231",
        "pinned_ints_Collaborative_4.jsonl":
            "3baac019fa1f40c7923ac9bacb43226e50939e7384f1e3dac14b057e6f12cf18",
        "pinned_ints_EdgeOnly_4.jsonl":
            "af474eef6f54fdd72225bce75bb05934f1d3b3ef48f7fc34fac6342fae8189d9",
    },
}


def _run_hashes(tmp_path, config: dict) -> dict[str, str]:
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "output_dir": str(out)}))
    assert cmd_run(str(path)) == EXIT_OK
    return {
        trace.name: hashlib.sha256(trace.read_bytes()).hexdigest()
        for trace in sorted(out.glob("*.jsonl"))
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_traces_match_golden_hashes(tmp_path, capsys, case):
    assert _run_hashes(tmp_path, CASES[case]) == GOLDEN[case]


# A child process: prints the sha256 of a probe matrix product, then runs
# the config given as JSON into the directory given and prints the sha256
# of every trace.
_CHILD = """
import contextlib, hashlib, json, sys
from pathlib import Path
import numpy as np
rng = np.random.default_rng(0)
probe = rng.normal(size=(64, 15))
print(hashlib.sha256((probe @ probe.T).tobytes()).hexdigest(), flush=True)
from ecdrive.cli import cmd_run
out = Path(sys.argv[2])
config = out / "config.json"
config.write_text(json.dumps({**json.loads(sys.argv[1]), "output_dir": str(out / "out")}))
with contextlib.redirect_stdout(sys.stderr):
    assert cmd_run(str(config)) == 0
for trace in sorted((out / "out").glob("*.jsonl")):
    print(trace.name, hashlib.sha256(trace.read_bytes()).hexdigest())
"""


def _run_in_child(tmp_path, config: dict, coretype: str) -> tuple[str, dict[str, str]]:
    """(probe hash, trace hashes) of a run under ``OPENBLAS_CORETYPE=coretype``;
    an empty probe hash if the child died before it printed one."""
    out = tmp_path / coretype
    out.mkdir()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(config), str(out)],
                           env=env, capture_output=True, text=True, timeout=120)
    lines = child.stdout.splitlines()
    if not lines:
        return "", {}
    assert child.returncode == 0, child.stderr
    return lines[0], dict(line.split() for line in lines[1:])


def test_mmd_trace_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    config = CASES["highway_mmd"]
    probe_a, traces_a = _run_in_child(tmp_path, config, "Haswell")
    probe_b, traces_b = _run_in_child(tmp_path, config, "Prescott")
    if not probe_a or not probe_b or probe_a == probe_b:
        pytest.skip("OPENBLAS_CORETYPE Haswell and Prescott do not round a probe matrix "
                    "product differently here (not OpenBLAS, or a kernel cannot run), "
                    "so equal traces would prove nothing")
    assert traces_a == traces_b == GOLDEN["highway_mmd"]


_CORRIDOR = {"name": "corridor", "lane_count": 1, "ego_lane": 0, "ego_speed": 10.0,
             "ego_position": 0.0, "v_max": 10.0}

MMD_CASES = {
    # empty road: every kernel entry ties until the obstacle enters the window
    "corridor_obstacle": {
        "scenario": _CORRIDOR,
        "injections": [{"kind": "NewObstacle", "start_step": 40, "end_step": 80, "lane": 0,
                        "position": 580.0, "extent_m": 4.0}],
        "offload": {"mode": "Collaborative", "tau": 0.0, "method": "mmd", "n_ref": 60,
                    "window": 20},
        "seeds": [0, 1],
        "steps": 120,
    },
    "noisy_highway": {
        "scenario": {**_open_highway(), "spawn_lanes": [0, 1]},
        "injections": [{"kind": "SensorNoise", "start_step": 30, "end_step": 60, "sigma": 0.8},
                       {"kind": "TrafficPatternShift", "start_step": 70, "end_step": 100,
                        "speed_offset": -6.0}],
        "offload": {"mode": "Collaborative", "tau": 0.0, "method": "mmd", "n_ref": 45,
                    "window": 12},
        "seeds": [4],
        "steps": 120,
    },
}

GOLDEN_MMD = json.loads((Path(__file__).parent / "golden_mmd.json").read_text())


@pytest.mark.parametrize("case", sorted(MMD_CASES))
def test_mmd_decisions_match_golden(tmp_path, capsys, case):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**MMD_CASES[case], "output_dir": str(out)}))
    assert cmd_run(str(path)) == EXIT_OK
    traces = sorted(out.glob("*.jsonl"))
    assert traces
    for trace_path in traces:
        golden = GOLDEN_MMD[trace_path.name]
        records = load_trace(trace_path).records
        reports = [r.drift_report for r in records if r.drift_report is not None]
        assert records[golden["first_report"]].drift_report is not None
        assert records[golden["first_report"] - 1].drift_report is None
        assert [int(r.is_drift) for r in reports] == golden["is_drift"]
        assert [float(r.p_values[0]) for r in reports] == golden["p_value"]
        assert [r.step for r in records if r.offloaded] == golden["offload_steps"]
        statistic = [float(r.statistic[0]) for r in reports]
        assert statistic == pytest.approx(golden["statistic"], rel=0.0, abs=1e-12)
