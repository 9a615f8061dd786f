"""Policy tests: edge rule chain, cloud rollout planning, hand-traced cases."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdrive import (
    Action,
    Scene,
    VehicleState,
    check_collision,
    cloud_decide,
    edge_decide,
    lane_neighbors,
    rollout_cost,
    step,
)
from ecdrive.policies import G_MIN, T_HEADWAY, _segment_hits

from scenarios import reference_scene, static_obstacle_scene


def empty_road(speed: float = 25.0, lane: int = 0, lane_count: int = 4) -> Scene:
    return Scene(time=0.0, lane_count=lane_count,
                 ego=VehicleState(id=0, lane=lane, position=0.0, speed=speed))


def _gaps_for_lane(scene: Scene, lane: int) -> tuple[float, float]:
    """(front gap, rear gap) in ``lane``, capped at 200 m like the edge policy."""
    return tuple(200.0 if n is None else min(n.gap, 200.0) for n in lane_neighbors(scene, lane))


class TestEdgeDecide:
    def test_empty_road_accelerates_confidently(self):
        decision = edge_decide(empty_road(25.0))
        assert decision.action is Action.ACCELERATE
        assert decision.confidence >= 0.97
        assert decision.rationale[0].startswith("Can accelerate?")
        assert decision.source == "Edge"

    def test_reference_scene_accelerates(self):
        # own lane is clear; vehicle 496 sits in the adjacent left lane
        assert edge_decide(reference_scene()).action is Action.ACCELERATE

    def test_blocked_everywhere_decelerates_with_low_confidence(self):
        # front gap 6 m closing at 5 m/s, both adjacent lanes blocked
        scene = Scene(
            time=0.0, lane_count=3,
            ego=VehicleState(id=0, lane=1, position=0.0, speed=10.0),
            others=(
                VehicleState(id=1, lane=1, position=6.0, speed=5.0),    # front, closing 5
                VehicleState(id=2, lane=2, position=8.0, speed=10.0),   # front-left too close
                VehicleState(id=3, lane=2, position=-3.0, speed=10.0),  # rear-left too close
                VehicleState(id=4, lane=0, position=8.0, speed=10.0),   # front-right too close
                VehicleState(id=5, lane=0, position=-3.0, speed=10.0),  # rear-right too close
            ),
        )
        decision = edge_decide(scene)
        assert decision.action is Action.DECELERATE
        assert decision.confidence < 0.5
        assert [r.split("?")[0] for r in decision.rationale] == [
            "Can accelerate",
            "Can keep speed",
            "Can change lane left",
            "Can change lane right",
            "Falling back to braking: front gap 6.0 m.",
        ]

    def test_single_lane_reports_missing_lanes(self):
        scene = Scene(
            time=0.0, lane_count=1,
            ego=VehicleState(id=0, lane=0, position=0.0, speed=10.0),
            others=(VehicleState(id=1, lane=0, position=7.0, speed=2.0),),
        )
        decision = edge_decide(scene)
        assert decision.action is Action.DECELERATE
        assert "no lane to the left" in decision.rationale[2]
        assert "no lane to the right" in decision.rationale[3]

    def test_obstacles_are_invisible(self):
        clear = empty_road(25.0)
        blocked = static_obstacle_scene(gap=20.0, speed=25.0)
        assert edge_decide(clear).action is edge_decide(blocked).action

    def test_pure_function(self):
        scene = reference_scene()
        assert edge_decide(scene) == edge_decide(scene)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_chosen_rule_predicate_holds(self, data):
        lane_count = data.draw(st.integers(1, 4))
        ego_lane = data.draw(st.integers(0, lane_count - 1))
        v = data.draw(st.floats(0.0, 30.0))
        others = tuple(
            VehicleState(
                id=i + 1,
                lane=data.draw(st.integers(0, lane_count - 1)),
                position=data.draw(st.floats(-150.0, 150.0)),
                speed=data.draw(st.floats(0.0, 30.0)),
            )
            for i in range(data.draw(st.integers(0, 5)))
        )
        scene = Scene(time=0.0, lane_count=lane_count,
                      ego=VehicleState(id=0, lane=ego_lane, position=0.0, speed=v),
                      others=others)
        decision = edge_decide(scene)
        front, _ = _gaps_for_lane(scene, ego_lane)
        if decision.action is Action.ACCELERATE:
            v_acc = min(v + 2.0, scene.v_max)
            assert front >= G_MIN
            assert (front / v_acc if v_acc > 0 else math.inf) >= T_HEADWAY
        elif decision.action is Action.KEEP:
            assert (front / v if v > 0 else math.inf) >= T_HEADWAY
        elif decision.action in (Action.LANE_CHANGE_LEFT, Action.LANE_CHANGE_RIGHT):
            target = ego_lane + 1 if decision.action is Action.LANE_CHANGE_LEFT else ego_lane - 1
            front_t, rear_t = _gaps_for_lane(scene, target)
            assert front_t >= G_MIN + T_HEADWAY * v
            assert rear_t >= G_MIN


class TestRolloutCost:
    def test_empty_road_keep_cost(self):
        result = rollout_cost(empty_road(25.0, lane=1), Action.KEEP)
        assert result.cost == 5.0
        assert not result.collision_predicted
        assert result.predicted_min_gap == 200.0

    def test_lane_change_penalty(self):
        scene = empty_road(25.0, lane=1)
        keep = rollout_cost(scene, Action.KEEP).cost
        lcl = rollout_cost(scene, Action.LANE_CHANGE_LEFT).cost
        assert lcl == keep + 2.0

    def test_obstacle_ten_meters_ahead_collides(self):
        # hand-rolled: sweeping 0 -> 25 m crosses the obstacle interval at 10 m
        result = rollout_cost(static_obstacle_scene(gap=10.0, lane_count=1), Action.KEEP)
        assert result.collision_predicted
        assert result.cost >= 1000.0
        assert result.cost == 1080.0  # halted ego: 1000 + (30 - 0) + 50

    def test_illegal_action_costs_infinity(self):
        result = rollout_cost(empty_road(10.0, lane=0), Action.LANE_CHANGE_RIGHT)
        assert math.isinf(result.cost)

    def test_bad_horizon_raises(self):
        with pytest.raises(ValueError):
            rollout_cost(empty_road(10.0), Action.KEEP, horizon=0)

    def test_following_at_safe_headway_not_flagged(self):
        scene = Scene(
            time=0.0, lane_count=1,
            ego=VehicleState(id=0, lane=0, position=0.0, speed=25.0),
            others=(VehicleState(id=1, lane=0, position=45.0, speed=25.0),),
        )
        assert not rollout_cost(scene, Action.KEEP).collision_predicted


class TestCloudDecide:
    def test_empty_road_accelerates(self):
        decision = cloud_decide(empty_road(25.0))
        assert decision.action is Action.ACCELERATE
        assert decision.source == "Cloud"

    def test_cloud_corrects_obstacle_blind_edge(self):
        scene = static_obstacle_scene(gap=20.0, speed=25.0)
        cloud = cloud_decide(scene)
        edge = edge_decide(scene)
        assert cloud.action is Action.LANE_CHANGE_LEFT
        assert edge.action in (Action.ACCELERATE, Action.KEEP)
        assert any(r.startswith("perceived: obstacle") for r in cloud.rationale)

    def test_all_actions_collide_picks_softest_impact(self):
        # 1-lane road, obstacle 29 m out at 25 m/s: every action crashes, but
        # braking crashes one step later with motion left on the clock
        scene = static_obstacle_scene(gap=29.0, lane_count=1, speed=25.0)
        costs = {a: rollout_cost(scene, a) for a in
                 (Action.KEEP, Action.ACCELERATE, Action.DECELERATE)}
        assert all(r.collision_predicted for r in costs.values())
        assert costs[Action.KEEP].cost == 1080.0
        assert costs[Action.ACCELERATE].cost == 1080.0
        assert costs[Action.DECELERATE].cost == pytest.approx(1000.0 + (30.0 - 22.0 / 3.0) + 50.0)
        assert cloud_decide(scene).action is Action.DECELERATE

    def test_tie_breaks_follow_fixed_order(self):
        # at v = v_max both Keep and Accelerate roll out identically
        scene = Scene(time=0.0, lane_count=1,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=30.0))
        assert cloud_decide(scene).action is Action.KEEP

    def test_argmin_invariant_under_constant_cost_shift(self):
        # raising the speed baseline adds the same constant to every rollout
        # as long as no speed clamps: the chosen action must not move
        scene = Scene(
            time=0.0, lane_count=3,
            ego=VehicleState(id=0, lane=0, position=0.0, speed=15.0),
            others=(VehicleState(id=1, lane=0, position=25.0, speed=12.0),),
            v_max=30.0,
        )
        shifted = dataclasses.replace(scene, v_max=37.0)
        assert cloud_decide(scene).action is cloud_decide(shifted).action

    def test_never_picks_predicted_collision_when_avoidable(self):
        rng = np.random.default_rng(11)
        from ecdrive.highway import legal_actions
        for _ in range(300):
            lane_count = int(rng.integers(1, 4))
            scene = Scene(
                time=0.0, lane_count=lane_count,
                ego=VehicleState(id=0, lane=int(rng.integers(0, lane_count)),
                                 position=0.0, speed=float(rng.uniform(0, 30))),
                others=tuple(
                    VehicleState(id=j + 1, lane=int(rng.integers(0, lane_count)),
                                 position=float(rng.uniform(-60, 120)),
                                 speed=float(rng.uniform(0, 30)))
                    for j in range(int(rng.integers(0, 4)))
                ),
            )
            results = {a: rollout_cost(scene, a) for a in legal_actions(scene)}
            if any(not r.collision_predicted for r in results.values()):
                chosen = cloud_decide(scene).action
                assert not results[chosen].collision_predicted

    def test_pure_function(self):
        scene = static_obstacle_scene(gap=40.0)
        assert cloud_decide(scene) == cloud_decide(scene)


def _true_swept_collision(scene: Scene, action: Action, horizon: int = 3) -> bool:
    """Oracle: run the real simulator and sweep relative motion per step."""
    current = scene
    act = action
    for _ in range(horizon):
        nxt = step(current, act)
        for before, after in zip(current.others, nxt.others):
            if before.lane != nxt.ego.lane:
                continue
            rel0 = before.position - current.ego.position
            rel1 = after.position - nxt.ego.position
            if _segment_hits(rel0, rel1, 5.0):
                return True
        if check_collision(nxt):
            return True
        current, act = nxt, Action.KEEP
    return False


class TestEdgeIsSoundApproximationOfCloud:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edge_safe_actions_roll_out_clean(self, data):
        # steady vehicle-only traffic: no obstacles, no noise, targets at
        # current speeds (so the cloud's constant-acceleration prediction
        # coincides with the true dynamics)
        lane_count = data.draw(st.integers(1, 4))
        ego_lane = data.draw(st.integers(0, lane_count - 1))
        speed = data.draw(st.floats(0.0, 30.0))
        others = tuple(
            VehicleState(
                id=i + 1,
                lane=data.draw(st.integers(0, lane_count - 1)),
                position=data.draw(
                    st.floats(-150.0, 150.0).filter(lambda p: abs(p) >= 6.0)
                ),
                speed=(s := data.draw(st.floats(0.0, 30.0))),
                target_speed=s,
            )
            for i in range(data.draw(st.integers(0, 5)))
        )
        scene = Scene(time=0.0, lane_count=lane_count,
                      ego=VehicleState(id=0, lane=ego_lane, position=0.0, speed=speed),
                      others=others)
        action = edge_decide(scene).action
        if not _true_swept_collision(scene, action):
            assert not rollout_cost(scene, action).collision_predicted
