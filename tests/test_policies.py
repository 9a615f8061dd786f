"""Policy tests: edge rule chain, cloud rollout planning, hand-traced cases."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecdrive import (
    Action,
    Obstacle,
    ScenarioConfig,
    Scene,
    VehicleState,
    check_collision,
    cloud_decide,
    edge_decide,
    lane_neighbors,
    legal_actions,
    rollout_cost,
    spawn_scenario,
    step,
)
from ecdrive import policies
from ecdrive.codec import GAP_SENTINEL
from ecdrive.highway import (
    ACCEL_CMD, DECEL_CMD, DEFAULT_DT, EFFECTS, VEHICLE_LENGTH_M, IllegalLaneChange, overlaps,
)
from ecdrive.policies import (
    G_MIN,
    HORIZON,
    T_HEADWAY,
    W_COLLISION,
    W_HEADWAY,
    W_LANE_CHANGE,
    W_SPEED,
    RolloutResult,
)

from scenarios import (
    assert_same_scene,
    full_plan,
    others_states,
    predict_hazards,
    random_scenes,
    reference_scene,
    static_obstacle_scene,
)


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

    @pytest.mark.parametrize("speed", [30.0, 31.0])
    def test_at_v_max_keeps_speed(self, speed):
        # the clamp makes Accelerate step exactly as Keep does, so the edge
        # keeps speed, with the confidence accelerating would have had
        scene = _follow(VehicleState(id=1, lane=0, position=100.0, speed=28.0), speed)
        assert scene.ego.speed >= scene.v_max
        assert_same_scene(step(scene, Action.ACCELERATE), step(scene, Action.KEEP))
        decision = edge_decide(scene)
        assert decision.action is Action.KEEP
        assert decision.rationale[0].endswith(", at the 30.0 m/s limit -> no.")
        assert decision.confidence == policies._confidence(100.0 - T_HEADWAY * speed,
                                                           policies.KAPPA_EDGE)
        below = edge_decide(_follow(VehicleState(id=1, lane=0, position=100.0, speed=28.0), 29.0))
        assert below.action is Action.ACCELERATE

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
            assert v < scene.v_max
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


class TestOneLaneChangeRule:
    """``step``, ``rollout_cost`` and ``edge_decide`` refuse a lane change
    exactly when ``legal_actions`` leaves it out, which is exactly when its
    target lane is off the road."""

    @pytest.mark.parametrize("lane_count, lane",
                             [(n, lane) for n in range(1, 5) for lane in range(n)])
    def test_every_reader_follows_legal_actions(self, lane_count, lane):
        # a slow vehicle 7 m ahead in every lane: the edge can neither
        # accelerate, keep speed nor change lanes, so it reports on both sides
        scene = Scene(
            time=0.0, lane_count=lane_count,
            ego=VehicleState(id=0, lane=lane, position=0.0, speed=10.0),
            others=tuple(VehicleState(id=1 + k, lane=k, position=7.0, speed=2.0)
                         for k in range(lane_count)),
        )
        legal = legal_actions(scene)
        rationale = edge_decide(scene).rationale
        for action in Action:
            shift = EFFECTS[action][0]
            illegal = action not in legal
            assert illegal == (not 0 <= lane + shift < lane_count)
            if illegal:
                with pytest.raises(IllegalLaneChange):
                    step(scene, action)
            else:
                assert step(scene, action).ego.lane == lane + shift
            assert math.isinf(rollout_cost(scene, action).cost) == illegal
            if shift:
                side = "left" if shift > 0 else "right"
                (line,) = (r for r in rationale if r.startswith(f"Can change lane {side}?"))
                assert (line == f"Can change lane {side}? no lane to the {side}.") == illegal


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

    def test_an_action_value_plans_as_the_action(self):
        # a slow leader ahead in the ego's lane 1 of 3; lanes 0 and 2 are open
        scene = Scene(time=0.0, lane_count=3,
                      ego=VehicleState(id=0, lane=1, position=0.0, speed=20.0),
                      others=(VehicleState(id=1, lane=1, position=30.0, speed=5.0),))
        for action in Action:
            assert rollout_cost(scene, action.value) == rollout_cost(scene, action)
        assert not rollout_cost(scene, "LaneChangeLeft").collision_predicted

    def test_an_unknown_action_raises_value_error_naming_it(self):
        with pytest.raises(ValueError, match="'Fly'"):
            rollout_cost(empty_road(10.0, lane=1), "Fly")

    def test_following_at_safe_headway_not_flagged(self):
        scene = Scene(
            time=0.0, lane_count=1,
            ego=VehicleState(id=0, lane=0, position=0.0, speed=25.0),
            others=(VehicleState(id=1, lane=0, position=45.0, speed=25.0),),
        )
        assert not rollout_cost(scene, Action.KEEP).collision_predicted


@dataclasses.dataclass(frozen=True)
class _Entity:
    lane: int
    position: float
    speed: float
    accel: float
    radius: float
    moves: bool


def _oracle_rollout(scene: Scene, action: Action, hazards=None,
                    horizon: int = HORIZON) -> RolloutResult:
    """Per-action rollout that propagates every entity itself and scans all
    lanes (``hazards`` is ignored); the shared-prediction planner must
    reproduce it bit for bit."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if action not in legal_actions(scene):
        return RolloutResult(action, math.inf, 0.0, False)
    dt = DEFAULT_DT
    ego_lane = scene.ego.lane
    if action is Action.LANE_CHANGE_LEFT:
        ego_lane += 1
    elif action is Action.LANE_CHANGE_RIGHT:
        ego_lane -= 1
    ego_v = scene.ego.speed
    ego_p = scene.ego.position
    entities = [_Entity(v.lane, v.position, v.speed, v.accel, VEHICLE_LENGTH_M, True)
                for v in others_states(scene)]
    entities += [_Entity(o.lane, o.position, 0.0, 0.0,
                         VEHICLE_LENGTH_M / 2.0 + o.extent_m / 2.0, False)
                 for o in scene.obstacles]
    positions = [e.position for e in entities]
    speeds = [e.speed for e in entities]
    collided = False
    min_gap = GAP_SENTINEL
    min_headway = math.inf
    speed_sum = 0.0
    for k in range(horizon):
        a_cmd = 0.0
        if k == 0 and action is Action.ACCELERATE:
            a_cmd = ACCEL_CMD
        elif k == 0 and action is Action.DECELERATE:
            a_cmd = DECEL_CMD
        if collided:
            ego_v_new, ego_p_new = 0.0, ego_p
        else:
            ego_v_new = min(max(ego_v + a_cmd * dt, 0.0), scene.v_max)
            ego_p_new = ego_p + 0.5 * (ego_v + ego_v_new) * dt
        new_positions = []
        new_speeds = []
        for ent, pos, spd in zip(entities, positions, speeds):
            spd_new = min(max(spd + ent.accel * dt, 0.0), scene.v_max) if ent.moves else 0.0
            new_positions.append(pos + 0.5 * (spd + spd_new) * dt)
            new_speeds.append(spd_new)
        if not collided:
            for ent, pos, pos_new in zip(entities, positions, new_positions):
                if ent.lane != ego_lane:
                    continue
                if overlaps(pos - ego_p, pos_new - ego_p_new, ent.radius):
                    collided = True
                    ego_v_new = 0.0
                    break
        ego_v, ego_p = ego_v_new, ego_p_new
        positions, speeds = new_positions, new_speeds
        speed_sum += ego_v
        if collided:
            min_gap = 0.0
            min_headway = 0.0
        else:
            front = [p - ego_p for ent, p in zip(entities, positions)
                     if ent.lane == ego_lane and p >= ego_p]
            gap = min(front) if front else GAP_SENTINEL
            min_gap = min(min_gap, gap)
            min_headway = min(min_headway, gap / ego_v if ego_v > 0 else math.inf)
    mean_speed = speed_sum / horizon
    headway_term = (0.0 if math.isinf(min_headway)
                    else max(0.0, T_HEADWAY - min_headway) / T_HEADWAY)
    is_lc = action in (Action.LANE_CHANGE_LEFT, Action.LANE_CHANGE_RIGHT)
    cost = (W_COLLISION * collided + W_SPEED * (scene.v_max - mean_speed)
            + W_LANE_CHANGE * is_lc + W_HEADWAY * headway_term)
    return RolloutResult(action, cost, min_gap, collided)


def _follow(lead: VehicleState, speed: float = 10.0) -> Scene:
    return Scene(time=0.0, lane_count=2,
                 ego=VehicleState(id=0, lane=0, position=0.0, speed=speed), others=(lead,))


def _road(speed: float = 10.0, others=(), obstacles=()) -> Scene:
    """Ego at 0 m in lane 0 of 2. At ``speed`` 10 and horizon 3 its three
    paths reach from e_lo = 0 m (the start) to e_hi = 35 m (accelerating)."""
    return Scene(time=0.0, lane_count=2,
                 ego=VehicleState(id=0, lane=0, position=0.0, speed=speed),
                 others=others, obstacles=obstacles)


def _on_the_bounds() -> Scene:
    """At horizon 3: lo - e_hi == r (ahead) and hi - e_lo == -r (behind),
    for obstacles (r = 4.5) and standing vehicles (r = 5)."""
    return _road(others=(VehicleState(1, 0, 40.0, 0.0), VehicleState(2, 0, -5.0, 0.0)),
                 obstacles=(Obstacle(0, 39.5, 4.0), Obstacle(0, -4.5, 4.0)))


def _all_hazards(scene: Scene) -> dict[int, tuple[int, float, list[float]]]:
    """Entity index -> (lane, radius, track) of every hazard on the road,
    in any lane."""
    lanes = {*scene.others.lane, *(o.lane for o in scene.obstacles)}
    return {index: (lane, radius, track)
            for index, lane, radius, track in predict_hazards(scene, lanes)}


def _hazard_classes(scene: Scene) -> dict[int, str]:
    """Entity index -> the class of ``_plan_hazards`` that each reachable
    hazard falls in, recomputed from the definitions."""
    paths = policies._plan_hazards(scene).paths
    reach = [p for positions, _ in paths.values() for p in positions]
    classes = {}
    for i, (lane, radius, track) in sorted(_all_hazards(scene).items()):
        if abs(lane - scene.ego.lane) > 1:
            continue
        if radius > 0 and max(track) - min(reach) <= -radius:
            classes[i] = "behind"
        elif radius > 0 and min(track) - max(reach) >= radius:
            classes[i] = "ahead"
        else:
            classes[i] = "near"
    return classes


class TestSharedHazardPrediction:
    def test_matches_per_action_oracle(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(scene=random_scenes())
        # the nearest vehicle ahead is stopped by the clamp at 0, then at v_max
        @example(scene=_follow(VehicleState(1, 0, 60.0, 0.5, accel=-3.0)))
        @example(scene=_follow(VehicleState(1, 0, 20.0, 29.8, accel=2.0), 29.5))
        @example(scene=_on_the_bounds())
        # 0.25 m inside those bounds the same vehicles are hit: accelerating
        # reaches the one ahead, changing left starts beside the one behind
        @example(scene=_road(others=(VehicleState(1, 0, 39.75, 0.0),
                                     VehicleState(2, 1, -4.75, 0.0))))
        # two hazards ahead that swap order within the horizon
        @example(scene=_road(others=(VehicleState(1, 0, 60.0, 28.0),
                                     VehicleState(2, 0, 70.0, 10.0))))
        # an obstacle at -0.0 with the ego at 0.0
        @example(scene=_road(obstacles=(Obstacle(0, -0.0, 4.0),)))
        # a standing ego (paths 0..5 m); obstacles with extent 0 (r = 2.5),
        # one near and one on the ahead bound
        @example(scene=_road(0.0, others=(VehicleState(1, 1, 30.0, 20.0),),
                             obstacles=(Obstacle(0, 4.0, 0.0), Obstacle(0, 7.5, 0.0))))
        # radii 0 and below are always checked one by one: read as behind or
        # ahead, these two would miss the hits of changing left and of
        # accelerating
        @example(scene=_road(obstacles=(Obstacle(1, 0.0, -5.0), Obstacle(0, 34.0, -9.0))))
        # vehicles and obstacles two and three lanes from the ego, one level
        # with it and one in its path were it reachable
        @example(scene=Scene(time=0.0, lane_count=4, ego=VehicleState(0, 0, 0.0, 20.0),
                             others=(VehicleState(1, 2, 0.0, 20.0),
                                     VehicleState(2, 0, 50.0, 15.0, accel=-1.0),
                                     VehicleState(3, 3, 30.0, 5.0)),
                             obstacles=(Obstacle(2, 10.0, 4.0), Obstacle(3, 40.0, 2.0),
                                        Obstacle(1, 60.0, 4.0))))
        # only far hazards: an open road at v_max in the leftmost lane
        @example(scene=Scene(time=0.0, lane_count=4, ego=VehicleState(0, 3, 0.0, 30.0),
                             others=(VehicleState(1, 1, 20.0, 10.0),
                                     VehicleState(2, 0, 10.0, 30.0)),
                             obstacles=(Obstacle(1, 15.0, 3.0),)))
        def check(scene):
            for action in Action:  # illegal lane changes included
                result = rollout_cost(scene, action)
                expected = _oracle_rollout(scene, action)
                assert result == expected and repr(result) == repr(expected)
                seen.add("illegal" if math.isinf(result.cost) else
                         "collision" if result.collision_predicted else "clean")
            # an open-road decision cached under the oracle must not serve
            # the real call, nor one cached earlier the oracle's
            policies._open_road_decision.cache_clear()
            with mock.patch.object(policies, "rollout_cost", _oracle_rollout):
                expected = cloud_decide(scene)
            policies._open_road_decision.cache_clear()
            decision = cloud_decide(scene)
            assert decision == expected and repr(decision) == repr(expected)
            # hazards two or more lanes away do not change the plan
            reduced, kept = _without_far_hazards(scene)
            plan, reduced_plan = (policies._plan_hazards(s) for s in (scene, reduced))
            _same_plan(reduced_plan, plan)
            assert reduced_plan.listed == [kept.index(i) for i in plan.listed]
            if len(kept) < len(scene.others) + len(scene.obstacles):
                seen.add("far")
            for v in others_states(scene):
                if v.speed + v.accel * DEFAULT_DT < 0:
                    seen.add("clamp at 0")
                if v.speed + v.accel * DEFAULT_DT > scene.v_max:
                    seen.add("clamp at v_max")
            seen.update(_hazard_classes(scene).values())

        check()
        # the scenes must reach every branch for the property to mean much
        assert seen == {"illegal", "collision", "clean", "clamp at 0", "clamp at v_max",
                        "near", "ahead", "behind", "far"}

    def test_examples_sit_on_the_pruning_bounds(self):
        # every hazard of _on_the_bounds is exactly on a bound, so the plan
        # keeps none of them as near
        plan = policies._plan_hazards(_on_the_bounds())
        reach = [p for positions, _ in plan.paths.values() for p in positions]
        assert (min(reach), max(reach)) == (0.0, 35.0)
        assert plan.near == {}
        assert plan.ahead == {0: [39.5] * 4}


def _listed_only(scene: Scene, listed) -> Scene:
    """``scene`` with only the hazards whose entity indices are ``listed``."""
    others = others_states(scene)
    n = len(others)
    return dataclasses.replace(
        scene,
        others=tuple(others[i] for i in listed if i < n),
        obstacles=tuple(scene.obstacles[i - n] for i in listed if i >= n),
    )


def _without_far_hazards(scene: Scene) -> tuple[Scene, list[int]]:
    """``scene`` without the hazards two or more lanes from the ego, and
    the entity indices of the hazards it keeps, ascending."""
    lanes = [*scene.others.lane, *(o.lane for o in scene.obstacles)]
    kept = [i for i, lane in enumerate(lanes) if abs(lane - scene.ego.lane) <= 1]
    return _listed_only(scene, kept), kept


def _same_plan(actual, expected) -> None:
    """Equal paths, near hazards and ahead minima, by ``==`` and by ``repr``
    (which tells -0.0 from 0.0), whatever order the lanes were met in."""
    for a, b in zip(actual[:3], expected[:3]):
        a, b = sorted(a.items()), sorted(b.items())
        assert a == b and repr(a) == repr(b)


def _running_cut(scene: Scene) -> tuple[dict[int, str], list[int]]:
    """The rules of ``_plan_hazards``, recomputed: vehicle index -> the rule
    that leaves out its track ("behind by its bound" or "past the cut"),
    for the vehicles of the reachable lanes it applies to, and the
    vehicles that set a lane's cut, in the order they set it."""
    paths = policies._plan_hazards(scene).paths
    reach = [p for positions, _ in paths.values() for p in positions]
    e_lo, e_hi, r = min(reach), max(reach), VEHICLE_LENGTH_M
    top = float(scene.v_max) if scene.v_max >= 0 else math.nan
    others = scene.others

    def bound(i):
        v = others.speed[i]
        stride = 0.5 * (max(top, v) + max(top, v)) * DEFAULT_DT
        p = others.position[i]
        for _ in range(HORIZON):
            p += stride
        return p

    rules, setters = {}, []
    for lane in range(scene.ego.lane - 1, scene.ego.lane + 2):
        cut = front = math.inf
        for i in others.by_lane.get(lane, ()):
            p = others.position[i]
            if not others.speed[i] >= 0.0:
                continue
            if bound(i) - e_lo <= -r:
                rules[i] = "behind by its bound"
            elif math.isfinite(others.accel[i]):
                if p > cut:
                    rules[i] = "past the cut"
                elif p < front and p - e_hi >= r:
                    front, cut = p, bound(i)
                    setters.append(i)
    return rules, setters


def _left_out(scene: Scene) -> dict[int, str]:
    """Vehicle index -> the rule of ``_plan_hazards`` that leaves out its
    track; see :func:`_running_cut`."""
    return _running_cut(scene)[0]


def _touched(scene: Scene) -> set[int]:
    """The vehicles whose position ``_plan_hazards`` adds to, which it does
    only to build the vehicle's track or its bound: the scene is planned
    with each position a float subclass that notes its vehicle on ``+``."""
    touched = set()

    class Position(float):
        def __add__(self, other):
            touched.add(self.index)
            return float(self) + other

    positions = []
    for i, p in enumerate(scene.others.position):
        positions.append(Position(p))
        positions[-1].index = i
    others = dataclasses.replace(scene.others, position=tuple(positions))
    policies._plan_hazards(dataclasses.replace(scene, others=others))
    return touched


def _assert_cut_is_sound(scene: Scene) -> dict[int, str]:
    """Check that ``_plan_hazards`` builds the track of every reachable
    vehicle but those :func:`_left_out` names, builds none past the cut,
    and that each vehicle past the cut has, earlier in its lane's column
    order, a kept ahead vehicle whose track lies strictly below its own in
    every row. Returns ``_left_out(scene)``."""
    rules = _left_out(scene)
    others, touched = scene.others, _touched(scene)
    reachable = {i for i, lane in enumerate(others.lane) if abs(lane - scene.ego.lane) <= 1}
    assert reachable - set(rules) <= touched
    past = {i for i, rule in rules.items() if rule == "past the cut"}
    assert not past & touched
    hazards, classes = _all_hazards(scene), _hazard_classes(scene)
    for j in past:
        lane, _, track = hazards[j]
        assert any(
            classes[m] == "ahead" and m not in rules
            and all(low < high for low, high in zip(hazards[m][2], track))
            for m in others.by_lane[lane] if m < j
        ), j
    return rules


def _lane_of(lane: int, *vehicles) -> Scene:
    """``_road`` (e_lo = 0 m, e_hi = 35 m) with ``vehicles``, given as
    (position, speed, accel), in lane ``lane``, ids from 1."""
    return _road(others=tuple(VehicleState(k + 1, lane, p, v, accel=a)
                              for k, (p, v, a) in enumerate(vehicles)))


_NAN = float("nan")


class TestPrunedPlan:
    """The plan leaves out tracks that cannot change it, and is, bit for
    bit, the plan built from every hazard's full track."""

    def test_equals_the_plan_of_every_full_track(self):
        seen = set()
        wide = st.floats(-400.0, 1600.0)

        @settings(max_examples=200, deadline=None)
        @given(scene=random_scenes() | random_scenes(positions=wide)
               | random_scenes(positions=st.sampled_from((-95.0, -5.0, 40.0, 130.0, 190.0))))
        # exactly on the bound U = P_0 + 3 * 30 of a vehicle at v_max
        # (behind, left out), and 0.25 m inside it (near)
        @example(scene=_road(others=(VehicleState(1, 0, -95.0, 30.0),
                                     VehicleState(2, 1, -94.75, 30.0))))
        # after the vehicle that sets the cut (60 + 3 * 30 = 150), one that
        # starts exactly on it ties its last position and is kept; one
        # 0.25 m beyond it is left out
        @example(scene=_lane_of(0, (60.0, 30.0, 0.0), (150.0, 0.0, 0.0), (150.25, 5.0, 0.0)))
        # speeds clamped at 0 and at v_max, behind and ahead
        @example(scene=_lane_of(0, (-200.0, 0.5, -3.0), (-100.0, 29.8, 2.0),
                                (50.0, 0.5, -3.0), (300.0, 29.8, 2.0), (400.0, 1.0, -3.0)))
        # hand-built speeds above v_max (40 m/s: U = P_0 + 3 * 40, so the
        # one at -95 m is near, and so is the one at 100 m/s from -125 m,
        # below the bound of v_max) and below 0
        @example(scene=_lane_of(1, (-125.0, 40.0, 0.0), (-95.0, 40.0, 0.0), (60.0, 40.0, 0.0),
                                (200.0, -5.0, 1.0), (-300.0, -1.0, 0.0), (500.0, 31.0, 0.0),
                                (-125.0, 100.0, 0.0)))
        # the nearest ahead at 40 m/s ends at 155 m, past 60 + 3 * 30: the
        # vehicle at 152 m holds the last row's minimum
        @example(scene=_lane_of(0, (60.0, 40.0, 0.0), (152.0, 0.0, 0.0)))
        # a vehicle ahead with a speed below 0 falls back near, so it sets
        # no cut that leaves out the one past it
        @example(scene=_lane_of(0, (60.0, -60.0, 0.0), (200.0, 5.0, 0.0)))
        # -0.0 and 0.0 level ahead of an ego at -100 m (e_hi = -65 m), with a
        # vehicle past them
        @example(scene=Scene(time=0.0, lane_count=2, ego=VehicleState(0, 0, -100.0, 10.0),
                             others=(VehicleState(1, 0, 0.0, 0.0), VehicleState(2, 0, -0.0, 0.0),
                                     VehicleState(3, 0, 200.0, 5.0),
                                     VehicleState(4, 1, -0.0, 0.0))))
        # hand-built NaN: a kept vehicle whose rows after the first are NaN
        # follows a left-out one (the full row's minimum skips the NaN) or
        # precedes it (the minimum is NaN); NaN speeds and positions keep
        # their tracks
        @example(scene=_lane_of(0, (500.0, 10.0, 0.0), (400.0, 10.0, _NAN), (100.0, 10.0, 0.0)))
        @example(scene=_lane_of(0, (400.0, 10.0, _NAN), (500.0, 10.0, 0.0), (100.0, 10.0, 0.0)))
        # the cut of the vehicle at 100 m leaves out the one at 500 m, beside
        # a NaN row after it, or before it, where the row minima are NaN
        @example(scene=_lane_of(0, (100.0, 10.0, 0.0), (400.0, 10.0, _NAN), (500.0, 10.0, 0.0)))
        @example(scene=_lane_of(0, (400.0, 10.0, _NAN), (100.0, 10.0, 0.0), (500.0, 10.0, 0.0)))
        @example(scene=_lane_of(0, (500.0, _NAN, 0.0), (_NAN, 10.0, 0.0), (-300.0, _NAN, 1.0),
                                (100.0, 10.0, 0.0)))
        # the nearest ahead has a NaN acceleration, so it bounds nothing: the
        # vehicle at 200 m, past its bound, holds the rows after the first,
        # which the one at 1000 m starts
        @example(scene=_lane_of(0, (200.0, 5.0, 0.0), (60.0, 10.0, _NAN)))
        @example(scene=_lane_of(0, (1000.0, 10.0, 0.0), (60.0, 10.0, _NAN), (200.0, 5.0, 0.0)))
        # an int v_max, and a v_max below 0, which turns the rules off
        @example(scene=dataclasses.replace(
            _lane_of(0, (-200.0, 20.0, 0.0), (60.0, 20.0, 0.0), (300.0, 20.0, 0.0)), v_max=30))
        @example(scene=dataclasses.replace(
            _lane_of(0, (-200.0, 20.0, 0.0), (60.0, 20.0, 0.0), (300.0, 20.0, 0.0)), v_max=-1.0))
        # under v_max -1 the tracks fall (the ego's reach is 0..4.5 m): both
        # vehicles start ahead and end near
        @example(scene=dataclasses.replace(
            _lane_of(0, (9.5, 0.0, 0.0), (9.75, 0.0, 0.0)), v_max=-1.0))
        def check(scene):
            plan, expected = policies._plan_hazards(scene), full_plan(scene)
            assert repr(plan) == repr(expected)
            if "nan" not in repr(expected):
                assert plan == expected
            seen.update(_assert_cut_is_sound(scene).values())

        check()
        assert seen == {"behind by its bound", "past the cut"}

    def test_equals_the_plan_of_every_full_track_at_200_vehicles(self):
        # the scenes of the dense_200 golden case's CloudOnly episodes: 200
        # vehicles at dense_cloud's density, so a lane's cut moves often
        config = ScenarioConfig(name="dense200", lane_count=4, ego_lane=1, ego_speed=25.0,
                                n_random_vehicles=200, speed_range=(18.0, 28.0),
                                spawn_span=(-2000.0, 8000.0))
        moved = past = 0
        for seed in (0, 1):
            scene = spawn_scenario(config, seed)
            for _ in range(60):
                plan, expected = policies._plan_hazards(scene), full_plan(scene)
                assert plan == expected and repr(plan) == repr(expected)
                past += list(_assert_cut_is_sound(scene).values()).count("past the cut")
                lanes = [scene.others.lane[i] for i in _running_cut(scene)[1]]
                moved += len(lanes) - len(set(lanes))
                scene = step(scene, cloud_decide(scene).action)
        # over the 120 plans a lane's cut moves 989 times after its first
        # and leaves out 11577 tracks
        assert moved > 240 and past > 6000, (moved, past)

    def test_examples_sit_on_the_bounds(self):
        on_bound = _road(others=(VehicleState(1, 0, -95.0, 30.0),
                                 VehicleState(2, 1, -94.75, 30.0)))
        assert _left_out(on_bound) == {0: "behind by its bound"}
        assert policies._plan_hazards(on_bound).listed == [1]
        tie = _lane_of(0, (60.0, 30.0, 0.0), (150.0, 0.0, 0.0), (150.25, 5.0, 0.0))
        assert _running_cut(tie) == ({2: "past the cut"}, [0])
        # the vehicle on the bound has its track built, and the one past it not
        assert _touched(tie) == {0, 1}
        plan = policies._plan_hazards(tie)
        assert plan.ahead == {0: [60.0, 90.0, 120.0, 150.0]} and plan.listed == [0]
        for v_max in (-1.0, _NAN):
            assert _left_out(dataclasses.replace(tie, v_max=v_max)) == {}
            assert _touched(dataclasses.replace(tie, v_max=v_max)) == {0, 1, 2}


class TestPerceptionSet:
    def test_listed_hazards_decide_alike(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(scene=random_scenes() | random_scenes(positions=st.sampled_from(
                   (-12.5, -5.0, 0.0, 5.0, 40.0, 60.0, 90.0))))
        @example(scene=_on_the_bounds())
        # two hazards ahead that swap order within the horizon: both listed
        @example(scene=_road(others=(VehicleState(1, 0, 60.0, 28.0),
                                     VehicleState(2, 0, 70.0, 10.0))))
        # level with each other ahead: only the first in entity order is listed
        @example(scene=_road(others=(VehicleState(1, 0, 60.0, 10.0), VehicleState(2, 1, 80.0, 0.0),
                                     VehicleState(3, 0, 60.0, 10.0))))
        def check(scene):
            plan = policies._plan_hazards(scene)
            listed = plan.listed
            assert listed == sorted(set(listed))
            classes = _hazard_classes(scene)
            assert {i for i, c in classes.items() if c == "near"} <= set(listed)
            assert all(classes.get(i) in ("near", "ahead") for i in listed)
            dropped = {i for i, c in classes.items() if c == "ahead"} - set(listed)
            seen.update({"ahead dropped"} if dropped else ())
            hazards = _all_hazards(scene)
            lanes = [hazards[i][0] for i in listed if classes[i] == "ahead"]
            seen.update({"two ahead listed in a lane"} if len(lanes) > len(set(lanes)) else ())

            reduced = _listed_only(scene, listed)
            reduced_plan = policies._plan_hazards(reduced)
            _same_plan(reduced_plan, plan)
            assert reduced_plan.listed == list(range(len(listed)))
            for action in Action:
                result = rollout_cost(reduced, action)
                expected = rollout_cost(scene, action)
                assert result == expected and repr(result) == repr(expected)
            decision, expected = cloud_decide(reduced), cloud_decide(scene)
            assert decision == expected and repr(decision) == repr(expected)
            perceived = [r for r in decision.rationale if r.startswith("perceived:")]
            assert len(perceived) == len(listed)

        check()
        assert seen == {"ahead dropped", "two ahead listed in a lane"}


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

    @pytest.mark.parametrize("lane_count, lane", [(1, 0), (3, 0), (3, 1), (3, 2)],
                             ids=["one_lane", "rightmost", "middle", "leftmost"])
    def test_cost_lines_name_the_legal_actions_in_order(self, lane_count, lane):
        # EFFECTS' order is legal_actions' order and the tie-break order
        scene = Scene(time=0.0, lane_count=lane_count,
                      ego=VehicleState(id=0, lane=lane, position=0.0, speed=20.0),
                      others=(VehicleState(id=1, lane=lane, position=60.0, speed=15.0),))
        rationale = cloud_decide(scene).rationale
        named = [line[5:line.index("]")] for line in rationale if line.startswith("cost[")]
        assert named == [action.value for action in legal_actions(scene)]

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


@st.composite
def _open_road_scenes(draw) -> Scene:
    """Scenes whose cloud plan lists no hazard: the ego in an edge lane or
    any lane, at 0.0, -0.0, below or at ``v_max``, anywhere on the road,
    with vehicles and obstacles 200 m or more behind it, out of reach of
    any rollout, or two or more lanes away at any distance."""
    lane_count = draw(st.integers(1, 5))
    ego_lane = draw(st.sampled_from((0, lane_count - 1)) | st.integers(0, lane_count - 1))
    v_max = draw(st.sampled_from((10.0, 30.0)))
    speed = draw(st.sampled_from((0.0, -0.0, v_max)) | st.floats(0.0, v_max))
    ego_position = draw(st.floats(-1e3, 1e3))

    def hazard_lane_and_position() -> tuple[int, float]:
        lane = draw(st.integers(0, lane_count - 1))
        if abs(lane - ego_lane) <= 1:
            return lane, ego_position - draw(st.floats(200.0, 1000.0))
        return lane, ego_position + draw(st.floats(-300.0, 300.0))

    others = []
    for i in range(draw(st.integers(0, 6))):
        lane, position = hazard_lane_and_position()
        others.append(VehicleState(i + 1, lane, position, draw(st.floats(0.0, v_max)),
                                   accel=draw(st.floats(-5.0, 5.0))))
    obstacles = []
    for _ in range(draw(st.integers(0, 3))):
        lane, position = hazard_lane_and_position()
        obstacles.append(Obstacle(lane, position, draw(st.floats(0.5, 10.0))))
    return Scene(time=draw(st.floats(0.0, 500.0)), lane_count=lane_count,
                 ego=VehicleState(0, ego_lane, ego_position, speed,
                                  accel=draw(st.floats(-3.0, 2.0))),
                 others=tuple(others), obstacles=tuple(obstacles), v_max=v_max)


class TestOpenRoad:
    @settings(max_examples=150, deadline=None)
    @given(scene=_open_road_scenes())
    @example(scene=empty_road(-0.0, lane=3))
    @example(scene=empty_road(30.0, lane=0))
    def test_cached_decision_is_the_scene_decision(self, scene):
        assert not policies._plan_hazards(scene).listed
        ego = scene.ego
        road = Scene(time=0.0, lane_count=scene.lane_count,
                     ego=VehicleState(0, ego.lane, 0.0, ego.speed), v_max=scene.v_max)
        # the decide code run on the scene itself, past the cache
        expected = policies._decide(scene, policies._plan_hazards(scene))
        policies._open_road_decision.cache_clear()
        cold = cloud_decide(scene)
        warm = cloud_decide(scene)
        assert warm is cold
        policies._open_road_decision.cache_clear()
        on_road = cloud_decide(road)
        for decision in (cold, warm, on_road):
            assert decision == expected and repr(decision) == repr(expected)
        assert not any(r.startswith("perceived:") for r in expected.rationale)

    def test_signed_zero_speeds_take_separate_entries(self):
        policies._open_road_decision.cache_clear()
        decisions = [cloud_decide(empty_road(speed)) for speed in (0.0, -0.0, 0.0, -0.0)]
        info = policies._open_road_decision.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
        assert decisions[0] is decisions[2] and decisions[1] is decisions[3]
        assert decisions[0] is not decisions[1]

    def test_scene_with_a_listed_hazard_bypasses_the_cache(self):
        policies._open_road_decision.cache_clear()
        decision = cloud_decide(static_obstacle_scene(gap=40.0))
        assert any(r.startswith("perceived:") for r in decision.rationale)
        assert policies._open_road_decision.cache_info().currsize == 0


def _true_swept_collision(scene: Scene, action: Action, horizon: int = 3) -> bool:
    """Oracle: run the real simulator and sweep relative motion per step."""
    current = scene
    act = action
    for _ in range(horizon):
        nxt = step(current, act)
        for before, after in zip(others_states(current), others_states(nxt)):
            if before.lane != nxt.ego.lane:
                continue
            rel0 = before.position - current.ego.position
            rel1 = after.position - nxt.ego.position
            if overlaps(rel0, rel1, 5.0):
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
