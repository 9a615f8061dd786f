"""The struct-of-arrays vehicle columns against per-``VehicleState`` oracles.

Each oracle below is a test-local copy of the reader as it was written over
a tuple of ``VehicleState`` objects, read from the columns by
``scenarios.others_states``; the column readers must reproduce it exactly,
by ``==`` and by ``repr``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecdrive import (
    Action,
    NeighborSet,
    Obstacle,
    ScenarioConfig,
    ScenarioError,
    Scene,
    VehicleState,
    check_collision,
    cloud_decide,
    describe,
    featurize,
    lane_neighbors,
    nearest_neighbors,
    spawn_scenario,
    step,
)
from ecdrive import codec, highway
from ecdrive.codec import (
    GAP_SENTINEL,
    _count_word,
    _lane_word,
    _relative_lane,
    _slot_values,
)
from ecdrive.highway import (
    ACCEL_CMD,
    DECEL_CMD,
    DEFAULT_DT,
    VEHICLE_LENGTH_M,
    NeighborInfo,
    Vehicles,
)
from ecdrive.policies import HORIZON, _plan_hazards

from scenarios import (
    assert_same_scene,
    full_plan,
    others_states,
    predict_hazards,
    random_scenes,
)

# A few positions, the ego's 0.0 among them, so vehicles tie with each other
# and with the ego.
_TIED = st.sampled_from((-12.5, -5.0, 0.0, 5.0, 12.5, 40.0))
SCENES = st.one_of(random_scenes(), random_scenes(positions=_TIED))


def _oracle_lane_neighbors(scene: Scene, lane: int):
    ego = scene.ego
    front = rear = None
    front_gap = rear_gap = math.inf
    for veh in others_states(scene):
        if veh.lane != lane:
            continue
        gap = veh.position - ego.position
        if gap >= 0:
            if gap < front_gap:
                front, front_gap = veh, gap
        elif -gap < rear_gap:
            rear, rear_gap = veh, -gap
    return (
        None if front is None else NeighborInfo(front_gap, front.speed - ego.speed),
        None if rear is None else NeighborInfo(rear_gap, rear.speed - ego.speed),
    )


def _oracle_nearest_neighbors(scene: Scene) -> NeighborSet:
    lane = scene.ego.lane
    front_same, rear_same = _oracle_lane_neighbors(scene, lane)
    return NeighborSet(
        front_same=front_same,
        rear_same=rear_same,
        front_left=_oracle_lane_neighbors(scene, lane + 1)[0],
        front_right=_oracle_lane_neighbors(scene, lane - 1)[0],
    )


def _oracle_check_collision(scene: Scene) -> bool:
    ego = scene.ego
    for veh in others_states(scene):
        if veh.lane == ego.lane and abs(veh.position - ego.position) < VEHICLE_LENGTH_M:
            return True
    for obs in scene.obstacles:
        radius = VEHICLE_LENGTH_M / 2.0 + obs.extent_m / 2.0
        if obs.lane == ego.lane and abs(obs.position - ego.position) < radius:
            return True
    return False


def _oracle_featurize(scene: Scene, rng=None) -> np.ndarray:
    sigma = scene.noise_sigma

    def observe(value: float) -> float:
        if sigma > 0:
            return value + sigma * float(rng.standard_normal())
        return value

    slots = _oracle_nearest_neighbors(scene)
    front_same = codec._fold_obstacles_into_front(scene, slots.front_same)
    ego = scene.ego
    lane_frac = 0.0 if scene.lane_count == 1 else ego.lane / (scene.lane_count - 1)
    values = [observe(ego.speed), ego.accel, lane_frac]
    for slot in (front_same, slots.rear_same, slots.front_left, slots.front_right):
        gap, rel, present = _slot_values(slot)
        if present:
            gap = min(max(observe(gap), 0.0), GAP_SENTINEL)
            rel = observe(rel)
        values.extend((gap, rel, present))
    return np.asarray(values, dtype=np.float64)


def _oracle_predict_hazards(scene: Scene, horizon: int):
    dt = DEFAULT_DT
    v_max = scene.v_max
    others, obstacles = others_states(scene), scene.obstacles
    lanes = [v.lane for v in others] + [o.lane for o in obstacles]
    radii = [VEHICLE_LENGTH_M] * len(others) + [
        VEHICLE_LENGTH_M / 2.0 + o.extent_m / 2.0 for o in obstacles
    ]
    positions = [v.position for v in others] + [o.position for o in obstacles]
    still = [0.0] * len(obstacles)
    speeds = [v.speed for v in others] + still
    accels = [v.accel for v in others]
    rows = [positions]
    for _ in range(horizon):
        new_speeds = [min(max(s + a * dt, 0.0), v_max) for s, a in zip(speeds, accels)] + still
        positions = [
            p + 0.5 * (s + s_new) * dt for p, s, s_new in zip(positions, speeds, new_speeds)
        ]
        speeds = new_speeds
        rows.append(positions)
    return lanes, radii, rows


def _oracle_hazard_tracks(scene: Scene, horizon: int, lanes):
    """``predict_hazards``'s layout from the oracle's rows: lane by lane,
    each hazard of the lane in entity order, with its track."""
    hazard_lanes, radii, rows = _oracle_predict_hazards(scene, horizon)
    tracks = [list(track) for track in zip(*rows)]
    return [(i, lane, radii[i], tracks[i])
            for lane in lanes for i, hazard_lane in enumerate(hazard_lanes) if hazard_lane == lane]


def _oracle_describe(scene: Scene) -> str:
    ego = scene.ego
    parts = [
        f"The ego vehicle is traveling in the {_lane_word(ego.lane, scene.lane_count)} lane "
        f"of a {_count_word(scene.lane_count)}-lane road at a speed of {ego.speed:.1f} m/s, "
        f"with an acceleration of {ego.accel:.1f} m/s², "
        f"and its lane position is {ego.position:.2f} m."
    ]
    by_gap = sorted(others_states(scene), key=lambda v: (abs(v.position - ego.position), v.id))
    for veh in by_gap:
        direction = "ahead" if veh.position >= ego.position else "behind"
        parts.append(
            f"Vehicle {veh.id} is in the {_relative_lane(veh.lane - ego.lane)} lane, "
            f"{direction} by {veh.position:.2f} m, "
            f"traveling at a speed of {veh.speed:.1f} m/s, "
            f"with an acceleration of {veh.accel:.1f} m/s²."
        )
    return " ".join(parts)


def _oracle_reach(scene: Scene, horizon: int) -> tuple[float, float]:
    """The lowest and highest position of the ego over its three paths:
    one first-step command (none, accelerate, brake), then holding speed."""
    reach = []
    for a_cmd in (0.0, ACCEL_CMD, DECEL_CMD):
        v, p = scene.ego.speed, scene.ego.position
        reach.append(p)
        for _ in range(horizon):
            v_new = min(max(v + a_cmd * DEFAULT_DT, 0.0), scene.v_max)
            p = p + 0.5 * (v + v_new) * DEFAULT_DT
            v, a_cmd = v_new, 0.0
            reach.append(p)
    return min(reach), max(reach)


def _oracle_perceived(scene: Scene, horizon: int = HORIZON) -> list[str]:
    """One line per hazard in a lane the ego can reach that is neither
    behind nor ahead of every ego position, plus, per lane and step, the
    first of the ahead hazards nearest the ego, in entity order."""
    e_lo, e_hi = _oracle_reach(scene, horizon)
    lanes, radii, rows = _oracle_predict_hazards(scene, horizon)
    tracks = list(zip(*rows))
    listed, ahead = set(), {}
    for i, (lane, radius, track) in enumerate(zip(lanes, radii, tracks)):
        if abs(lane - scene.ego.lane) > 1:
            continue
        prunable = radius > 0 and radius * radius > 0
        if prunable and max(track) - e_lo <= -radius:
            continue
        if prunable and min(track) - e_hi >= radius:
            ahead.setdefault(lane, []).append(i)
        else:
            listed.add(i)
    for members in ahead.values():
        for k in range(horizon + 1):
            listed.add(min(members, key=lambda i: tracks[i][k]))
    others = others_states(scene)
    lines = []
    for i in sorted(listed):
        if i < len(others):
            veh = others[i]
            lines.append(f"perceived: vehicle {veh.id} in lane {veh.lane} at {veh.position:.2f} m, "
                         f"speed {veh.speed:.1f} m/s")
        else:
            obs = scene.obstacles[i - len(others)]
            lines.append(f"perceived: obstacle ({obs.kind}) in lane {obs.lane} at "
                         f"{obs.position:.2f} m, extent {obs.extent_m:.1f} m")
    return lines


def _oracle_validate(scene: Scene) -> None:
    if scene.lane_count < 1:
        raise ScenarioError("lane_count must be >= 1")
    others = others_states(scene)
    ids = [scene.ego.id] + [v.id for v in others]
    if len(set(ids)) != len(ids):
        raise ScenarioError("vehicle ids must be unique")
    for v in (scene.ego, *others):
        if v.speed < 0:
            raise ScenarioError(f"vehicle {v.id} has negative speed")
        if not (0 <= v.lane < scene.lane_count):
            raise ScenarioError(f"vehicle {v.id} lane {v.lane} out of range")
        if not math.isfinite(v.position):
            raise ScenarioError(f"vehicle {v.id} position not finite")


def _same(actual, expected) -> None:
    assert actual == expected and repr(actual) == repr(expected)


def _tie_scene() -> Scene:
    """Two vehicles level with each other ahead, two level behind, one level
    with the ego and stopped, one without a target speed, and obstacles."""
    vehicles = (
        VehicleState(1, 1, 30.0, 20.0, target_speed=22.0),
        VehicleState(2, 1, 30.0, 25.0, target_speed=22.0),
        VehicleState(3, 1, -10.0, 18.0, target_speed=20.0),
        VehicleState(4, 1, -10.0, 19.0),
        VehicleState(5, 2, 0.0, 0.0, accel=-1.0, target_speed=0.0),
        VehicleState(6, 0, 30.0, 21.0, target_speed=21.0),
    )
    # the obstacle at -0.0 moves to +0.0 in predicted rows, as p + 0.0 does
    return Scene(time=0.0, lane_count=3, ego=VehicleState(0, 1, 0.0, 20.0), others=vehicles,
                 obstacles=(Obstacle(lane=1, position=20.0, extent_m=2.0),
                            Obstacle(lane=0, position=-0.0, extent_m=1.0)))


class TestColumnReaders:
    @settings(max_examples=150, deadline=None)
    @given(scene=SCENES)
    @example(scene=_tie_scene())
    def test_neighbors_collision_and_hazards_match_oracle(self, scene):
        for lane in range(-1, scene.lane_count + 1):
            _same(lane_neighbors(scene, lane), _oracle_lane_neighbors(scene, lane))
        _same(nearest_neighbors(scene), _oracle_nearest_neighbors(scene))
        assert check_collision(scene) is _oracle_check_collision(scene)
        # every lane, in descending order, then the lanes the planner asks for
        ego_lane = scene.ego.lane
        for lanes in (range(scene.lane_count, -2, -1), (ego_lane - 1, ego_lane, ego_lane + 1)):
            _same(list(predict_hazards(scene, lanes)),
                  _oracle_hazard_tracks(scene, HORIZON, lanes))
        # and the planner, which builds only the tracks that can change its
        # plan, makes the plan of all of them
        assert repr(_plan_hazards(scene)) == repr(full_plan(scene))

    @settings(max_examples=100, deadline=None)
    @given(scene=SCENES, sigma=st.sampled_from((0.0, 0.5, 3.0)), seed=st.integers(0, 2**32 - 1))
    @example(scene=_tie_scene(), sigma=1.0, seed=0)
    def test_featurize_matches_oracle(self, scene, sigma, seed):
        scene = dataclasses.replace(scene, noise_sigma=sigma)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        vec, expected = featurize(scene, rng), _oracle_featurize(scene, oracle_rng)
        assert vec.tobytes() == expected.tobytes() and repr(vec) == repr(expected)
        # both drew the same number of normals
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(scene=SCENES)
    @example(scene=_tie_scene())
    def test_text_matches_oracle(self, scene):
        _same(describe(scene), _oracle_describe(scene))
        perceived = [r for r in cloud_decide(scene).rationale if r.startswith("perceived:")]
        assert perceived == _oracle_perceived(scene)

    @pytest.mark.parametrize("others, lane_count", [
        ((VehicleState(1, 0, 10.0, -1.0),), 2),
        ((VehicleState(1, 2, 10.0, 1.0),), 2),
        ((VehicleState(1, 0, 10.0, 1.0), VehicleState(2, -1, 10.0, 1.0)), 2),
        ((VehicleState(1, 0, math.inf, 1.0),), 2),
        ((VehicleState(1, 0, 10.0, 1.0), VehicleState(1, 1, 20.0, 1.0)), 2),
        ((VehicleState(0, 0, 10.0, 1.0),), 2),
        ((VehicleState(1, 0, 10.0, 1.0),), 0),
        ((VehicleState(1, 0, 10.0, 1.0), VehicleState(2, 1, 20.0, 3.0)), 2),
    ])
    def test_validate_matches_oracle(self, others, lane_count):
        scene = Scene(time=0.0, lane_count=lane_count, ego=VehicleState(0, 0, 0.0, 5.0),
                      others=others)
        try:
            _oracle_validate(scene)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as raised:
                scene.validate()
            assert str(raised.value) == str(exc)
        else:
            scene.validate()


class TestVehicleColumns:
    @settings(max_examples=60, deadline=None)
    @given(scene=SCENES)
    def test_others_round_trips_the_vehicles(self, scene):
        states = others_states(scene)
        rebuilt = dataclasses.replace(scene, others=states)
        assert rebuilt.others is not scene.others and len(rebuilt.others) == len(states)
        assert_same_scene(rebuilt, scene)

    def test_none_target_becomes_the_speed(self):
        vehicles = (VehicleState(1, 0, 10.0, 12.5), VehicleState(2, 0, 20.0, 12.0, 0.0, 14.0))
        scene = Scene(time=0.0, lane_count=1, ego=VehicleState(0, 0, 0.0, 5.0), others=vehicles)
        assert scene.others.target == (12.5, 14.0)

    def test_zero_vehicles(self):
        scene = Scene(time=0.0, lane_count=1, ego=VehicleState(0, 0, 0.0, 5.0))
        assert len(scene.others) == 0 and others_states(scene) == ()
        assert isinstance(scene.others, Vehicles)
        assert step(scene, Action.KEEP).others is scene.others

    def test_step_carries_the_lane_index(self):
        scene = spawn_scenario(ScenarioConfig(name="dense", n_random_vehicles=30), seed=2)
        by_lane = scene.others.by_lane
        expected = {}
        for i, lane in enumerate(scene.others.lane):
            expected.setdefault(lane, []).append(i)
        assert by_lane == {lane: tuple(ix) for lane, ix in expected.items()}
        for action in (Action.KEEP, Action.ACCELERATE):
            scene = step(scene, action)
            assert scene.others.by_lane is by_lane

    def test_columns_are_tuples(self):
        # an int v_max clamps vehicle 7, which relaxes toward 30 m/s, to a float
        config = ScenarioConfig(name="dense", n_random_vehicles=12, v_max=24, ego_speed=20.0,
                                speed_range=(18.0, 24.0),
                                fixed_others=(VehicleState(7, 0, 3000.0, 23.5, 0.0, 30.0),))
        scene = spawn_scenario(config, seed=1)
        for scene in (scene, step(scene, Action.KEEP), step(step(scene, Action.KEEP), Action.KEEP)):
            others = scene.others
            columns = (others.id, others.lane, others.position, others.speed, others.accel,
                       others.target)
            assert all(type(c) is tuple and len(c) == 13 for c in columns)
            assert [{type(v) for v in c} for c in columns] == [{int}] * 2 + [{float}] * 4

    def test_states_enter_as_ints_and_floats(self):
        # JSON keeps 60 an int; the columns hold it as 60.0
        pinned = VehicleState(id=3, lane=1, position=60, speed=18, accel=1, target_speed=None)
        others = Scene(time=0.0, lane_count=2, ego=VehicleState(0, 0, 0.0, 5.0),
                       others=(pinned,)).others
        assert (others.id, others.lane) == ((3,), (1,))
        assert [repr(c) for c in (others.position, others.speed, others.accel, others.target)] \
            == ["(60.0,)", "(18.0,)", "(1.0,)", "(18.0,)"]

    def test_a_column_set_holds_tuples_of_one_length(self):
        vehicles = Vehicles(id=[1, 2], lane=[0, 1], position=[5.0, 9.0], speed=[1.0, 2.0],
                            accel=[0.0, 0.0], target=[1.0, 2.0])
        assert vehicles.position == (5.0, 9.0) and type(vehicles.position) is tuple
        assert vehicles.by_lane == {0: (0,), 1: (1,)}
        with pytest.raises(ValueError, match="differ in length"):
            Vehicles(id=[1, 2], lane=[0, 1], position=[5.0], speed=[1.0, 2.0],
                     accel=[0.0, 0.0], target=[1.0, 2.0])

    def test_step_builds_no_vehicle_state_for_other_vehicles(self, monkeypatch):
        scene = spawn_scenario(
            ScenarioConfig(name="dense", lane_count=4, ego_lane=1, n_random_vehicles=40,
                           speed_range=(18.0, 28.0), spawn_span=(-400.0, 1600.0)),
            seed=3,
        )
        assert len(scene.others) == 40
        built = []
        init = VehicleState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["id"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(VehicleState, "__init__", counting_init)
        for action in (Action.KEEP, Action.LANE_CHANGE_LEFT, Action.DECELERATE):
            scene = step(scene, action)
        assert built == [highway.EGO_ID] * 3
