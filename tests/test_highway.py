"""Simulator unit tests: spawning, kinematics, collisions, drift injections."""

from __future__ import annotations

import dataclasses
import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdrive import (
    Action,
    DriftInjection,
    IllegalLaneChange,
    OffloadConfig,
    Obstacle,
    ScenarioConfig,
    ScenarioError,
    Scene,
    VehicleState,
    Vehicles,
    check_collision,
    featurize,
    inject_drift,
    lane_neighbors,
    legal_actions,
    nearest_neighbors,
    run_episodes,
    spawn_scenario,
    step,
)

from ecdrive import highway, orchestrator, policies
from ecdrive.highway import (
    ACCEL_CMD,
    DECEL_CMD,
    DEFAULT_DT,
    REVERSION_ACCEL,
    _advance,
)

from scenarios import assert_same_scene, others_states, random_scenes, reference_config


def _spawn_all_pairs(config: ScenarioConfig, seed: int) -> Scene:
    """:func:`spawn_scenario` by its plain rule: a candidate position is
    checked against every vehicle placed so far, in every lane."""
    config.validate()
    ego = VehicleState(id=0, lane=config.ego_lane, position=config.ego_position,
                       speed=config.ego_speed, accel=config.ego_accel)
    others = list(config.fixed_others)
    rng = np.random.default_rng(seed)
    lanes = config.spawn_lanes or tuple(range(config.lane_count))
    next_id = max([1000] + [v.id + 1 for v in others])
    placed = [(ego.lane, ego.position)] + [(v.lane, v.position) for v in others]
    lo, hi = config.spawn_span
    for _ in range(config.n_random_vehicles):
        for _attempt in range(200):
            lane = int(rng.choice(lanes))
            position = config.ego_position + float(rng.uniform(lo, hi))
            if all(pl != lane or abs(pp - position) >= 10.0 for pl, pp in placed):
                break
        else:
            raise ScenarioError("could not place vehicles with 10 m gaps; widen spawn_span")
        speed = float(rng.uniform(*config.speed_range))
        others.append(VehicleState(next_id, lane, position, speed, 0.0, speed))
        placed.append((lane, position))
        next_id += 1
    scene = Scene(time=0.0, lane_count=config.lane_count, ego=ego, others=tuple(others),
                  v_max=config.v_max)
    scene.validate()
    return scene


_CROWDED_POSITIONS = st.sampled_from([0.0, 10.0, 15, -9.5]) | st.floats(-50.0, 250.0)


@st.composite
def crowded_configs(draw) -> ScenarioConfig:
    """Valid configs whose random vehicles crowd a short span, next to
    fixed vehicles at positions that often tie, so that candidates are
    often rejected and some spawns fail."""
    lane_count = draw(st.integers(1, 3))
    lane = st.integers(0, lane_count - 1)
    near = draw(_CROWDED_POSITIONS)
    fixed = draw(st.lists(
        st.builds(VehicleState, id=st.integers(1, 30), lane=lane, position=_CROWDED_POSITIONS,
                  speed=st.just(10.0)),
        max_size=4, unique_by=lambda v: v.id,
    ))
    return ScenarioConfig(
        name="crowded",
        lane_count=lane_count,
        ego_lane=draw(lane),
        ego_position=draw(_CROWDED_POSITIONS),
        ego_speed=10.0,
        n_random_vehicles=draw(st.integers(0, 40)),
        speed_range=(5.0, 20.0),
        spawn_span=(near, near + draw(st.sampled_from([0.0, 20.0]) | st.floats(0.0, 400.0))),
        spawn_lanes=draw(st.none() | st.lists(lane, min_size=1, max_size=3).map(tuple)),
        fixed_others=tuple(fixed),
    )


class TestSpawn:
    @settings(max_examples=150, deadline=None)
    @given(config=crowded_configs(), seed=st.integers(0, 2**32 - 1))
    def test_placement_equals_the_all_pairs_rule(self, config, seed):
        try:
            expected = _spawn_all_pairs(config, seed)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError, match=str(exc)):
                spawn_scenario(config, seed)
            return
        assert_same_scene(spawn_scenario(config, seed), expected)

    def test_pinned_vehicle_round_trip(self):
        scene = spawn_scenario(reference_config(), seed=0)
        assert scene.lane_count == 4
        assert scene.ego.lane == 0
        assert scene.ego.speed == 25.0
        assert scene.ego.position == 361.18
        (other,) = others_states(scene)
        assert other.id == 496
        assert other.lane == 1
        assert other.position == 372.81
        assert other.speed == 21.2
        assert other.accel == 0.2
        assert other.target_speed == 21.2  # a None target holds the pinned speed

    def test_zero_vehicles_gives_empty_others(self):
        scene = spawn_scenario(ScenarioConfig(name="empty", n_random_vehicles=0), seed=7)
        assert len(scene.others) == 0

    def test_same_config_and_seed_is_deterministic(self):
        config = ScenarioConfig(name="rand", n_random_vehicles=8)
        assert_same_scene(spawn_scenario(config, seed=3), spawn_scenario(config, seed=3))

    def test_min_initial_gap(self):
        config = ScenarioConfig(name="dense", n_random_vehicles=12, spawn_span=(30.0, 600.0))
        for seed in range(5):
            scene = spawn_scenario(config, seed=seed)
            vehicles = [scene.ego, *others_states(scene)]
            for i, a in enumerate(vehicles):
                for b in vehicles[i + 1:]:
                    if a.lane == b.lane:
                        assert abs(a.position - b.position) >= 10.0

    @pytest.mark.parametrize(
        "bad",
        [
            dict(lane_count=0),
            dict(n_random_vehicles=-1),
            dict(speed_range=(5.0, 2.0)),
            dict(speed_range=(-1.0, 5.0)),
            dict(ego_lane=4),
            dict(ego_speed=-2.0),
            dict(v_max=0.0),
        ],
    )
    def test_invalid_configs_raise(self, bad):
        config = dataclasses.replace(ScenarioConfig(name="bad"), **bad)
        with pytest.raises(ScenarioError):
            spawn_scenario(config, seed=0)

    @pytest.mark.parametrize("bad, field", [
        (dict(v_max=np.nextafter(highway.MAX_MAGNITUDE, np.inf)), "v_max"),
        (dict(ego_accel=-2 * highway.MAX_MAGNITUDE), "ego_accel"),
    ])
    def test_magnitudes_above_their_bound_rejected(self, bad, field):
        config = dataclasses.replace(ScenarioConfig(name="bad"), **bad)
        with pytest.raises(ScenarioError, match=f"{field} must lie in "):
            config.validate()
        at_bound = {key: float(np.sign(value)) * highway.MAX_MAGNITUDE
                    for key, value in bad.items()}
        dataclasses.replace(config, **at_bound).validate()

    @pytest.mark.parametrize("field, cap", [("lane_count", highway.MAX_LANES),
                                            ("n_random_vehicles", highway.MAX_VEHICLES)])
    def test_sizes_above_their_cap_rejected(self, field, cap):
        config = ScenarioConfig(name="big")
        for value in (cap + 1, 10**12):
            with pytest.raises(ScenarioError, match=rf"{field} must lie in \[\d+, {cap}\], "
                                                    rf"got {value}$"):
                dataclasses.replace(config, **{field: value}).validate()
        dataclasses.replace(config, **{field: cap}).validate()

    @pytest.mark.parametrize(
        "bad, field",
        [
            (dict(ego_speed=float("nan")), "ego_speed"),
            (dict(ego_position=float("inf")), "ego_position"),
            (dict(ego_accel=float("nan")), "ego_accel"),
            (dict(v_max=float("inf")), "v_max"),
            (dict(speed_range=(float("nan"), 20.0)), "speed_range"),
            (dict(spawn_span=(50.0, float("inf"))), "spawn_span"),
            (dict(fixed_others=(VehicleState(7, 1, 80.0, float("nan")),)), "vehicle 7 speed"),
            (dict(fixed_others=(VehicleState(7, 1, float("-inf"), 20.0),)), "vehicle 7 position"),
            (dict(fixed_others=(VehicleState(7, 1, 80.0, 20.0, float("nan")),)), "vehicle 7 accel"),
            (dict(fixed_others=(VehicleState(7, 1, 80.0, 20.0, 0.0, float("inf")),)),
             "vehicle 7 target_speed"),
        ],
    )
    def test_non_finite_fields_rejected(self, bad, field):
        config = dataclasses.replace(ScenarioConfig(name="bad"), **bad)
        with pytest.raises(ScenarioError, match=f"{field} must be finite"):
            config.validate()

    @pytest.mark.parametrize("field", ["speed_range", "spawn_span"])
    @pytest.mark.parametrize("value", [(1.0,), (), (1.0, 2.0, 3.0), 5.0, "ab", [1.0, 2.0],
                                       (True, 2.0)])
    def test_range_fields_must_be_pairs(self, field, value):
        config = dataclasses.replace(ScenarioConfig(name="bad"), **{field: value})
        with pytest.raises(ScenarioError, match=f"{field} must be a pair of finite numbers"):
            config.validate()

    @pytest.mark.parametrize("name", ["", ".", "..", "../x", "a/b", "/abs", "nul\x00", 5, None])
    def test_name_must_be_a_plain_file_name_part(self, name):
        config = ScenarioConfig(name=name)
        with pytest.raises(ScenarioError, match="name must be"):
            config.validate()


class TestSceneValidate:
    @staticmethod
    def _scene(*obstacles) -> Scene:
        return Scene(time=0.0, lane_count=2,
                     ego=VehicleState(id=0, lane=0, position=0.0, speed=10.0),
                     obstacles=obstacles)

    def test_bad_obstacle_rejected(self):
        with pytest.raises(ScenarioError, match="obstacle"):
            self._scene(Obstacle(lane=7, position=float("nan"), extent_m=-5.0)).validate()

    @pytest.mark.parametrize("obstacle, message", [
        (Obstacle(lane=2, position=50.0, extent_m=4.0), "obstacle lane 2 out of range"),
        (Obstacle(lane=-1, position=50.0, extent_m=4.0), "obstacle lane -1 out of range"),
        (Obstacle(lane=1, position=float("inf"), extent_m=4.0), "obstacle position inf"),
        (Obstacle(lane=1, position=50.0, extent_m=0.0), "obstacle extent_m 0.0"),
        (Obstacle(lane=1, position=50.0, extent_m=float("nan")), "obstacle extent_m nan"),
    ])
    def test_each_obstacle_check(self, obstacle, message):
        with pytest.raises(ScenarioError, match=message):
            self._scene(Obstacle(lane=0, position=9.0, extent_m=1.0), obstacle).validate()

    def test_valid_obstacles_pass(self):
        self._scene(Obstacle(lane=0, position=-3.0, extent_m=0.5),
                    Obstacle(lane=1, position=1e4, extent_m=20.0)).validate()


class TestSceneKey:
    """``Scene.key`` parts scenes that differ in any one value, 0.0 from
    -0.0 included, and joins scenes built apart with the same values."""

    COLUMNS = ("id", "lane", "position", "speed", "accel", "target")

    @staticmethod
    def _scene(**changes) -> Scene:
        fields = dict(
            time=0.0,
            lane_count=3,
            ego=VehicleState(id=0, lane=1, position=0.0, speed=20.0, accel=0.0),
            others=(VehicleState(1, 0, 40.0, 18.0, 0.0, 0.0),
                    VehicleState(2, 2, -30.0, 22.0, 0.5)),
            obstacles=(Obstacle(lane=1, position=0.0, extent_m=4.0),),
            noise_sigma=0.0,
            v_max=30.0,
            target_offset=0.0,
        )
        return Scene(**{**fields, **changes})

    def test_scenes_built_apart_share_a_key(self):
        assert self._scene().key == self._scene().key

    @pytest.mark.parametrize("field, value", [
        ("time", 1.0), ("time", -0.0), ("lane_count", 4), ("noise_sigma", 0.5),
        ("noise_sigma", -0.0), ("v_max", 29.0), ("v_max", 30), ("target_offset", -6.0),
        ("target_offset", -0.0), ("obstacles", ()),
    ])
    def test_a_scene_field_changes_the_key(self, field, value):
        assert self._scene(**{field: value}).key != self._scene().key

    @pytest.mark.parametrize("field, value", [
        ("id", 5), ("lane", 0), ("position", 1.0), ("position", -0.0), ("speed", 19.0),
        ("accel", -0.0), ("target_speed", 20.0),
    ])
    def test_an_ego_field_changes_the_key(self, field, value):
        ego = dataclasses.replace(self._scene().ego, **{field: value})
        assert self._scene(ego=ego).key != self._scene().key

    @pytest.mark.parametrize("column, value", [
        ("id", 7), ("lane", 1), ("position", 41.0), ("speed", 18.5), ("accel", -0.0),
        ("target", -0.0),
    ])
    def test_a_column_value_changes_the_key(self, column, value):
        others = self._scene().others
        values = list(getattr(others, column))
        values[0] = value
        changed = Vehicles(**{**{c: getattr(others, c) for c in self.COLUMNS},
                              column: values})
        assert self._scene(others=changed).key != self._scene().key

    @pytest.mark.parametrize("column", COLUMNS)
    def test_an_int_column_and_a_float_one_differ(self, column):
        # the first vehicle's values are integral: the other type holds them exactly
        others = self._scene().others
        values = list(getattr(others, column))
        values[0] = (float if type(values[0]) is int else int)(values[0])
        changed = Vehicles(**{**{c: getattr(others, c) for c in self.COLUMNS},
                              column: values})
        assert getattr(changed, column) == getattr(others, column)
        assert self._scene(others=changed).key != self._scene().key

    @pytest.mark.parametrize("field, value", [
        ("lane", 0), ("position", -0.0), ("position", 3.0), ("extent_m", 5.0), ("kind", "cone"),
    ])
    def test_an_obstacle_field_changes_the_key(self, field, value):
        obstacle = dataclasses.replace(self._scene().obstacles[0], **{field: value})
        assert self._scene(obstacles=(obstacle,)).key != self._scene().key


def _oracle_advance(v, a_cmd, position, v_max):
    """One vehicle one step, the update written out with the builtin clamps."""
    dt = DEFAULT_DT
    v_new = min(max(v + a_cmd * dt, 0.0), v_max)
    a_eff = (v_new - v) / dt
    return v_new, position + v * dt + 0.5 * a_eff * dt * dt, a_eff


def _oracle_step(scene: Scene, action: Action) -> Scene:
    """``step`` rebuilding every vehicle with ``dataclasses.replace``."""
    dt = DEFAULT_DT
    ego = scene.ego
    lane = ego.lane
    a_cmd = {Action.ACCELERATE: ACCEL_CMD, Action.DECELERATE: DECEL_CMD}.get(action, 0.0)
    if action is Action.LANE_CHANGE_LEFT:
        if lane >= scene.lane_count - 1:
            raise IllegalLaneChange("already in the leftmost lane")
        lane += 1
    elif action is Action.LANE_CHANGE_RIGHT:
        if lane <= 0:
            raise IllegalLaneChange("already in the rightmost lane")
        lane -= 1
    v_new, p_new, a_eff = _oracle_advance(ego.speed, a_cmd, ego.position, scene.v_max)
    new_ego = dataclasses.replace(ego, lane=lane, position=p_new, speed=v_new, accel=a_eff)
    new_others = []
    for veh in others_states(scene):
        target = veh.target_speed + scene.target_offset
        a_rev = max(-REVERSION_ACCEL, min(REVERSION_ACCEL, (target - veh.speed) / dt))
        v2, p2, a2 = _oracle_advance(veh.speed, a_rev, veh.position, scene.v_max)
        new_others.append(dataclasses.replace(veh, position=p2, speed=v2, accel=a2))
    return dataclasses.replace(scene, time=scene.time + dt, ego=new_ego,
                               others=tuple(new_others))


def _ego_scene(speed: float, lane: int = 0, lane_count: int = 4, accel: float = 0.0) -> Scene:
    return Scene(
        time=0.0,
        lane_count=lane_count,
        ego=VehicleState(id=0, lane=lane, position=0.0, speed=speed, accel=accel),
    )


class TestStep:
    def test_keep_advances_exactly_speed_times_dt(self):
        scene = _ego_scene(25.0)
        nxt = step(scene, Action.KEEP)
        assert nxt.ego.position == pytest.approx(25.0, abs=1e-9)
        assert nxt.ego.speed == 25.0
        assert nxt.time == 1.0

    def test_decelerate_clamps_at_zero(self):
        scene = _ego_scene(0.0)
        nxt = step(scene, Action.DECELERATE)
        assert nxt.ego.speed == 0.0
        assert nxt.ego.position == 0.0

    def test_lane_change_right_preserves_speed(self):
        scene = _ego_scene(18.0, lane=1)
        nxt = step(scene, Action.LANE_CHANGE_RIGHT)
        assert nxt.ego.lane == 0
        assert nxt.ego.speed == 18.0

    def test_illegal_lane_changes_raise(self):
        with pytest.raises(IllegalLaneChange):
            step(_ego_scene(10.0, lane=0), Action.LANE_CHANGE_RIGHT)
        with pytest.raises(IllegalLaneChange):
            step(_ego_scene(10.0, lane=3), Action.LANE_CHANGE_LEFT)

    def test_speed_clamped_at_v_max(self):
        scene = _ego_scene(29.5)
        nxt = step(scene, Action.ACCELERATE)
        assert nxt.ego.speed == 30.0
        # effective acceleration reflects the clamp, keeping kinematics consistent
        assert nxt.ego.position == pytest.approx(0.5 * (29.5 + 30.0))
        assert nxt.ego.accel == pytest.approx(0.5)

    def test_an_int_v_max_clamps_to_a_float(self):
        # the ego, like every other vehicle, keeps float speeds
        nxt = step(dataclasses.replace(_ego_scene(29.5), v_max=30), Action.ACCELERATE)
        assert repr(nxt.ego.speed) == "30.0"

    def test_others_relax_toward_target(self):
        lead = VehicleState(id=1, lane=0, position=100.0, speed=20.0, target_speed=23.5)
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=10.0),
                      others=(lead,))
        s1 = step(scene, Action.KEEP)
        assert s1.others.speed[0] == 21.0  # +1 m/s^2 cap
        s2 = step(step(step(s1, Action.KEEP), Action.KEEP), Action.KEEP)
        assert s2.others.speed[0] == 23.5  # lands exactly on the target

    def test_none_target_holds_the_construction_speed(self):
        # the target is read once, when the scene is built, not every step
        lead = VehicleState(id=1, lane=1, position=100.0, speed=20.0)
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=10.0),
                      others=(lead,), target_offset=-3.0)
        speeds = []
        for _ in range(6):
            scene = step(scene, Action.KEEP)
            speeds.append(scene.others.speed[0])
        assert speeds == [19.0, 18.0, 17.0, 17.0, 17.0, 17.0]

    def test_spawned_none_target_steps_as_an_explicit_one(self):
        def spawned(target_speed):
            config = ScenarioConfig(
                name="pinned", lane_count=2, ego_speed=10.0,
                fixed_others=(VehicleState(1, 1, 100.0, 20.0, 0.5, target_speed),),
            )
            return dataclasses.replace(spawn_scenario(config, seed=0), target_offset=-3.0)

        implicit, explicit = spawned(None), spawned(20.0)
        for action in (Action.KEEP, Action.ACCELERATE, Action.LANE_CHANGE_LEFT, Action.KEEP):
            implicit, explicit = step(implicit, action), step(explicit, action)
            assert_same_scene(implicit, explicit)

    @settings(max_examples=100, deadline=None)
    @given(scene=random_scenes(), action=st.sampled_from(list(Action)))
    def test_matches_replace_oracle(self, scene, action):
        # random_scenes draws None and set target speeds and a nonzero offset
        try:
            expected = _oracle_step(scene, action)
        except IllegalLaneChange:
            with pytest.raises(IllegalLaneChange):
                step(scene, action)
            return
        assert_same_scene(step(scene, action), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        speed=st.floats(0.0, 30.0),
        lane=st.integers(0, 3),
        actions=st.lists(st.sampled_from(list(Action)), min_size=1, max_size=20),
    )
    def test_speed_and_lane_stay_legal(self, speed, lane, actions):
        scene = _ego_scene(speed, lane=lane)
        for action in actions:
            try:
                scene = step(scene, action)
            except IllegalLaneChange:
                continue
            assert 0.0 <= scene.ego.speed <= scene.v_max
            assert 0 <= scene.ego.lane < scene.lane_count


def _dense_config() -> ScenarioConfig:
    """40 vehicles on four lanes around an ego in lane 1."""
    return ScenarioConfig(name="dense", lane_count=4, ego_lane=1, ego_speed=25.0,
                          n_random_vehicles=40, speed_range=(18.0, 28.0),
                          spawn_span=(-400.0, 1600.0))


class TestColumnMoves:
    """The other vehicles move once per column set and overlay."""

    def test_scenes_that_share_columns_share_their_move(self):
        scene = spawn_scenario(_dense_config(), seed=0)
        moved = step(scene, Action.KEEP).others
        # another ego, another object, an int v_max of the same value: the
        # very same columns one step on
        twin = dataclasses.replace(scene, ego=dataclasses.replace(scene.ego, speed=10.0),
                                   v_max=30)
        assert step(twin, Action.DECELERATE).others is moved
        # a NewObstacle overlay does not touch the move
        overlay = inject_drift(scene, DriftInjection(kind="NewObstacle", start_step=0,
                                                     end_step=1, position=50.0), 0)
        assert step(overlay, Action.KEEP).others is moved
        # another target_offset or v_max, down to the sign of a zero, is a
        # move of its own, equal to a fresh one
        for changes in ({"target_offset": -0.0}, {"target_offset": -6.0}, {"v_max": 29.0}):
            other = dataclasses.replace(scene, **changes)
            fresh = dataclasses.replace(other, others=others_states(other))
            assert step(other, Action.KEEP).others is not moved
            assert_same_scene(step(other, Action.KEEP), step(fresh, Action.KEEP))

    def test_the_cache_keeps_no_moved_columns_alive(self):
        scene = spawn_scenario(_dense_config(), seed=0)
        columns = scene.others
        stepped = step(scene, Action.KEEP)
        ref = weakref.ref(stepped.others)
        del scene, stepped
        gc.collect()
        assert ref() is None
        # the columns are moved again, to equal values, when a scene asks
        again = Scene(time=0.0, lane_count=4, ego=VehicleState(0, 1, 0.0, 25.0), others=columns)
        fresh = dataclasses.replace(again, others=others_states(again))
        assert_same_scene(step(again, Action.KEEP), step(fresh, Action.KEEP))

    @pytest.mark.parametrize("steps", [60, 250])
    def test_one_move_per_step_index_in_a_run(self, monkeypatch, steps):
        # the burn-in (n_ref steps) and the CloudOnly episode step the same
        # 40 columns on the indices they share, which are moved once each
        moves, indices = [], set()
        real_advance, real_step = highway._advance, orchestrator.step

        def advance(speeds, *args):
            if len(speeds) > 1:
                moves.append(len(speeds))
            return real_advance(speeds, *args)

        def counted_step(scene, action):
            indices.add(scene.time)
            return real_step(scene, action)

        monkeypatch.setattr(highway, "_advance", advance)
        monkeypatch.setattr(orchestrator, "step", counted_step)
        config = OffloadConfig(mode="CloudOnly", n_ref=200, window=20)
        run_episodes(_dense_config(), (), [config], seed=0, steps=steps)
        assert moves == [40] * len(indices)
        assert len(indices) == max(steps, config.n_ref)


def _reprs(*values) -> list[tuple[type, str]]:
    return [(type(v), repr(v)) for v in values]


class TestAdvance:
    """``_advance`` is the one integrator of the ego and the other vehicles."""

    @settings(max_examples=60, deadline=None)
    @given(scene=random_scenes())
    def test_each_vehicle_steps_as_a_column_of_one_and_as_the_ego(self, scene):
        stepped = step(scene, Action.KEEP).others
        others, offset = scene.others, scene.target_offset
        for i in range(len(others)):
            v, p = others.speed[i], others.position[i]
            command = max(-REVERSION_ACCEL,
                          min(REVERSION_ACCEL, (others.target[i] + offset - v) / DEFAULT_DT))
            moved = (stepped.speed[i], stepped.position[i], stepped.accel[i])
            (v1,), (p1,), (a1,) = _advance((v,), (command,), (p,), scene.v_max)
            assert _reprs(v1, p1, a1) == _reprs(*moved)
            ego_scene = Scene(time=0.0, lane_count=1, ego=VehicleState(0, 0, p, v),
                              v_max=scene.v_max)
            with mock.patch.dict(highway.EFFECTS, {Action.ACCELERATE: (0, command)}):
                ego = step(ego_scene, Action.ACCELERATE).ego
            assert _reprs(ego.speed, ego.position, ego.accel) == _reprs(*moved)

    @pytest.mark.parametrize("v_max", [30.0, 0.0, -0.0])
    def test_signed_zeros_clamp_as_the_builtins(self, v_max):
        zeros = (0.0, -0.0)
        inputs = [(v, a, p) for v in zeros for a in zeros for p in zeros]
        speeds, positions, accels = _advance(*zip(*inputs), v_max)
        assert type(speeds) is type(positions) is type(accels) is tuple
        for (v, a, p), *got in zip(inputs, speeds, positions, accels):
            assert _reprs(*got) == _reprs(*_oracle_advance(v, a, p, v_max))
            assert repr(got[0]) == repr(min(max(v + a * DEFAULT_DT, 0.0), v_max))


class TestEffects:
    """``highway.EFFECTS`` is the one table of what each action does, read
    by the world and the planner alike."""

    def test_an_unknown_action_raises_value_error_naming_it(self):
        scene = _ego_scene(20.0, lane=1, lane_count=3)
        with pytest.raises(ValueError, match="'Fly'"):
            step(scene, "Fly")
        with pytest.raises(ValueError, match="'Fly'"):
            highway.EFFECTS["Fly"]

    def test_an_action_value_steps_as_the_action(self):
        scene = _ego_scene(20.0, lane=1, lane_count=3)
        for action in Action:
            assert_same_scene(step(scene, action.value), step(scene, action))
        with pytest.raises(IllegalLaneChange):
            step(_ego_scene(20.0, lane=0), Action.LANE_CHANGE_RIGHT.value)

    @settings(max_examples=80, deadline=None)
    @given(scene=random_scenes())
    def test_step_moves_the_ego_by_its_effect_and_as_the_planner_predicts(self, scene):
        paths = policies._ego_paths(scene)
        for action in legal_actions(scene):
            shift, command = highway.EFFECTS[action]
            ego = step(scene, action).ego
            assert ego.lane == scene.ego.lane + shift
            # bit for bit: same type and repr, which tells -0.0 from 0.0
            assert _reprs(ego.speed) == _reprs(paths[command][1][1])


def _collision_oracle(ego_pos: float, other_pos: float, half_a: float, half_b: float) -> bool:
    """Independent interval-overlap check."""
    lo_a, hi_a = ego_pos - half_a, ego_pos + half_a
    lo_b, hi_b = other_pos - half_b, other_pos + half_b
    return lo_a < hi_b and lo_b < hi_a


class TestCollision:
    def test_same_lane_close_vehicle(self):
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=0, position=100.0, speed=10.0),
                      others=(VehicleState(id=1, lane=0, position=103.0, speed=10.0),))
        assert check_collision(scene)

    def test_other_lane_same_position(self):
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=0, position=100.0, speed=10.0),
                      others=(VehicleState(id=1, lane=1, position=100.0, speed=10.0),))
        assert not check_collision(scene)

    def test_obstacle_overlap(self):
        scene = Scene(time=0.0, lane_count=1,
                      ego=VehicleState(id=0, lane=0, position=100.0, speed=10.0),
                      obstacles=(Obstacle(lane=0, position=104.0, extent_m=4.0),))
        assert check_collision(scene)

    def test_matches_interval_overlap_oracle(self):
        # sweep the obstacle past the ego and compare against the oracle
        for offset_tenths in range(-80, 81):
            offset = offset_tenths / 10.0
            scene = Scene(
                time=0.0,
                lane_count=1,
                ego=VehicleState(id=0, lane=0, position=100.0, speed=10.0),
                obstacles=(Obstacle(lane=0, position=100.0 + offset, extent_m=4.0),),
            )
            expected = _collision_oracle(100.0, 100.0 + offset, 2.5, 2.0)
            assert check_collision(scene) == expected, f"offset {offset}"


class TestInjectDrift:
    def test_identity_outside_window(self):
        scene = _ego_scene(10.0)
        injection = DriftInjection(kind="NewObstacle", start_step=5, end_step=9,
                                   lane=0, position=50.0)
        assert inject_drift(scene, injection, 4) is scene
        assert inject_drift(scene, injection, 9) is scene

    def test_new_obstacle_appended_inside_window(self):
        scene = _ego_scene(10.0)
        injection = DriftInjection(kind="NewObstacle", start_step=5, end_step=9,
                                   lane=0, position=50.0, extent_m=6.0)
        out = inject_drift(scene, injection, 5)
        assert out.obstacles == (Obstacle(lane=0, position=50.0, extent_m=6.0, kind="injected"),)

    def test_traffic_pattern_shift_moves_targets(self):
        config = ScenarioConfig(
            name="shift", lane_count=2, ego_lane=0, ego_speed=10.0,
            fixed_others=(
                VehicleState(id=1, lane=0, position=50.0, speed=21.2),
                VehicleState(id=2, lane=1, position=80.0, speed=24.0),
            ),
        )
        injection = DriftInjection(kind="TrafficPatternShift", start_step=0, end_step=10,
                                   speed_offset=-8.0)
        scene = inject_drift(spawn_scenario(config, seed=0), injection, 0)
        assert scene.target_offset == -8.0
        for _ in range(10):
            scene = step(scene, Action.KEEP)
        # -1 m/s^2 for eight steps, then held at the shifted targets
        assert scene.others.speed == (pytest.approx(13.2), pytest.approx(16.0))
        assert scene.others.target == (21.2, 24.0)

    def test_sensor_noise_sets_sigma_and_featurize_variance(self):
        scene = _ego_scene(25.0)
        injection = DriftInjection(kind="SensorNoise", start_step=0, end_step=10, sigma=2.0)
        noisy = inject_drift(scene, injection, 0)
        assert noisy.noise_sigma == 2.0
        rng = np.random.default_rng(123)
        draws = np.array([featurize(noisy, rng)[0] for _ in range(10_000)])
        assert draws.var() == pytest.approx(4.0, abs=0.2)

    def test_invalid_injections_raise(self):
        with pytest.raises(ScenarioError):
            DriftInjection(kind="NewObstacle", start_step=5, end_step=5).validate()
        with pytest.raises(ScenarioError):
            DriftInjection(kind="Nope", start_step=0, end_step=1).validate()

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("NewObstacle", "position", float("nan")),
            ("NewObstacle", "extent_m", float("inf")),
            ("TrafficPatternShift", "speed_offset", float("nan")),
            ("SensorNoise", "sigma", float("inf")),
        ],
    )
    def test_non_finite_injection_fields_rejected(self, kind, field, value):
        injection = DriftInjection(kind=kind, start_step=0, end_step=10, **{field: value})
        with pytest.raises(ScenarioError, match=f"{field} must be finite"):
            injection.validate()


class TestNearestNeighbors:
    def test_reference_scene_front_left_slot(self):
        scene = spawn_scenario(reference_config(), seed=0)
        slots = nearest_neighbors(scene)
        assert slots.front_left is not None
        assert slots.front_left.gap == pytest.approx(11.63, abs=1e-9)
        assert slots.front_left.rel_speed == pytest.approx(-3.8, abs=1e-9)
        assert slots.front_same is None
        assert slots.rear_same is None
        assert slots.front_right is None

    def test_empty_road_all_absent(self):
        slots = nearest_neighbors(_ego_scene(20.0))
        assert slots == type(slots)(None, None, None, None)

    def test_nearest_front_vehicle_wins(self):
        scene = Scene(
            time=0.0, lane_count=1,
            ego=VehicleState(id=0, lane=0, position=0.0, speed=10.0),
            others=(
                VehicleState(id=1, lane=0, position=20.0, speed=10.0),
                VehicleState(id=2, lane=0, position=8.0, speed=10.0),
            ),
        )
        assert nearest_neighbors(scene).front_same.gap == 8.0


class TestLaneNeighbors:
    def _scene(self, *others: VehicleState) -> Scene:
        return Scene(time=0.0, lane_count=3,
                     ego=VehicleState(id=0, lane=1, position=100.0, speed=20.0),
                     others=others)

    def test_nearest_front_and_rear_in_the_lane(self):
        scene = self._scene(
            VehicleState(id=1, lane=2, position=130.0, speed=25.0),
            VehicleState(id=2, lane=2, position=115.0, speed=22.0),
            VehicleState(id=3, lane=2, position=60.0, speed=18.0),
            VehicleState(id=4, lane=2, position=90.0, speed=21.0),
            VehicleState(id=5, lane=1, position=105.0, speed=10.0),
        )
        front, rear = lane_neighbors(scene, 2)
        assert (front.gap, front.rel_speed) == (15.0, 2.0)
        assert (rear.gap, rear.rel_speed) == (10.0, 1.0)

    def test_level_vehicle_counts_as_front(self):
        front, rear = lane_neighbors(
            self._scene(VehicleState(id=1, lane=0, position=100.0, speed=20.0)), 0
        )
        assert front.gap == 0.0
        assert rear is None

    def test_empty_or_missing_lane(self):
        scene = self._scene(VehicleState(id=1, lane=0, position=150.0, speed=20.0))
        assert lane_neighbors(scene, 2) == (None, None)
        assert lane_neighbors(scene, 3) == (None, None)

    def test_first_vehicle_wins_a_tie(self):
        scene = self._scene(
            VehicleState(id=1, lane=1, position=120.0, speed=21.0),
            VehicleState(id=2, lane=1, position=120.0, speed=25.0),
        )
        assert lane_neighbors(scene, 1)[0].rel_speed == 1.0
