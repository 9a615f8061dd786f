"""Canonical scenario builders shared across the test suite."""

from __future__ import annotations

import dataclasses

from hypothesis import strategies as st

from ecdrive import (
    MODES,
    DriftInjection,
    Obstacle,
    OffloadConfig,
    ScenarioConfig,
    Scene,
    VehicleState,
)
from ecdrive.highway import MAX_MAGNITUDE, VEHICLE_LENGTH_M
from ecdrive.orchestrator import MAX_LATENCY_MS
from ecdrive.policies import HORIZON, _ego_paths, _HazardPlan, _track


def others_states(scene: Scene) -> tuple[VehicleState, ...]:
    """The scene's non-ego vehicles as ``VehicleState``s, read from its
    columns, for the per-vehicle reference implementations."""
    others = scene.others
    return tuple(map(
        VehicleState,
        others.id, others.lane, others.position, others.speed, others.accel, others.target,
    ))


def predict_hazards(scene: Scene, lanes):
    """Every hazard in ``lanes``, lane by lane in the order given, each
    lane's vehicles (ascending, through ``Vehicles.by_lane``) and then its
    obstacles, as ``(index, lane, radius, track)``: its entity index
    (vehicles in column order, then obstacles), the center distance below
    which the ego overlaps it, and its ``HORIZON + 1`` positions from
    ``policies._track``, the current one first. Vehicles keep their
    acceleration; obstacles stand still. The planner builds only the tracks
    that can change its plan; this builds them all."""
    v_max, still = scene.v_max, (0.0,) * HORIZON
    others, obstacles = scene.others, scene.obstacles
    positions, speeds, accels = others.position, others.speed, others.accel
    n_vehicles = len(speeds)
    for lane in lanes:
        for i in others.by_lane.get(lane, ()):
            track = _track(positions[i], speeds[i], (accels[i],) * HORIZON, v_max)[0]
            yield i, lane, VEHICLE_LENGTH_M, track
        for j, obs in enumerate(obstacles):
            if obs.lane == lane:
                yield n_vehicles + j, lane, obs.radius, _track(obs.position, 0.0, still, v_max)[0]


def full_plan(scene: Scene) -> _HazardPlan:
    """``policies._plan_hazards`` without its pruning: every hazard of the
    reachable lanes is classified behind, ahead or near from its full track
    (:func:`predict_hazards`), and each ahead lane is reduced to its per-row
    minima over all of its ahead tracks."""
    paths = _ego_paths(scene)
    reach = [p for positions, _ in paths.values() for p in positions]
    e_lo, e_hi = min(reach), max(reach)
    ego_lane = scene.ego.lane
    near, ahead_tracks, listed = {}, {}, []
    for index, lane, radius, track in predict_hazards(
            scene, (ego_lane - 1, ego_lane, ego_lane + 1)):
        if radius > 0.0 and radius * radius > 0.0:
            if max(track) - e_lo <= -radius:
                continue
            if min(track) - e_hi >= radius:
                indices, tracks = ahead_tracks.setdefault(lane, ([], []))
                indices.append(index)
                tracks.append(track)
                continue
        near.setdefault(lane, []).append((radius, track))
        listed.append(index)
    ahead = {}
    for lane, (indices, tracks) in ahead_tracks.items():
        minima = ahead[lane] = []
        for row in zip(*tracks):
            low = min(row)
            minima.append(low)
            listed.append(indices[row.index(low)])
    return _HazardPlan(paths, near, ahead, sorted(set(listed)))


def assert_same_scene(actual: Scene, expected: Scene) -> None:
    """Assert that two scenes hold the same values bit for bit: every
    field, and every value of every ``Vehicles`` column, with the same type
    and ``repr`` (which tells -0.0 from 0.0)."""
    for f in dataclasses.fields(Scene):
        a, b = getattr(actual, f.name), getattr(expected, f.name)
        if f.name != "others":
            assert (type(a), repr(a)) == (type(b), repr(b)), f.name
            continue
        for column in ("id", "lane", "position", "speed", "accel", "target"):
            x, y = getattr(a, column), getattr(b, column)
            assert [(type(v), repr(v)) for v in x] == [(type(v), repr(v)) for v in y], column
            assert type(x) is type(y) is tuple, column
        assert a.by_lane == b.by_lane


def reference_scene() -> Scene:
    """Canonical four-lane scene: ego at 361.18 m doing 25 m/s in the
    rightmost lane, vehicle 496 ahead-left at 372.81 m doing 21.2 m/s."""
    return Scene(
        time=0.0,
        lane_count=4,
        ego=VehicleState(id=0, lane=0, position=361.18, speed=25.0, accel=0.0),
        others=(VehicleState(id=496, lane=1, position=372.81, speed=21.2, accel=0.2),),
    )


def reference_config() -> ScenarioConfig:
    return ScenarioConfig(
        name="reference",
        lane_count=4,
        ego_lane=0,
        ego_speed=25.0,
        ego_position=361.18,
        fixed_others=(
            VehicleState(id=496, lane=1, position=372.81, speed=21.2, accel=0.2),
        ),
    )


def corridor_config() -> ScenarioConfig:
    """Single-lane empty corridor cruising at the 10 m/s zone limit.

    Every feature is constant while undisturbed, so drift flags can only
    come from injections; the slow limit gives the detector enough reaction
    distance before a newly dropped obstacle.
    """
    return ScenarioConfig(
        name="corridor",
        lane_count=1,
        ego_lane=0,
        ego_speed=10.0,
        ego_position=0.0,
        v_max=10.0,
    )


def corridor_obstacle() -> tuple[DriftInjection, ...]:
    """Obstacle dropped 180 m ahead of the ego's step-100 position for steps
    [100, 200): immediately visible, cleared again when the window ends."""
    return (
        DriftInjection(
            kind="NewObstacle",
            start_step=100,
            end_step=200,
            lane=0,
            position=1180.0,
            extent_m=4.0,
        ),
    )


def obstacle_zone_config() -> ScenarioConfig:
    """Three lanes, 10 m/s zone limit, nothing else on the road."""
    return ScenarioConfig(
        name="obstacle_zone",
        lane_count=3,
        ego_lane=0,
        ego_speed=10.0,
        ego_position=0.0,
        v_max=10.0,
    )


def obstacle_zone_injections(steps: int = 120) -> tuple[DriftInjection, ...]:
    """A 20 m blockage in the ego lane, 600 m out, present the whole episode.

    The 20 m extent makes the overlap span wider than one step's travel, so
    an unaware ego cannot step across it without registering a collision.
    """
    return (
        DriftInjection(
            kind="NewObstacle",
            start_step=0,
            end_step=steps,
            lane=0,
            position=600.0,
            extent_m=20.0,
        ),
    )


def open_highway_config() -> ScenarioConfig:
    """Four lanes with slower traffic seeded into the ego's lane only.

    The ego overtakes into the empty second lane; all other vehicles cruise
    at fixed speeds below the ego's, so no rear-approach situations arise.
    """
    return ScenarioConfig(
        name="open_highway",
        lane_count=4,
        ego_lane=0,
        ego_speed=25.0,
        ego_position=0.0,
        n_random_vehicles=6,
        speed_range=(18.0, 24.0),
        spawn_span=(150.0, 1400.0),
        spawn_lanes=(0,),
    )


def static_obstacle_scene(gap: float, lane_count: int = 3, speed: float = 25.0,
                          extent: float = 4.0) -> Scene:
    """Ego in lane 0 with a static obstacle ``gap`` meters ahead."""
    return Scene(
        time=0.0,
        lane_count=lane_count,
        ego=VehicleState(id=0, lane=0, position=0.0, speed=speed),
        obstacles=(Obstacle(lane=0, position=gap, extent_m=extent),),
    )


def _speeds(v_max: float):
    """Speeds near 0, near ``v_max`` or anywhere between, to hit both clamps."""
    return st.one_of(st.floats(0.0, 1.0), st.floats(v_max - 1.0, v_max), st.floats(0.0, v_max))


@st.composite
def random_scenes(draw, max_vehicles: int = 40, positions=None) -> Scene:
    """Dense random scenes around an ego at the origin: 1-4 lanes, up to
    ``max_vehicles`` accelerating or braking vehicles (some with no target
    speed), obstacles in the ego's and adjacent lanes, a shifted target.

    ``positions`` overrides the vehicles' position strategy, e.g. a few
    sampled values to force ties."""
    positions = st.floats(-80.0, 150.0) if positions is None else positions
    lane_count = draw(st.integers(1, 4))
    ego_lane = draw(st.integers(0, lane_count - 1))
    v_max = draw(st.sampled_from((10.0, 30.0)))
    ego = VehicleState(0, ego_lane, 0.0, draw(_speeds(v_max)),
                       target_speed=draw(st.none() | _speeds(v_max)))
    others = tuple(
        VehicleState(
            id=i + 1,
            lane=draw(st.integers(0, lane_count - 1)),
            position=draw(positions),
            speed=draw(_speeds(v_max)),
            accel=draw(st.one_of(st.floats(-5.0, -0.1), st.floats(0.1, 5.0))),
            target_speed=draw(st.none() | _speeds(v_max)),
        )
        for i in range(draw(st.integers(0, max_vehicles)))
    )
    near_lanes = [lane for lane in (ego_lane - 1, ego_lane, ego_lane + 1) if 0 <= lane < lane_count]
    obstacles = tuple(
        Obstacle(
            lane=draw(st.sampled_from(near_lanes)),
            position=draw(st.floats(-20.0, 120.0)),
            extent_m=draw(st.floats(0.5, 10.0)),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    return Scene(
        time=0.0,
        lane_count=lane_count,
        ego=ego,
        others=others,
        obstacles=obstacles,
        v_max=v_max,
        target_offset=draw(st.sampled_from((0.0, -6.0))) + draw(st.floats(-2.0, 2.0)),
    )


def _numbers(lo: float = -1e4, hi: float = 1e4):
    """Finite floats, or integers, which JSON keeps as integers."""
    return st.floats(lo, hi) | st.integers(int(lo), int(hi))


def _names():
    return st.text(min_size=1, max_size=12)


def vehicle_states(**fields):
    """Any value of every ``VehicleState`` field's declared type, valid or not;
    ``fields`` replaces the strategies of the named fields."""
    return st.builds(VehicleState, **{
        "id": st.integers(0, 100),
        "lane": st.integers(-1, 6),
        "position": _numbers(),
        "speed": _numbers(),
        "accel": _numbers(-10.0, 10.0),
        "target_speed": st.none() | _numbers(),
        **fields,
    })


def scenario_configs(**fields):
    """Any value of every ``ScenarioConfig`` field's declared type, valid or
    not; ``fields`` replaces the strategies of the named fields."""
    pair = st.tuples(_numbers(), _numbers())
    return st.builds(ScenarioConfig, **{
        "name": _names(),
        "lane_count": st.integers(-1, 8),
        "ego_lane": st.integers(-1, 8),
        "ego_speed": _numbers(),
        "ego_position": _numbers(),
        "ego_accel": _numbers(-10.0, 10.0),
        "v_max": _numbers(),
        "n_random_vehicles": st.integers(0, 50),
        "speed_range": pair,
        "spawn_span": pair,
        "spawn_lanes": st.none() | st.lists(st.integers(0, 8), max_size=4).map(tuple),
        "fixed_others": st.lists(vehicle_states(), max_size=3).map(tuple),
        **fields,
    })


def drift_injections(**fields):
    """Any value of every ``DriftInjection`` field's declared type, valid or
    not; ``fields`` replaces the strategies of the named fields."""
    return st.builds(DriftInjection, **{
        "kind": st.sampled_from(DriftInjection.KINDS) | _names(),
        "start_step": st.integers(-10, 1000),
        "end_step": st.integers(-10, 1000),
        "lane": st.integers(-1, 8),
        "position": _numbers(),
        "extent_m": _numbers(),
        "obstacle_kind": _names(),
        "speed_offset": _numbers(),
        "sigma": _numbers(),
        **fields,
    })


def offload_configs(**fields):
    """Any value of every ``OffloadConfig`` field's declared type, valid or
    not; ``fields`` replaces the strategies of the named fields."""
    return st.builds(OffloadConfig, **{
        "mode": st.sampled_from(MODES) | _names(),
        "tau": _numbers(-1.0, 2.0),
        "method": st.sampled_from(("ks", "mmd", "KS")) | _names(),
        "alpha": _numbers(-1.0, 2.0),
        "window": st.integers(0, 500),
        "n_ref": st.integers(0, 1000),
        "n_perm": st.integers(0, 500),
        "edge_ms": _numbers(),
        "cloud_ms": _numbers(),
        "rtt_ms": _numbers(),
        "uplink_bytes_per_sample": st.integers(0, 10**6),
        **fields,
    })


_SPEEDS = st.floats(0.0, 40.0) | st.integers(0, 40)
_SPANS = st.tuples(_numbers(-2000.0, 2000.0), _numbers(-2000.0, 2000.0)).map(sorted).map(tuple)
_V_MAX = st.floats(0.5, 40.0) | st.floats(0.5, MAX_MAGNITUDE) | st.integers(1, 40)


def _speeds_up_to(v_max):
    """Speeds in [0, ``v_max``], edges included, half of them integers."""
    return st.floats(0.0, v_max) | st.integers(0, int(v_max))


def runnable_scenarios():
    """``scenario_configs`` with the fields ``validate`` rejects most often
    drawn from their valid ranges, edges included, so that most draws
    validate; the rest of the field space stays as drawn there. Every lane
    lies on the road, every speed but a target speed is at most ``v_max``,
    and ``v_max`` and ``ego_accel`` reach their validated bounds."""
    def on_road(lanes: int, v_max):
        lane, speeds = st.integers(0, lanes - 1), _speeds_up_to(v_max)
        return scenario_configs(
            lane_count=st.just(lanes),
            ego_lane=lane,
            ego_speed=speeds,
            ego_accel=_numbers(-10.0, 10.0) | _numbers(-MAX_MAGNITUDE, MAX_MAGNITUDE),
            v_max=st.just(v_max),
            n_random_vehicles=st.integers(0, 30),
            speed_range=st.tuples(speeds, speeds).map(sorted).map(tuple),
            spawn_span=_SPANS,
            spawn_lanes=st.none() | st.lists(lane, max_size=3).map(tuple),
            fixed_others=st.lists(vehicle_states(
                id=st.integers(1, 100),
                lane=lane,
                position=_numbers(-2000.0, 2000.0),
                speed=speeds,
                target_speed=st.none() | _SPEEDS,
            ), max_size=3).map(tuple),
        )

    return st.tuples(st.integers(1, 4), _V_MAX).flatmap(lambda road: on_road(*road))


def runnable_offloads():
    """``offload_configs`` around the valid ranges, with the small detector
    (``n_ref`` 30, ``window`` 10) and latency constants up to their
    validated bound that are JSON integers about half the time."""
    return offload_configs(
        mode=st.sampled_from(MODES),
        tau=st.floats(0.0, 1.0) | st.integers(0, 1),
        method=st.sampled_from(("ks", "mmd", "KS")),
        alpha=st.floats(0.001, 0.5),
        window=st.just(10),
        n_ref=st.just(30),
        n_perm=st.integers(20, 40),
        edge_ms=_numbers(0.0, MAX_LATENCY_MS),
        cloud_ms=_numbers(0.0, MAX_LATENCY_MS),
        rtt_ms=_numbers(0.0, MAX_LATENCY_MS),
    )


def runnable_injections():
    """Up to three ``drift_injections`` of every kind, with windows of up to
    10 steps starting around the first 25 and the other fields drawn
    around their valid ranges, edges included, so that most draws
    validate; a noise sigma reaches its validated bound."""
    windows = st.tuples(st.integers(-1, 25), st.integers(0, 10))
    return st.lists(windows.flatmap(lambda w: drift_injections(
        kind=st.sampled_from(DriftInjection.KINDS),
        start_step=st.just(w[0]),
        end_step=st.just(w[0] + w[1]),
        lane=st.integers(0, 3) | st.integers(-1, 4),
        position=_numbers(-2000.0, 2000.0),
        extent_m=st.floats(0.0, 30.0) | st.integers(0, 30),
        speed_offset=_numbers(-40.0, 40.0),
        sigma=st.floats(0.0, 10.0) | st.floats(0.0, MAX_MAGNITUDE) | st.integers(-1, 10),
    )), max_size=3)
