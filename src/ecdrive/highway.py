"""Seeded kinematic multi-lane highway simulator.

World state is an immutable :class:`Scene`; :func:`step` returns a new one.
Lane 0 is the rightmost lane. Positions are longitudinal stations in meters
on an infinite straight road. One decision step lasts ``DEFAULT_DT`` = 1 s.

The ego is a :class:`VehicleState`; the other vehicles are struct-of-arrays
:class:`Vehicles` columns (id, lane, position, speed, accel and target
speed), tuples in vehicle order. :func:`step` advances the ego and all the
other vehicles through the one integrator :func:`_advance`, the ego as a
column of one, the others in one pass over their columns. The scalar
readers (:func:`lane_neighbors`, :func:`check_collision`,
``Scene.validate``, the scene text and the cloud planner's perception) read
the columns directly and visit only the lanes they ask about through
``Vehicles.by_lane``, which :func:`step` carries over because vehicles
never change lanes. The four neighbor slots are computed once per scene.
The other vehicles' columns one step on, which no ego action changes, are
computed once per column set and overlay (``target_offset`` and
``v_max``): scenes of one step that share the columns, as episodes that
differ only in the ego do, find the moved columns on them, held weakly.
``Scene.others`` is the column set. A ``Scene`` built with
``others=`` a tuple of ``VehicleState`` converts it, resolving a ``None``
target speed to the vehicle's speed then. Scenes and columns compare by
identity; a scene's content is compared through ``Scene.key``, one pickle
of the bit pattern of every field, the column values included. numpy only
draws the spawn positions and speeds.

Scripted perturbations (new obstacles, traffic-pattern shifts, sensor noise)
are applied per step through :func:`inject_drift`, which is the identity
outside its [start_step, end_step) window. Each one only sets overlay fields
of the scene (``obstacles``, ``target_offset``, ``noise_sigma``), so the
caller can keep a pristine scene and overlay it afresh every step.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import pickle
import struct
import weakref
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

VEHICLE_LENGTH_M = 5.0
MIN_SPAWN_GAP_M = 10.0
ACCEL_CMD = 2.0       # m/s^2, comfortable acceleration
DECEL_CMD = -3.0      # m/s^2, firm braking
REVERSION_ACCEL = 1.0  # m/s^2, other vehicles relaxing toward target speed
DEFAULT_V_MAX = 30.0
DEFAULT_DT = 1.0
EGO_ID = 0
#: the largest ``v_max`` (m/s), ``abs(ego_accel)`` (m/s^2) and
#: ``SensorNoise`` sigma a config may set: each feature then stays below
#: about 1e8 in magnitude, so every MMD squared distance (a sum of 15
#: squared differences) and its bandwidth stay finite
MAX_MAGNITUDE = 1e6
#: the largest ``lane_count`` and ``n_random_vehicles`` a config may set: the
#: spawn draws each random vehicle's lane from every lane of the road, and
#: each step moves every vehicle, so both sizes bound the memory and time of
#: a run (10 000 vehicles on 100 lanes validate in about 0.6 s and 40 MB
#: on a 2-vCPU x86-64 host)
MAX_LANES = 100
MAX_VEHICLES = 10_000
# the key of a column move: the scene's target_offset and v_max as doubles
_MOVE_KEY = struct.Struct("<dd")


class Action(str, Enum):
    """Closed five-action vocabulary executed by the ego vehicle."""

    ACCELERATE = "Accelerate"
    DECELERATE = "Decelerate"
    KEEP = "Keep"
    LANE_CHANGE_LEFT = "LaneChangeLeft"
    LANE_CHANGE_RIGHT = "LaneChangeRight"


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


class IllegalLaneChange(ValueError):
    """Lane change requested at a road edge; signals a caller bug."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _content_bytes(values) -> bytes:
    """The pickle of ``values``, a content key. A float pickles as its eight
    IEEE 754 bytes, so 0.0 and -0.0 differ and no float ``==`` is involved,
    and an int, a bool and None each under an opcode of their own; the
    pickle loads back to the same values, so equal bytes mean equal values
    of equal types. An equal string held twice may pickle apart, which can
    only lose a match."""
    return pickle.dumps(values, 5)


def _require(test, what: str, prefix: str = "", **values) -> None:
    """Raise :class:`ScenarioError` naming the first value (or tuple holding
    an item) that fails ``test``."""
    for name, value in values.items():
        if not all(test(x) for x in (value if isinstance(value, tuple) else (value,))):
            raise ScenarioError(f"{prefix}{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class VehicleState:
    """One vehicle: lane index, longitudinal position, speed, acceleration.

    ``target_speed`` is the cruise speed a non-ego vehicle relaxes toward at
    +-1 m/s^2; ``None`` means "hold the current speed as target" and is
    resolved to the vehicle's own speed when a :class:`Scene` is built from
    it. The ego's target_speed is ignored (its speed follows the executed
    actions).
    """

    id: int
    lane: int
    position: float
    speed: float
    accel: float = 0.0
    target_speed: float | None = None

    def resolved_target(self) -> float:
        return self.speed if self.target_speed is None else self.target_speed


_COLUMNS = ("id", "lane", "position", "speed", "accel", "target")


@dataclass(frozen=True, eq=False)
class Vehicles:
    """Columns of a scene's non-ego vehicles, as tuples in vehicle order.

    ``id`` and ``lane`` hold ints, the other columns floats; ``target``
    holds each vehicle's target speed. :meth:`from_states` converts with
    ``int`` and ``float`` and resolves a ``None`` target to the vehicle's
    speed at that moment. Columns compare by identity.
    """

    id: tuple[int, ...]
    lane: tuple[int, ...]
    position: tuple[float, ...]
    speed: tuple[float, ...]
    accel: tuple[float, ...]
    target: tuple[float, ...]
    #: lane -> indices of its vehicles, ascending; derived from ``lane``
    #: unless passed in, as :meth:`Scene._moved_others` does, since vehicles
    #: keep their lanes
    by_lane: dict[int, tuple[int, ...]] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.id)
        for name in _COLUMNS:
            column = getattr(self, name)
            if type(column) is not tuple:
                column = tuple(column)
                object.__setattr__(self, name, column)
            if len(column) != n:
                raise ValueError(f"vehicle columns differ in length: {n} ids, "
                                 f"{len(column)} {name} values")
        if self.by_lane is None:
            by_lane: dict[int, list[int]] = {}
            for i, lane in enumerate(self.lane):
                by_lane.setdefault(lane, []).append(i)
            object.__setattr__(self, "by_lane", {k: tuple(v) for k, v in by_lane.items()})

    @classmethod
    def from_states(cls, states) -> Vehicles:
        states = tuple(states)
        return cls(
            id=tuple([int(v.id) for v in states]),
            lane=tuple([int(v.lane) for v in states]),
            position=tuple([float(v.position) for v in states]),
            speed=tuple([float(v.speed) for v in states]),
            accel=tuple([float(v.accel) for v in states]),
            target=tuple([float(v.resolved_target()) for v in states]),
        )

    def __len__(self) -> int:
        return len(self.id)

    @functools.cached_property
    def _moves(self) -> dict[bytes, weakref.ref]:
        """The bits of (target_offset, float(v_max)) -> a weak reference to
        these columns one step on; see :meth:`Scene._moved_others`."""
        return {}


@dataclass(frozen=True)
class Obstacle:
    """Static same-lane hazard centered at ``position`` with total length
    ``extent_m``."""

    lane: int
    position: float
    extent_m: float
    kind: str = "debris"

    @property
    def radius(self) -> float:
        """The center distance below which the ego overlaps it."""
        return VEHICLE_LENGTH_M / 2.0 + self.extent_m / 2.0


@dataclass(frozen=True, eq=False)
class Scene:
    """Full ground-truth world state for one decision step.

    ``others`` holds the non-ego vehicles as :class:`Vehicles` columns; a
    tuple of :class:`VehicleState` passed here is converted to them, each
    ``None`` target speed becoming the vehicle's speed at construction.
    ``target_offset`` is added to every non-ego target speed by :func:`step`.
    Scenes compare by identity; :attr:`key` compares their content.
    """

    time: float
    lane_count: int
    ego: VehicleState
    others: Vehicles = ()
    obstacles: tuple[Obstacle, ...] = ()
    noise_sigma: float = 0.0
    v_max: float = DEFAULT_V_MAX
    target_offset: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.others, Vehicles):
            object.__setattr__(self, "others", Vehicles.from_states(self.others))

    @functools.cached_property
    def key(self) -> bytes:
        """Content key: the pickle of every scalar field of the scene, its
        ego, each obstacle and the six columns of the other vehicles. Scenes
        with equal keys hold the same values bit for bit, so every pure
        function of a scene gives them the same result (see
        :func:`_content_bytes`)."""
        ego, others = self.ego, self.others
        return _content_bytes((
            self.time, self.lane_count, self.noise_sigma, self.v_max, self.target_offset,
            ego.id, ego.lane, ego.position, ego.speed, ego.accel, ego.target_speed,
            [(o.lane, o.position, o.extent_m, o.kind) for o in self.obstacles],
            others.id, others.lane, others.position, others.speed, others.accel, others.target,
        ))

    @property
    def _moved_others(self) -> Vehicles:
        # the other vehicles one step on. No ego action moves them, and the
        # move reads only the columns, target_offset and float(v_max), so it
        # is made once per column set and overlay: scenes of one step that
        # share the columns (episodes that differ only in the ego) find it
        # on the columns, keyed by the IEEE 754 bits of those two values
        # (0.0 and -0.0 apart) and held there weakly, so the cache keeps no
        # trajectory alive
        others = self.others
        if not len(others):
            return others
        key = _MOVE_KEY.pack(self.target_offset, self.v_max)
        ref = others._moves.get(key)
        if ref is not None and (moved := ref()) is not None:
            return moved
        dt, offset, limit = DEFAULT_DT, self.target_offset, REVERSION_ACCEL
        commands = []
        for target, v in zip(others.target, others.speed):
            # Land exactly on the target instead of oscillating around it:
            # the value of max(-limit, min(limit, command))
            command = (target + offset - v) / dt
            commands.append(limit if command > limit else -limit if command < -limit else command)
        speed, position, accel = _advance(others.speed, commands, others.position, self.v_max)
        moved = Vehicles(others.id, others.lane, position, speed, accel, others.target,
                         others.by_lane)
        others._moves[key] = weakref.ref(moved)
        return moved

    @functools.cached_property
    def _neighbors(self) -> NeighborSet:
        # computed once per scene: the features and the edge policy both read it
        lane = self.ego.lane
        front_same, rear_same = lane_neighbors(self, lane)
        return NeighborSet(
            front_same=front_same,
            rear_same=rear_same,
            front_left=lane_neighbors(self, lane + 1)[0],
            front_right=lane_neighbors(self, lane - 1)[0],
        )

    def validate(self) -> None:
        if self.lane_count < 1:
            raise ScenarioError("lane_count must be >= 1")
        ego, others = self.ego, self.others
        ids = (ego.id, *others.id)
        if len(set(ids)) != len(ids):
            raise ScenarioError("vehicle ids must be unique")
        lanes = (ego.lane, *others.lane)
        positions = (ego.position, *others.position)
        speeds = (ego.speed, *others.speed)
        for vid, lane, position, speed in zip(ids, lanes, positions, speeds):
            if speed < 0:
                raise ScenarioError(f"vehicle {vid} has negative speed")
            if not (0 <= lane < self.lane_count):
                raise ScenarioError(f"vehicle {vid} lane {lane} out of range")
            if not math.isfinite(position):
                raise ScenarioError(f"vehicle {vid} position not finite")
        for obstacle in self.obstacles:
            if not (0 <= obstacle.lane < self.lane_count):
                raise ScenarioError(f"obstacle lane {obstacle.lane} out of range")
            if not math.isfinite(obstacle.position):
                raise ScenarioError(f"obstacle position {obstacle.position} not finite")
            if not obstacle.extent_m > 0:
                raise ScenarioError(f"obstacle extent_m {obstacle.extent_m} must be > 0")


@dataclass(frozen=True)
class NeighborInfo:
    """Gap (position-to-position, meters) and relative speed of one slot."""

    gap: float
    rel_speed: float


@dataclass(frozen=True)
class NeighborSet:
    """The four canonical slots around the ego; ``None`` marks an absent slot."""

    front_same: NeighborInfo | None
    rear_same: NeighborInfo | None
    front_left: NeighborInfo | None
    front_right: NeighborInfo | None


@dataclass(frozen=True)
class DriftInjection:
    """Scripted scenario perturbation active on steps in [start_step, end_step).

    kind is one of ``NewObstacle`` (adds an obstacle), ``TrafficPatternShift``
    (adds ``speed_offset`` to the scene's ``target_offset``, shifting every
    non-ego target speed) or ``SensorNoise`` (sets the scene's
    observation-noise sigma). :func:`validate_injection` also checks an
    obstacle's lane against the road.
    """

    kind: str
    start_step: int
    end_step: int
    lane: int = 0
    position: float = 0.0
    extent_m: float = 4.0
    obstacle_kind: str = "injected"
    speed_offset: float = 0.0
    sigma: float = 0.0

    KINDS = ("NewObstacle", "TrafficPatternShift", "SensorNoise")

    def validate(self) -> None:
        numbers = dict(position=self.position, extent_m=self.extent_m,
                       speed_offset=self.speed_offset, sigma=self.sigma)
        _require(_is_number, "a number", **numbers)
        _require(math.isfinite, "finite", **numbers)
        _require(
            _is_int,
            "an integer",
            start_step=self.start_step,
            end_step=self.end_step,
            lane=self.lane,
        )
        if not isinstance(self.obstacle_kind, str):
            raise ScenarioError(f"obstacle_kind must be a string, got {self.obstacle_kind!r}")
        if self.kind not in self.KINDS:
            raise ScenarioError(f"unknown injection kind {self.kind!r}")
        if self.start_step < 0:
            raise ScenarioError("injection start_step must be >= 0")
        if self.start_step >= self.end_step:
            raise ScenarioError("injection start_step must be < end_step")
        if self.kind == "NewObstacle" and self.extent_m <= 0:
            raise ScenarioError("obstacle extent_m must be positive")
        if self.kind == "SensorNoise" and not 0 <= self.sigma <= MAX_MAGNITUDE:
            raise ScenarioError(f"noise sigma must lie in [0, {MAX_MAGNITUDE:g}], "
                                f"got {self.sigma!r}")


def validate_injection(injection: DriftInjection, lane_count: int) -> None:
    """Check ``injection`` on its own and, for a ``NewObstacle``, that its
    lane lies on a road of ``lane_count`` lanes."""
    injection.validate()
    if injection.kind == "NewObstacle" and not 0 <= injection.lane < lane_count:
        raise ScenarioError(f"obstacle lane {injection.lane} out of range for {lane_count} lanes")


@dataclass(frozen=True)
class ScenarioConfig:
    """Deterministic scenario template expanded by :func:`spawn_scenario`.

    ``fixed_others`` pins exact vehicles (id, lane, position, speed, accel;
    a ``None`` target speed becomes the vehicle's speed);
    ``n_random_vehicles`` more are placed from the seed inside ``spawn_span``
    with per-lane gaps of at least 10 m, speeds drawn from ``speed_range``
    and used as their target speeds.
    """

    name: str = "scenario"
    lane_count: int = 4
    ego_lane: int = 0
    ego_speed: float = 25.0
    ego_position: float = 0.0
    ego_accel: float = 0.0
    v_max: float = DEFAULT_V_MAX
    n_random_vehicles: int = 0
    speed_range: tuple[float, float] = (18.0, 24.0)
    spawn_span: tuple[float, float] = (50.0, 1500.0)
    spawn_lanes: tuple[int, ...] | None = None
    fixed_others: tuple[VehicleState, ...] = ()

    def validate(self) -> None:
        name = self.name
        # the name is part of every trace file name, so it must stay one path
        # part, and no file name may hold a NUL
        if not isinstance(name, str) or name in ("", ".", "..") or any(
            sep in name for sep in (os.sep, os.altsep, "\0") if sep
        ):
            raise ScenarioError(
                f"name must be a non-empty string without path separators or NUL, "
                f"not '.' or '..', got {name!r}"
            )
        for field_name, pair in (("speed_range", self.speed_range),
                                 ("spawn_span", self.spawn_span)):
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(map(_is_number, pair))):
                raise ScenarioError(f"{field_name} must be a pair of finite numbers, got {pair!r}")
        numbers = dict(ego_speed=self.ego_speed, ego_position=self.ego_position,
                       ego_accel=self.ego_accel, v_max=self.v_max)
        _require(_is_number, "a number", **numbers)
        _require(
            math.isfinite,
            "finite",
            **numbers,
            speed_range=self.speed_range,
            spawn_span=self.spawn_span,
        )
        _require(
            _is_int,
            "an integer",
            lane_count=self.lane_count,
            ego_lane=self.ego_lane,
            n_random_vehicles=self.n_random_vehicles,
            spawn_lanes=self.spawn_lanes or (),
        )
        for v in self.fixed_others:
            prefix = f"vehicle {v.id} "
            _require(_is_int, "an integer", prefix, id=v.id, lane=v.lane)
            numbers = dict(position=v.position, speed=v.speed, accel=v.accel,
                           target_speed=v.resolved_target())
            _require(_is_number, "a number", prefix, **numbers)
            _require(math.isfinite, "finite", prefix, **numbers)
        for name, least, most in (("lane_count", 1, MAX_LANES),
                                  ("n_random_vehicles", 0, MAX_VEHICLES)):
            value = getattr(self, name)
            if not least <= value <= most:
                raise ScenarioError(f"{name} must lie in [{least}, {most}], got {value!r}")
        if not (0 <= self.ego_lane < self.lane_count):
            raise ScenarioError("ego_lane out of range")
        if self.ego_speed < 0:
            raise ScenarioError("ego_speed must be >= 0")
        lo, hi = self.speed_range
        if lo < 0 or hi < lo:
            raise ScenarioError("speed_range must satisfy 0 <= lo <= hi")
        if not 0 < self.v_max <= MAX_MAGNITUDE:
            raise ScenarioError(f"v_max must lie in (0, {MAX_MAGNITUDE:g}], got {self.v_max!r}")
        if abs(self.ego_accel) > MAX_MAGNITUDE:
            raise ScenarioError(
                f"ego_accel must lie in [-{MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], "
                f"got {self.ego_accel!r}"
            )
        # step clamps speeds to v_max, a jump no action could produce
        if self.ego_speed > self.v_max:
            raise ScenarioError(f"ego_speed {self.ego_speed} exceeds v_max {self.v_max}")
        if self.n_random_vehicles > 0 and hi > self.v_max:
            raise ScenarioError(f"speed_range upper bound {hi} exceeds v_max {self.v_max}")
        for vehicle in self.fixed_others:
            if not (0 <= vehicle.lane < self.lane_count):
                raise ScenarioError(
                    f"vehicle {vehicle.id} lane {vehicle.lane} out of range "
                    f"for {self.lane_count} lanes"
                )
            if vehicle.speed < 0:
                raise ScenarioError(f"vehicle {vehicle.id} speed {vehicle.speed} must be >= 0")
            if vehicle.speed > self.v_max:
                raise ScenarioError(
                    f"vehicle {vehicle.id} speed {vehicle.speed} exceeds v_max {self.v_max}"
                )
        near, far = self.spawn_span
        if far < near:
            raise ScenarioError("spawn_span must be ordered")
        # a random vehicle is placed at ego_position + uniform(near, far)
        if not math.isfinite(far - near):
            raise ScenarioError(f"spawn_span width must be finite, got {self.spawn_span!r}")
        for i, bound in enumerate(self.spawn_span):
            if not math.isfinite(self.ego_position + bound):
                raise ScenarioError(
                    f"ego_position + spawn_span[{i}] must be finite, got "
                    f"{self.ego_position!r} + {bound!r}"
                )
        for lane in self.spawn_lanes or ():
            if not (0 <= lane < self.lane_count):
                raise ScenarioError(f"spawn lane {lane} out of range")
        ids = [EGO_ID] + [v.id for v in self.fixed_others]
        if len(set(ids)) != len(ids):
            raise ScenarioError(f"vehicle ids must be unique (the ego is id {EGO_ID})")


def spawn_scenario(config: ScenarioConfig, seed: int) -> Scene:
    """Build the initial scene as a deterministic function of (config, seed)."""
    config.validate()
    ego = VehicleState(
        id=EGO_ID,
        lane=config.ego_lane,
        position=config.ego_position,
        speed=config.ego_speed,
        accel=config.ego_accel,
    )
    others = list(config.fixed_others)
    rng = np.random.default_rng(seed)
    lanes = config.spawn_lanes or tuple(range(config.lane_count))
    next_id = max([1000] + [v.id + 1 for v in others])
    # lane -> positions placed in it, ascending: a candidate keeps its gap to
    # every one iff it keeps it to the nearest on either side, since a
    # rounded difference is monotone in each operand
    placed: dict[int, list[float]] = {}
    for vehicle in (ego, *others):
        bisect.insort(placed.setdefault(vehicle.lane, []), vehicle.position)
    lo, hi = config.spawn_span
    for _ in range(config.n_random_vehicles):
        for _attempt in range(200):
            lane = int(rng.choice(lanes))
            position = config.ego_position + float(rng.uniform(lo, hi))
            row = placed.setdefault(lane, [])
            i = bisect.bisect_left(row, position)
            if ((i == len(row) or row[i] - position >= MIN_SPAWN_GAP_M)
                    and (i == 0 or position - row[i - 1] >= MIN_SPAWN_GAP_M)):
                break
        else:
            raise ScenarioError("could not place vehicles with 10 m gaps; widen spawn_span")
        speed = float(rng.uniform(*config.speed_range))
        others.append(
            VehicleState(
                id=next_id,
                lane=lane,
                position=position,
                speed=speed,
                accel=0.0,
                target_speed=speed,
            )
        )
        row.insert(i, position)
        next_id += 1
    scene = Scene(
        time=0.0,
        lane_count=config.lane_count,
        ego=ego,
        others=tuple(others),
        v_max=config.v_max,
    )
    scene.validate()
    return scene


class _Effects(dict):
    def __missing__(self, action):
        raise ValueError(f"unknown action {action!r}")


#: action -> (lane shift, first-step command in m/s^2), for the world and the
#: planners alike; an action's value finds the same entry (``Action`` is a
#: ``str`` enum) and any other key raises ``ValueError`` naming it. Its order
#: is the order of :func:`legal_actions` and the cloud's tie-break order.
EFFECTS = _Effects({
    Action.KEEP: (0, 0.0),
    Action.ACCELERATE: (0, ACCEL_CMD),
    Action.LANE_CHANGE_LEFT: (1, 0.0),
    Action.LANE_CHANGE_RIGHT: (-1, 0.0),
    Action.DECELERATE: (0, DECEL_CMD),
})

# (lane to the left?, lane to the right?) -> legal actions, in EFFECTS order,
# so the cloud planner's candidates and ties follow it too
_LEGAL_ACTIONS = {
    (left, right): tuple(
        a for a, (shift, _) in EFFECTS.items() if shift == 0 or (left if shift > 0 else right)
    )
    for left in (False, True)
    for right in (False, True)
}


def legal_actions(scene: Scene) -> tuple[Action, ...]:
    """Actions executable from the ego's current lane: the one lane-change
    rule, which :func:`step`, the planners and the loop all read."""
    lane = scene.ego.lane
    return _LEGAL_ACTIONS[lane < scene.lane_count - 1, lane > 0]


def _advance(speeds, commands, positions, v_max: float):
    """Integrate a column of vehicles one ``DEFAULT_DT`` step, each with the
    speed clamp folded into its acceleration.

    Returns the new (speeds, positions, effective accels) as tuples. The
    clamp is ``min(max(v + a dt, 0.0), float(v_max))``, compared as the
    builtins do, so a speed clamped to an int ``v_max`` is a float too;
    when it does not bind this is exactly p' = p + v dt + a dt^2 / 2.

    The world's integrator only: the planner's tracks move by the trapezoid
    p + (v + v') dt / 2, which may differ in the last ulp. Moving them by
    this formula instead changed no bench trace at seed 0 and no golden
    trace. What rests on the trapezoid is the planner's bound ``U``
    (``policies._bound``, whose rounding argument compares each step's
    ``0.5 * (v + v') * dt`` with ``0.5 * (b + b) * dt``) and the two oracle
    tests that encode it, ``TestSharedHazardPrediction`` in
    ``tests/test_policies.py`` and ``TestColumnReaders`` in
    ``tests/test_vehicle_columns.py``.
    """
    dt, v_max = DEFAULT_DT, float(v_max)
    new_speeds, new_positions, accels = [], [], []
    for v, a_cmd, p in zip(speeds, commands, positions):
        v_new = v + a_cmd * dt
        if 0.0 > v_new:
            v_new = 0.0
        if v_max < v_new:
            v_new = v_max
        a_eff = (v_new - v) / dt
        new_speeds.append(v_new)
        new_positions.append(p + v * dt + 0.5 * a_eff * dt * dt)
        accels.append(a_eff)
    return tuple(new_speeds), tuple(new_positions), tuple(accels)


def step(scene: Scene, action: Action | str) -> Scene:
    """Advance the world one decision step of ``DEFAULT_DT`` with the ego
    executing ``action``.

    The step length is fixed because the planners in :mod:`ecdrive.policies`
    predict with the same ``DEFAULT_DT``. Lane changes complete within the
    step and preserve speed. Other vehicles relax toward their target speeds
    plus ``scene.target_offset`` at +-1 m/s^2. ``action`` is read through
    :data:`EFFECTS`. Raises :class:`IllegalLaneChange` for a lane change at
    the road edge.
    """
    dt = DEFAULT_DT
    ego = scene.ego
    shift, a_cmd = EFFECTS[action]
    if action not in legal_actions(scene):
        raise IllegalLaneChange(f"already in the {'left' if shift > 0 else 'right'}most lane")

    (v_new,), (p_new,), (a_eff,) = _advance((ego.speed,), (a_cmd,), (ego.position,), scene.v_max)
    new_ego = VehicleState(ego.id, ego.lane + shift, p_new, v_new, a_eff, ego.target_speed)

    return replace(scene, time=scene.time + dt, ego=new_ego, others=scene._moved_others)


def overlaps(rel0: float, rel1: float, radius: float) -> bool:
    """Did a body come within ``radius`` of the ego during a step that took
    their relative position from ``rel0`` to ``rel1``: did it cross (a sign
    change) or end either side within ``radius``? With ``rel0 == rel1`` and
    ``radius * radius > 0`` this is ``abs(rel0) < radius``."""
    if rel0 * rel1 <= 0:
        return True
    return min(abs(rel0), abs(rel1)) < radius


def check_collision(scene: Scene) -> bool:
    """True iff the ego overlaps a same-lane vehicle or obstacle.

    Vehicles occupy +-2.5 m around their position, obstacles +-extent/2;
    overlap is strict interval intersection, :func:`overlaps` at an instant.
    """
    ego = scene.ego
    positions = scene.others.position
    for i in scene.others.by_lane.get(ego.lane, ()):
        rel = positions[i] - ego.position
        if overlaps(rel, rel, VEHICLE_LENGTH_M):
            return True
    for obs in scene.obstacles:
        rel = obs.position - ego.position
        if obs.lane == ego.lane and overlaps(rel, rel, obs.radius):
            return True
    return False


def inject_drift(scene: Scene, injection: DriftInjection, step_index: int) -> Scene:
    """Apply ``injection`` if ``step_index`` falls inside its window.

    Outside [start_step, end_step) the scene passes through unchanged (the
    very same object).
    """
    if not (injection.start_step <= step_index < injection.end_step):
        return scene
    if injection.kind == "NewObstacle":
        obstacle = Obstacle(
            lane=injection.lane,
            position=injection.position,
            extent_m=injection.extent_m,
            kind=injection.obstacle_kind,
        )
        if obstacle in scene.obstacles:
            return scene
        return replace(scene, obstacles=scene.obstacles + (obstacle,))
    if injection.kind == "TrafficPatternShift":
        return replace(scene, target_offset=scene.target_offset + injection.speed_offset)
    if injection.kind == "SensorNoise":
        return replace(scene, noise_sigma=injection.sigma)
    raise ScenarioError(f"unknown injection kind {injection.kind!r}")


def lane_neighbors(
    scene: Scene, lane: int
) -> tuple[NeighborInfo | None, NeighborInfo | None]:
    """Nearest vehicle ahead of (or level with) the ego in ``lane``, and
    nearest behind; ``None`` where the lane holds none. Gaps are measured
    position-to-position; the first vehicle wins a tie."""
    ego = scene.ego
    others = scene.others
    positions = others.position
    front = rear = None
    front_gap = rear_gap = math.inf
    for i in others.by_lane.get(lane, ()):
        gap = positions[i] - ego.position
        if gap >= 0:
            if gap < front_gap:
                front, front_gap = i, gap
        elif -gap < rear_gap:
            rear, rear_gap = i, -gap
    speeds = others.speed
    return (
        None if front is None else NeighborInfo(front_gap, speeds[front] - ego.speed),
        None if rear is None else NeighborInfo(rear_gap, speeds[rear] - ego.speed),
    )


def nearest_neighbors(scene: Scene) -> NeighborSet:
    """Extract the four canonical vehicle slots around the ego.

    Slots cover the nearest vehicle ahead in the ego lane, behind in the ego
    lane, and ahead in the adjacent left/right lanes. Gaps are measured
    position-to-position. Obstacles are not part of this view. The slots
    are computed once per scene, since the feature vector and the edge
    policy both read them every step.
    """
    return scene._neighbors
