"""Driving policies: fast edge rule chain, cloud rollout planner, remote adapter.

The edge policy mimics a small on-board model: a fixed chain of safety
checks evaluated in order, each appending one reasoning step, with a
confidence derived from how much clearance the chosen maneuver had. It
perceives vehicles only; obstacles are invisible to it by design, which is
exactly the situation that makes escalation to the cloud worthwhile.

The cloud policy perceives the full scene (obstacles included), predicts
the entities in the lanes the ego can reach forward with a
constant-acceleration rollout, and picks the cheapest action under a
collision-dominated cost. A crashed rollout halts the ego (speed zero for
the remaining horizon), so unavoidable impacts are priced by how much
motion survives before them: later and slower is cheaper. The entities'
paths do not depend on the ego, and the ego's path depends only on its
first-step command, so both are computed once per decision. The hazards
are then sorted against the range of the ego's paths: those that stay
behind it are dropped, those that stay ahead of it are reduced to each
lane's nearest position per step, and only the rest are checked one by
one by each candidate action's rollout. A vehicle track never falls, and
never passes the position a body at the larger of the vehicle's speed
and ``v_max`` reaches, so two bounds leave out vehicles before their
track is built: one whose bound stays behind the ego's reach, and one
that starts past its lane's running cut, a kept vehicle's bound, which it
can neither pass nor tie. The results are bit-identical to checking every
hazard's full track (see ``_plan_hazards``). The rationale's perception
stage lists the hazards that plan is made of, the near ones and those
that hold a lane's nearest position at some step, rather than every
entity on the road: a scene with only those hazards in it yields the same
plan, costs and choice. A scene whose plan lists no hazard, an open road,
is decided once per ego speed, ego lane, lane count and ``v_max``, and
every such scene shares that decision. Every rollout spans ``HORIZON``
steps.

``remote_decide`` delegates the endpoint's role to a chat-completion HTTP
endpoint and decodes the reply with the decision lexicon.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import struct
import threading
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

from .codec import GAP_SENTINEL, describe, parse_decision
from .highway import (
    DEFAULT_DT,
    EFFECTS,
    EGO_ID,
    VEHICLE_LENGTH_M,
    Action,
    Scene,
    VehicleState,
    _is_number,
    lane_neighbors,
    legal_actions,
    nearest_neighbors,
    overlaps,
)

logger = logging.getLogger(__name__)

T_HEADWAY = 1.5       # s, target time headway
G_MIN = 5.0           # m, minimum clearance
KAPPA_EDGE = 5.0      # m, confidence squash scale for the edge margins
KAPPA_CLOUD = 10.0    # cost units, confidence squash scale for the cloud
HORIZON = 3           # rollout steps
W_COLLISION = 1000.0
W_SPEED = 1.0
W_LANE_CHANGE = 2.0
W_HEADWAY = 50.0


class RemoteUnavailable(RuntimeError):
    """Transport failure or timeout while calling the remote endpoint."""

    def __init__(self, message: str, timed_out: bool = False):
        super().__init__(message)
        self.timed_out = timed_out


@dataclass(frozen=True)
class Decision:
    """An action with its ordered reasoning steps and a confidence in [0, 1]."""

    action: Action
    rationale: tuple[str, ...]
    confidence: float
    source: str


@dataclass(frozen=True)
class RolloutResult:
    """Predicted outcome of one candidate action over the rollout horizon."""

    action: Action
    cost: float
    predicted_min_gap: float
    collision_predicted: bool


@dataclass(frozen=True)
class EndpointConfig:
    """Remote chat-completion endpoint settings; the bearer token comes from
    the EC_DRIVE_API_KEY environment variable, never from config files."""

    base_url: str
    model: str = "gpt-4"
    timeout_s: float = 10.0
    role: str = "Cloud"

    def validate(self) -> None:
        if not isinstance(self.base_url, str) or not self.base_url:
            raise ValueError(f"base_url must be a non-empty string, got {self.base_url!r}")
        try:
            url = urlsplit(self.base_url)
            url.port  # raises on a port that is not an integer in [0, 65535]
        except ValueError:  # or on an unbalanced IPv6 bracket
            url = None
        # the request path is appended to the URL's text, so a "?" or "#"
        # (even with an empty query or fragment) would end up before it
        if (url is None or url.scheme not in ("http", "https") or not url.hostname
                or "?" in self.base_url or "#" in self.base_url):
            raise ValueError(
                "base_url must be an http(s) URL with a host, no query or fragment and,"
                f" if any, a port in [0, 65535], got {self.base_url!r}"
            )
        if url.username is not None or url.password is not None:  # traces hold it as it is
            raise ValueError("base_url must hold no user name or password; put the"
                             " bearer token in the EC_DRIVE_API_KEY environment variable")
        if not isinstance(self.model, str):
            raise ValueError(f"model must be a string, got {self.model!r}")
        timeout = self.timeout_s
        # the socket layer overflows above TIMEOUT_MAX; NaN fails the comparison
        if not _is_number(timeout) or not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ValueError(
                f"timeout_s must be a number in (0, {threading.TIMEOUT_MAX:.0f}], got {timeout!r}"
            )
        if self.role not in ("Edge", "Cloud"):
            raise ValueError(f"role must be 'Edge' or 'Cloud', got {self.role!r}")


def _confidence(margin_m: float, kappa: float) -> float:
    delta = max(0.0, margin_m)
    return delta / (delta + kappa)


def _edge(action: Action, rationale: list[str], margin_m: float) -> Decision:
    return Decision(action, tuple(rationale), _confidence(margin_m, KAPPA_EDGE), "Edge")


def edge_decide(scene: Scene) -> Decision:
    """Fast sequential rule chain; sees vehicles only, never obstacles.

    Checks, in order: accelerate (never at or above ``scene.v_max``, where
    it would step exactly as keeping speed does), keep speed, change left,
    change right, then brakes as the fallback. Each evaluated rule records
    one reasoning step. Confidence is margin / (margin + 5 m) where the
    margin is the clearance in meters by which the chosen rule's gap
    constraint held.
    """
    ego = scene.ego
    v = ego.speed
    slots = nearest_neighbors(scene)
    gap_f = slots.front_same.gap if slots.front_same else GAP_SENTINEL
    rationale: list[str] = []

    v_acc = min(v + EFFECTS[Action.ACCELERATE][1] * DEFAULT_DT, scene.v_max)
    h_acc = gap_f / v_acc if v_acc > 0 else math.inf
    margin_headway = gap_f - T_HEADWAY * v
    # at the speed limit the clamp makes Accelerate step exactly as Keep does
    at_limit = v >= scene.v_max
    ok = not at_limit and h_acc >= T_HEADWAY and gap_f >= G_MIN
    limit = f", at the {scene.v_max:.1f} m/s limit" if at_limit else ""
    rationale.append(
        f"Can accelerate? front gap {gap_f:.1f} m, projected headway {h_acc:.2f} s{limit}"
        f" -> {'yes' if ok else 'no'}."
    )
    if ok:
        return _edge(Action.ACCELERATE, rationale, margin_headway)

    h_keep = gap_f / v if v > 0 else math.inf
    ok = h_keep >= T_HEADWAY
    rationale.append(
        f"Can keep speed? current headway {h_keep:.2f} s -> {'yes' if ok else 'no'}."
    )
    if ok:
        return _edge(Action.KEEP, rationale, margin_headway)

    legal = legal_actions(scene)
    for side, action in (("left", Action.LANE_CHANGE_LEFT), ("right", Action.LANE_CHANGE_RIGHT)):
        if action not in legal:
            rationale.append(f"Can change lane {side}? no lane to the {side}.")
            continue
        front_t, rear_t = (
            GAP_SENTINEL if n is None else min(n.gap, GAP_SENTINEL)
            for n in lane_neighbors(scene, ego.lane + EFFECTS[action][0])
        )
        front_need = G_MIN + T_HEADWAY * v
        ok = front_t >= front_need and rear_t >= G_MIN
        rationale.append(
            f"Can change lane {side}? front gap {front_t:.1f} m, rear gap {rear_t:.1f} m"
            f" -> {'yes' if ok else 'no'}."
        )
        if ok:
            margin = min(front_t - front_need, rear_t - G_MIN)
            return _edge(action, rationale, margin)

    rationale.append(f"Falling back to braking: front gap {gap_f:.1f} m.")
    return _edge(Action.DECELERATE, rationale, gap_f - G_MIN)


def _track(p: float, v: float, accels, v_max: float) -> tuple[list[float], list[float]]:
    """The positions and speeds of one body from ``p`` and ``v``, one step
    per command in ``accels``, the current values first: each step clamps
    the speed as ``highway._advance`` does and moves by the trapezoid
    p + (v + v') dt / 2. A standing body (all 0.0) stays at ``p + 0.0``."""
    dt = DEFAULT_DT
    positions, speeds = [p], [v]
    for a in accels:
        v_new = v + a * dt
        if 0.0 > v_new:
            v_new = 0.0
        if v_max < v_new:
            v_new = v_max
        p = p + 0.5 * (v + v_new) * dt
        v = v_new
        positions.append(p)
        speeds.append(v)
    return positions, speeds


#: the first-step commands of :data:`EFFECTS`, each once, in its order
_COMMANDS = tuple(dict.fromkeys(command for _, command in EFFECTS.values()))


def _ego_paths(scene: Scene) -> dict[float, tuple[list[float], list[float]]]:
    """The ego's positions and speeds, ``HORIZON + 1`` of each, for every
    first-step command of :data:`EFFECTS` (then holding speed), had nothing
    been hit."""
    ego, hold = scene.ego, (0.0,) * (HORIZON - 1)
    return {
        command: _track(ego.position, ego.speed, (command, *hold), scene.v_max)
        for command in _COMMANDS
    }


class _HazardPlan(NamedTuple):
    """What every candidate rollout of one decision reads; see
    :func:`_plan_hazards`."""

    #: first-step command -> the ego's (positions, speeds)
    paths: dict[float, tuple[list[float], list[float]]]
    #: lane -> (radius, positions) of each near hazard, in entity order
    near: dict[int, list[tuple[float, list[float]]]]
    #: lane -> per-row minimum position of the hazards ahead
    ahead: dict[int, list[float]]
    #: entity indices (vehicles in column order, then obstacles), ascending,
    #: of the near hazards and of the ahead hazards that attain a minimum
    listed: list[int]


def _plan_hazards(scene: Scene) -> _HazardPlan:
    """Predict the hazards in the lanes the ego can reach (its own and the
    two beside it) once, and sort each lane's against the ego's reach.

    The ego's uncollided path depends only on its first-step command (one
    of :data:`EFFECTS`; lane changes keep speed), and a rollout
    checks hazards only at positions on that path, so every check of
    every candidate looks at an ego position in ``[e_lo, e_hi]``, the range
    of the three paths. A hazard in a lane the ego can reach, with radius
    ``r > 0`` whose square does not underflow, and positions ``P_0..P_H`` is
    - **behind** if ``max P - e_lo <= -r``. Float subtraction rounds
      monotonically, so every relative position ``P_k - e`` a rollout
      forms is ``<= -r``: the product of two of them is ``>= r * r > 0``
      and neither is within ``r``, so it never hits, and ``P_k < e`` keeps
      it out of every front gap. It is dropped.
    - **ahead** if ``min P - e_hi >= r``. By the same argument it never
      hits and is in front at every step; its gap is ``P_k - e``, and
      ``fl(min_i P_ik - e) == min_i fl(P_ik - e)`` because rounding is
      monotone, so the lane keeps only the per-row minimum over its ahead
      hazards. That gap is ``>= r > 0``, so the other candidates' order
      cannot decide a tie between ``0.0`` and ``-0.0``.
    - **near** otherwise; so is every hazard with another radius. Near
      hazards keep their own positions and are checked as before, in
      entity order.
    The argument assumes finite positions; a config with NaN or Infinity
    in it fails validation.

    Hazards are visited lane by lane, each lane's vehicles in column order
    and then its obstacles; an obstacle stands still, a vehicle keeps its
    acceleration. Two rules leave out vehicles whose track cannot change
    the result, without building it, in the one pass over the lane. Both
    rest on one property: with a speed ``v >= 0`` and ``v_max >= 0`` every
    speed of a track lies in ``[0, b]``, ``b = max(v, v_max)``, and each
    step adds ``0.5 * (v + v') * dt >= 0``, so the track never falls and,
    rounding being monotone in every operand, never passes ``U``, the
    position reached from ``P_0`` by ``H`` steps of ``0.5 * (b + b) * dt``
    (that is ``b`` unless ``b + b`` overflows):
    - **behind by its bound.** If ``U - e_lo <= -r``, then
      ``max P - e_lo <= -r``: the vehicle is behind (a NaN acceleration
      makes the later positions NaN, which ``max`` passes over).
    - **past the cut.** A lane's cut starts at ``inf``. A vehicle with
      ``v >= 0`` and a finite acceleration is left out if ``P_0 > cut``;
      else, if ``P_0 - e_hi >= r`` and ``P_0`` is below the start of every
      vehicle that set the cut before, its ``U`` becomes the cut. So a
      left-out vehicle starts past ``U_m`` of a kept vehicle ``m`` earlier
      in column order; ``m`` is ahead (its least position is ``P_0``) and
      lies strictly below the left-out one at every step, so a row's first
      entry is never a left-out vehicle's. ``min`` returns NaN when a row
      starts with NaN and the least number otherwise, so the row minimum
      and its ``row.index`` are those of the full row. Any kept ahead
      vehicle's ``U`` is a sound cut, so a nearer one faster than ``v_max``
      may loosen it; it is tight once column order reaches the nearest.
    Every other vehicle, and every vehicle with a NaN or negative speed,
    is classified from its full track, so a comparison that fails on NaN
    keeps the track. A ``v_max`` below 0 (or NaN) turns both rules off.

    ``listed`` names the hazards the plan is made of, by ascending entity
    index: every near hazard, and in each ahead lane, per row, the hazard
    that holds the minimum (on a tie the first in entity order, which is
    the one ``min`` returns). A scene that holds only the listed hazards
    yields the same plan, so the same rollouts and costs: each hazard is
    classified on its own, from its own track and the ego's range; near
    hazards are checked one by one and keep their entity order; an ahead
    lane is reduced to its per-row minima, and the listed hazards attain
    every one of them, bit for bit.
    A plan that lists nothing has no near or ahead hazard, so no rollout
    that reads it looks at a position (see :func:`cloud_decide`).
    """
    paths = _ego_paths(scene)
    reach = [p for positions, _ in paths.values() for p in positions]
    e_lo, e_hi = min(reach), max(reach)
    dt, v_max, r = DEFAULT_DT, scene.v_max, VEHICLE_LENGTH_M
    top = float(v_max)
    if not top >= 0.0:
        top = math.nan  # the bounds are NaN, so no comparison prunes
    # U grows with P_0, so a vehicle with v <= top that starts at or below a
    # point whose bound is behind is behind too, its own bound unformed
    floor = e_lo - r - (HORIZON + 1) * top
    if not _bound(floor, 0.0, top) - e_lo <= -r:
        floor = math.nan
    others, obstacles = scene.others, scene.obstacles
    positions, speeds, accels = others.position, others.speed, others.accel
    n_vehicles, still, inf = len(speeds), (0.0,) * HORIZON, math.inf
    ego_lane = scene.ego.lane
    near: dict[int, list[tuple[float, list[float]]]] = {}
    ahead: dict[int, list[float]] = {}
    listed = []
    for lane in (ego_lane - 1, ego_lane, ego_lane + 1):
        hazards, cut, front = [], inf, inf
        for i in others.by_lane.get(lane, ()):
            p, v, a = positions[i], speeds[i], accels[i]
            if v >= 0.0:
                if p - e_lo <= -r and (
                        p <= floor and v <= top or _bound(p, v, top) - e_lo <= -r):
                    continue
                if -inf < a < inf:
                    if p > cut:
                        continue
                    if p < front and p - e_hi >= r:
                        front, cut = p, _bound(p, v, top)
            track = [p]
            for _ in range(HORIZON):
                v_new = v + a * dt
                if 0.0 > v_new:
                    v_new = 0.0
                if v_max < v_new:
                    v_new = v_max
                p = p + 0.5 * (v + v_new) * dt
                v = v_new
                track.append(p)
            hazards.append((i, r, track))
        for j, obs in enumerate(obstacles):
            if obs.lane == lane:
                track = _track(obs.position, 0.0, still, v_max)[0]
                hazards.append((n_vehicles + j, obs.radius, track))
        indices, tracks = [], []
        for index, radius, track in hazards:
            if radius > 0.0 and radius * radius > 0.0:
                if max(track) - e_lo <= -radius:
                    continue
                if min(track) - e_hi >= radius:
                    indices.append(index)
                    tracks.append(track)
                    continue
            near.setdefault(lane, []).append((radius, track))
            listed.append(index)
        if indices:
            minima = ahead[lane] = []
            for row in zip(*tracks):
                low = min(row)
                minima.append(low)
                listed.append(indices[row.index(low)])
    return _HazardPlan(paths, near, ahead, sorted(set(listed)))


def _bound(p: float, v: float, top: float) -> float:
    """``U`` of :func:`_plan_hazards`: ``p`` moved ``HORIZON`` times by
    ``0.5 * (b + b) * dt``, ``b = max(top, v)``, NaN if ``top`` is."""
    b = v if v > top else top
    stride = 0.5 * (b + b) * DEFAULT_DT
    for _ in range(HORIZON):
        p = p + stride
    return p


def rollout_cost(
    scene: Scene, action: Action | str, hazards: _HazardPlan | None = None
) -> RolloutResult:
    """Predict ``HORIZON`` steps of executing ``action`` then holding speed.

    Other vehicles keep their current acceleration; obstacles stay put.
    Their trajectories do not depend on the ego, so ``hazards`` may carry
    the plan of :func:`_plan_hazards`, shared by several actions; without
    it the plan is made here.
    Only hazards in the ego's target lane are checked, and of those only
    the ones the plan could not rule out. A predicted collision zeroes the
    ego's speed for the rest of the horizon.
    cost = 1000 * [collision] + (v_max - mean ego speed)
         + 2 * [lane change] + 50 * max(0, T_h - min headway) / T_h.
    Illegal lane changes cost infinity and are excluded from planning.
    ``action`` is read through :data:`EFFECTS`.
    """
    shift, command = EFFECTS[action]
    if action not in legal_actions(scene):
        return RolloutResult(action, math.inf, 0.0, False)
    ego_lane = scene.ego.lane + shift
    if hazards is None:
        hazards = _plan_hazards(scene)
    near = hazards.near.get(ego_lane, ())
    ahead = hazards.ahead.get(ego_lane)
    positions, speeds = hazards.paths[command]

    collided = False
    min_gap = GAP_SENTINEL
    min_headway = math.inf
    speed_sum = 0.0

    for k in range(HORIZON):
        ego_p, ego_p_new = positions[k], positions[k + 1]
        front = []
        for radius, track in near:
            rel_new = track[k + 1] - ego_p_new
            if overlaps(track[k] - ego_p, rel_new, radius):
                collided = True
                break
            if track[k + 1] >= ego_p_new:
                front.append(rel_new)
        if collided:
            # the halted ego adds 0.0 to the speed sum for the rest of the horizon
            min_gap = min_headway = 0.0
            break
        if ahead is not None:
            front.append(ahead[k + 1] - ego_p_new)
        gap = min(front) if front else GAP_SENTINEL
        ego_v = speeds[k + 1]
        speed_sum += ego_v
        headway = gap / ego_v if ego_v > 0 else math.inf
        # min(min_gap, gap) and min(min_headway, headway), compared as the builtins do
        if gap < min_gap:
            min_gap = gap
        if headway < min_headway:
            min_headway = headway

    mean_speed = speed_sum / HORIZON
    headway_term = 0.0 if math.isinf(min_headway) else max(0.0, T_HEADWAY - min_headway) / T_HEADWAY
    cost = (
        W_COLLISION * collided
        + W_SPEED * (scene.v_max - mean_speed)
        + W_LANE_CHANGE * (shift != 0)
        + W_HEADWAY * headway_term
    )
    return RolloutResult(action, cost, min_gap, collided)


_PERCEIVED_VEHICLE = "perceived: vehicle %d in lane %d at %.2f m, speed %.1f m/s"
# a float keys the open-road cache by its IEEE 754 bits, so 0.0 and -0.0 differ
_DOUBLE = struct.Struct("<d")


def cloud_decide(scene: Scene) -> Decision:
    """Three-stage cloud policy: perceive everything, predict, plan by argmin.

    The hazards are predicted and sorted against the ego's reach once
    (:func:`_plan_hazards`), and every candidate's :func:`rollout_cost`
    reads that plan. Rationale lists one "perceived:" line per hazard the
    plan is made of (its ``listed`` hazards, in entity order; hazards behind
    the ego, in unreachable lanes or hidden behind a nearer one ahead are
    left out), the per-action rollout costs, and the selection. Confidence
    comes from the cost margin between the best and second-best action.

    A scene whose plan lists nothing is an open road: no rollout reads a
    position, and the rationale has no "perceived:" line, so the decision
    depends only on the ego's speed and lane, ``lane_count`` and ``v_max``.
    It is made once per such key (:func:`_open_road_decision`) and the same
    immutable :class:`Decision` is returned for every scene with that key.
    """
    hazards = _plan_hazards(scene)
    if not hazards.listed:
        ego = scene.ego
        return _open_road_decision(
            _DOUBLE.pack(ego.speed), ego.lane, scene.lane_count, _DOUBLE.pack(scene.v_max)
        )
    return _decide(scene, hazards)


@functools.lru_cache(maxsize=1024)
def _open_road_decision(
    speed_bits: bytes, lane: int, lane_count: int, v_max_bits: bytes
) -> Decision:
    """The decision of every scene whose plan lists no hazard, made on the
    canonical road of its key: the same lane count and ``v_max``, and the
    ego at 0.0 m with that speed and lane, alone."""
    (speed,), (v_max,) = _DOUBLE.unpack(speed_bits), _DOUBLE.unpack(v_max_bits)
    road = Scene(time=0.0, lane_count=lane_count, ego=VehicleState(EGO_ID, lane, 0.0, speed),
                 v_max=v_max)
    return _decide(road, _plan_hazards(road))


def _decide(scene: Scene, hazards: _HazardPlan) -> Decision:
    """:func:`cloud_decide` from the plan ``hazards`` of ``scene``."""
    others = scene.others
    ids, lanes, positions, speeds = others.id, others.lane, others.position, others.speed
    n_vehicles = len(ids)
    rationale = []
    for i in hazards.listed:
        if i < n_vehicles:
            rationale.append(_PERCEIVED_VEHICLE % (ids[i], lanes[i], positions[i], speeds[i]))
            continue
        obs = scene.obstacles[i - n_vehicles]
        rationale.append(
            f"perceived: obstacle ({obs.kind}) in lane {obs.lane} at {obs.position:.2f} m, "
            f"extent {obs.extent_m:.1f} m"
        )

    # in EFFECTS order, which also breaks ties between equal costs
    candidates = legal_actions(scene)
    rationale.append(f"predicted {HORIZON}-step rollouts for {len(candidates)} candidate actions")
    results = [rollout_cost(scene, a, hazards) for a in candidates]
    for res in results:
        rationale.append(f"cost[{res.action.value}] = {res.cost:.3f}")

    ranked = sorted(range(len(results)), key=lambda i: (results[i].cost, i))
    best = results[ranked[0]]
    margin = results[ranked[1]].cost - best.cost if len(ranked) > 1 else math.inf
    confidence = 1.0 if math.isinf(margin) else _confidence(margin, KAPPA_CLOUD)
    rationale.append(f"selected {best.action.value} (cost {best.cost:.3f}, margin {margin:.3f})")
    return Decision(
        action=best.action,
        rationale=tuple(rationale),
        confidence=confidence,
        source="Cloud",
    )


_SYSTEM_PROMPTS = {
    "Edge": (
        "You are the in-vehicle driving assistant of an autonomous car on a highway. "
        "Reason step by step: first assess whether the vehicle can accelerate, then "
        "whether it is safe to keep the current speed, then whether a lane change is "
        "possible and safe. Finish with exactly one decision phrase: accelerate, "
        "decelerate, keep current speed, change lane to the left, or change lane to "
        "the right."
    ),
    "Cloud": (
        "You are the remote driving planner assisting an autonomous car with a "
        "difficult highway scene. Work through three stages: perception (list every "
        "vehicle and hazard), prediction (where each will be over the next three "
        "seconds), and planning (compare the candidate maneuvers). Finish with "
        "exactly one decision phrase: accelerate, decelerate, keep current speed, "
        "change lane to the left, or change lane to the right."
    ),
}


def remote_decide(scene: Scene, endpoint: EndpointConfig) -> Decision:
    """Delegate one decision to a chat-completion endpoint.

    Sends the rendered scene description with the system prompt of
    ``endpoint.role`` at temperature 0 and decodes the reply with the
    decision lexicon. Raises ``ValueError`` before any request if the
    endpoint fails :meth:`EndpointConfig.validate`. Raises
    :class:`RemoteUnavailable` on transport failure or timeout and lets
    :class:`NoDecisionFound` propagate on undecodable replies; the caller is
    expected to fall back to the local policy of the same role.
    """
    import urllib.request
    from http.client import HTTPException

    endpoint.validate()
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get("EC_DRIVE_API_KEY")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": endpoint.model,
        "messages": [
            {"role": "system", "content": _SYSTEM_PROMPTS[endpoint.role]},
            {"role": "user", "content": describe(scene)},
        ],
        "temperature": 0,
    }
    request = urllib.request.Request(
        endpoint.base_url.rstrip("/") + "/chat/completions",
        data=json.dumps(body).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=endpoint.timeout_s) as response:
            content = json.loads(response.read())["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise TypeError(f"reply content is {type(content).__name__}, not a string")
    except (OSError, HTTPException, KeyError, IndexError, TypeError, ValueError) as exc:
        # urlopen wraps a connect timeout in URLError; a read timeout is raw.
        timed_out = isinstance(exc, TimeoutError) or isinstance(
            getattr(exc, "reason", None), TimeoutError
        )
        what = "timed out" if timed_out else "failed"
        raise RemoteUnavailable(f"remote endpoint {what}: {exc}", timed_out=timed_out) from exc

    action = parse_decision(content)
    lines = tuple(line for line in content.splitlines() if line.strip()) or (content,)
    return Decision(action=action, rationale=lines, confidence=1.0, source="Remote")
