"""Scene-to-text and scene-to-feature conversion plus decision decoding.

The text template and the decision lexicon below are frozen: they form the
prompt contract for remote chat-completion models and are published verbatim
in the README. The 15-dimensional feature layout is the monitoring input the
drift detector is fitted on.
"""

from __future__ import annotations

import numpy as np

from .highway import Action, NeighborInfo, Scene, nearest_neighbors

FEATURE_DIM = 15
GAP_SENTINEL = 200.0

#: Index layout of the feature vector. Three ego features, then
#: (gap, relative speed, present) for each of the four neighbor slots.
FEATURE_NAMES = (
    "ego_speed",
    "ego_accel",
    "ego_lane_frac",
    "front_same_gap", "front_same_rel", "front_same_present",
    "rear_same_gap", "rear_same_rel", "rear_same_present",
    "front_left_gap", "front_left_rel", "front_left_present",
    "front_right_gap", "front_right_rel", "front_right_present",
)

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five", "six",
    "seven", "eight", "nine", "ten", "eleven", "twelve",
)

_ORDINALS = (
    "first", "second", "third", "fourth", "fifth", "sixth",
    "seventh", "eighth", "ninth", "tenth", "eleventh", "twelfth",
)


class NoDecisionFound(ValueError):
    """No phrase of the decision lexicon occurs in the response text."""


def _lane_word(lane: int, lane_count: int) -> str:
    if lane_count == 1:
        return "only"
    if lane == 0:
        return "rightmost"
    if lane == lane_count - 1:
        return "leftmost"
    # Lanes count from the right: lane 1 is the second lane, and so on.
    return _ORDINALS[lane] if lane < len(_ORDINALS) else f"{lane + 1}th"


def _count_word(n: int) -> str:
    return _NUMBER_WORDS[n] if n < len(_NUMBER_WORDS) else str(n)


def _relative_lane(delta: int) -> str:
    if delta == 0:
        return "same"
    if delta == 1:
        return "left"
    if delta == -1:
        return "right"
    return "far left" if delta > 0 else "far right"


def describe(scene: Scene) -> str:
    """Render the fixed scene-description template.

    One ego sentence, then one sentence per other vehicle ordered by
    ascending distance from the ego. Speeds and accelerations print with one
    decimal, positions with two.
    """
    ego = scene.ego
    parts = [
        f"The ego vehicle is traveling in the {_lane_word(ego.lane, scene.lane_count)} lane "
        f"of a {_count_word(scene.lane_count)}-lane road at a speed of {ego.speed:.1f} m/s, "
        f"with an acceleration of {ego.accel:.1f} m/s², "
        f"and its lane position is {ego.position:.2f} m."
    ]
    others = scene.others
    rows = zip(others.id, others.lane, others.position, others.speed, others.accel)
    by_gap = sorted(rows, key=lambda row: (abs(row[2] - ego.position), row[0]))
    for vid, lane, position, speed, accel in by_gap:
        direction = "ahead" if position >= ego.position else "behind"
        parts.append(
            f"Vehicle {vid} is in the {_relative_lane(lane - ego.lane)} lane, "
            f"{direction} by {position:.2f} m, "
            f"traveling at a speed of {speed:.1f} m/s, "
            f"with an acceleration of {accel:.1f} m/s²."
        )
    return " ".join(parts)


def _slot_values(slot: NeighborInfo | None) -> tuple[float, float, float]:
    if slot is None:
        return GAP_SENTINEL, 0.0, 0.0
    return min(max(slot.gap, 0.0), GAP_SENTINEL), slot.rel_speed, 1.0


def _fold_obstacles_into_front(scene: Scene, front: NeighborInfo | None) -> NeighborInfo | None:
    """Treat the nearest same-lane obstacle ahead as a stopped front entity.

    This is what makes a newly appeared obstacle visible to the drift
    detector through the front-gap features; the edge policy's own
    perception stays vehicle-only.
    """
    ego = scene.ego
    ahead = [
        o for o in scene.obstacles
        if o.lane == ego.lane and o.position >= ego.position
    ]
    if not ahead:
        return front
    nearest = min(ahead, key=lambda o: o.position - ego.position)
    gap = nearest.position - ego.position
    if front is None or gap < front.gap:
        return NeighborInfo(gap=gap, rel_speed=-ego.speed)
    return front


def featurize(scene: Scene, rng: np.random.Generator | None = None) -> np.ndarray:
    """Produce the 15-number monitoring vector for one scene.

    With ``scene.noise_sigma > 0`` every observed speed and gap is perturbed
    by independent Gaussian noise drawn from ``rng``; sigma 0 yields exact
    values and consumes no randomness. Gaps are clamped to [0, 200] with 200
    as the absent-slot sentinel. The vector is read-only: episodes that
    stand on equal scenes share it.
    """
    if scene.noise_sigma > 0 and rng is None:
        raise ValueError("featurize needs an rng when noise_sigma > 0")

    sigma = scene.noise_sigma

    def observe(value: float) -> float:
        if sigma > 0:
            return value + sigma * float(rng.standard_normal())
        return value

    slots = nearest_neighbors(scene)
    front_same = _fold_obstacles_into_front(scene, slots.front_same)

    ego = scene.ego
    lane_frac = 0.0 if scene.lane_count == 1 else ego.lane / (scene.lane_count - 1)
    values = [observe(ego.speed), ego.accel, lane_frac]
    for slot in (front_same, slots.rear_same, slots.front_left, slots.front_right):
        gap, rel, present = _slot_values(slot)
        if present:
            gap = min(max(observe(gap), 0.0), GAP_SENTINEL)
            rel = observe(rel)
        values.extend((gap, rel, present))
    vec = np.asarray(values, dtype=np.float64)
    assert vec.shape == (FEATURE_DIM,)
    vec.setflags(write=False)
    return vec


#: Decision lexicon: regex alternatives per action, matched case-insensitively;
#: the match occurring last in the text wins.
DECISION_LEXICON: tuple[tuple[Action, str], ...] = (
    (Action.ACCELERATE, r"\baccelerate\b"),
    (Action.DECELERATE, r"\bdecelerate\b|\bslow\s+down\b|\bbrake\b"),
    (Action.KEEP, r"\bkeep\b|\bmaintain\b"),
    (Action.LANE_CHANGE_LEFT, r"\bchange\s+lanes?\s+to\s+the\s+left\b|\bleft\s+lane\s+change\b"),
    (Action.LANE_CHANGE_RIGHT, r"\bchange\s+lanes?\s+to\s+the\s+right\b|\bright\s+lane\s+change\b"),
)


def parse_decision(response_text: str) -> Action:
    """Decode the acted-on decision from free-form model text.

    Scans case-insensitively for every lexicon phrase and returns the action
    of the last occurrence. Raises :class:`NoDecisionFound` when nothing
    matches.
    """
    import re

    best: tuple[int, Action] | None = None
    for action, pattern in DECISION_LEXICON:
        for match in re.finditer(pattern, response_text, flags=re.IGNORECASE):
            if best is None or match.start() > best[0]:
                best = (match.start(), action)
    if best is None:
        raise NoDecisionFound("no decision phrase found in response")
    return best[1]
