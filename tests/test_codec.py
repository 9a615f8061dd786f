"""Codec tests: description template, feature layout, decision decoding."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecdrive import (
    FEATURE_DIM,
    GAP_SENTINEL,
    Action,
    NoDecisionFound,
    Obstacle,
    Scene,
    VehicleState,
    describe,
    featurize,
    parse_decision,
)

from scenarios import reference_scene


def validate_features(vec: np.ndarray) -> None:
    """Raise if a feature vector violates its layout invariants."""
    if vec.shape != (FEATURE_DIM,):
        raise ValueError(f"feature vector must have length {FEATURE_DIM}")
    if not np.all(np.isfinite(vec)):
        raise ValueError("feature vector contains non-finite values")
    for base in (3, 6, 9, 12):
        gap, _rel, present = vec[base], vec[base + 1], vec[base + 2]
        if not (0.0 <= gap <= GAP_SENTINEL):
            raise ValueError(f"gap feature {base} out of [0, 200]")
        if present not in (0.0, 1.0):
            raise ValueError(f"present flag {base + 2} must be 0 or 1")


class TestDescribe:
    def test_reference_scene_published_values(self):
        text = describe(reference_scene())
        assert "rightmost lane of a four-lane road at a speed of 25.0 m/s" in text
        assert "with an acceleration of 0.0 m/s²" in text
        assert "lane position is 361.18 m" in text
        assert "Vehicle 496" in text
        assert "ahead by 372.81 m" in text
        assert "21.2 m/s" in text
        assert "0.2 m/s²" in text

    def test_no_others_gives_single_sentence(self):
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=1, position=10.0, speed=15.0))
        text = describe(scene)
        assert text.count("Vehicle ") == 0
        assert text.startswith("The ego vehicle is traveling in the leftmost lane")

    def test_ordering_by_ascending_gap(self):
        scene = Scene(
            time=0.0, lane_count=2,
            ego=VehicleState(id=0, lane=0, position=0.0, speed=10.0),
            others=(
                VehicleState(id=7, lane=1, position=50.0, speed=10.0),
                VehicleState(id=8, lane=1, position=5.0, speed=10.0),
            ),
        )
        text = describe(scene)
        assert text.index("Vehicle 8") < text.index("Vehicle 7")

    def test_behind_wording(self):
        scene = Scene(
            time=0.0, lane_count=2,
            ego=VehicleState(id=0, lane=1, position=100.0, speed=10.0),
            others=(VehicleState(id=3, lane=0, position=40.0, speed=12.0),),
        )
        text = describe(scene)
        assert "Vehicle 3 is in the right lane, behind by 40.00 m" in text

    @settings(max_examples=40, deadline=None)
    @given(
        ego_speed=st.floats(0.0, 30.0),
        ego_pos=st.floats(-500.0, 500.0),
        other_speed=st.floats(0.0, 30.0),
        other_pos=st.floats(-500.0, 500.0),
        other_accel=st.floats(-3.0, 3.0),
    )
    def test_round_trip_at_printed_precision(self, ego_speed, ego_pos, other_speed,
                                              other_pos, other_accel):
        scene = Scene(
            time=0.0, lane_count=3,
            ego=VehicleState(id=0, lane=1, position=ego_pos, speed=ego_speed),
            others=(VehicleState(id=42, lane=2, position=other_pos,
                                 speed=other_speed, accel=other_accel),),
        )
        text = describe(scene)
        ego_match = re.search(
            r"at a speed of (-?\d+\.\d) m/s, with an acceleration of (-?\d+\.\d) m/s², "
            r"and its lane position is (-?\d+\.\d\d) m\.",
            text,
        )
        assert ego_match
        assert float(ego_match.group(1)) == float(f"{ego_speed:.1f}")
        assert float(ego_match.group(3)) == float(f"{ego_pos:.2f}")
        veh_match = re.search(
            r"Vehicle 42 is in the \w+ lane, (?:ahead|behind) by (-?\d+\.\d\d) m, "
            r"traveling at a speed of (-?\d+\.\d) m/s, with an acceleration of (-?\d+\.\d) m/s²\.",
            text,
        )
        assert veh_match
        assert float(veh_match.group(1)) == float(f"{other_pos:.2f}")
        assert float(veh_match.group(2)) == float(f"{other_speed:.1f}")
        assert float(veh_match.group(3)) == float(f"{other_accel:.1f}")


class TestFeaturize:
    def test_reference_scene_layout(self):
        vec = featurize(reference_scene())
        assert vec[0] == 25.0
        assert vec[1] == 0.0
        assert vec[2] == 0.0  # rightmost of four lanes
        np.testing.assert_allclose(vec[3:6], [200.0, 0.0, 0.0])   # front same absent
        np.testing.assert_allclose(vec[6:9], [200.0, 0.0, 0.0])   # rear same absent
        assert vec[9] == pytest.approx(11.63, abs=1e-9)
        assert vec[10] == pytest.approx(-3.8, abs=1e-9)
        assert vec[11] == 1.0
        np.testing.assert_allclose(vec[12:15], [200.0, 0.0, 0.0])  # front right absent

    def test_empty_road_sentinels(self):
        scene = Scene(time=0.0, lane_count=4,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=25.0))
        vec = featurize(scene)
        for base in (3, 6, 9, 12):
            assert tuple(vec[base:base + 3]) == (200.0, 0.0, 0.0)

    def test_noise_monte_carlo(self):
        scene = Scene(time=0.0, lane_count=4,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=25.0),
                      noise_sigma=2.0)
        rng = np.random.default_rng(99)
        draws = np.array([featurize(scene, rng)[0] for _ in range(10_000)])
        assert draws.mean() == pytest.approx(25.0, abs=0.1)
        assert draws.std() == pytest.approx(2.0, rel=0.05)

    def test_noise_requires_rng(self):
        scene = Scene(time=0.0, lane_count=1,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=5.0),
                      noise_sigma=1.0)
        with pytest.raises(ValueError):
            featurize(scene)

    def test_pure_function_without_noise(self):
        scene = reference_scene()
        np.testing.assert_array_equal(featurize(scene), featurize(scene))

    def test_same_lane_obstacle_enters_front_slot(self):
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=20.0),
                      obstacles=(Obstacle(lane=0, position=80.0, extent_m=4.0),))
        vec = featurize(scene)
        assert vec[3] == 80.0
        assert vec[4] == -20.0
        assert vec[5] == 1.0

    def test_other_lane_obstacle_invisible(self):
        scene = Scene(time=0.0, lane_count=2,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=20.0),
                      obstacles=(Obstacle(lane=1, position=80.0, extent_m=4.0),))
        vec = featurize(scene)
        assert tuple(vec[3:6]) == (200.0, 0.0, 0.0)

    def test_nearer_vehicle_beats_obstacle(self):
        scene = Scene(time=0.0, lane_count=1,
                      ego=VehicleState(id=0, lane=0, position=0.0, speed=20.0),
                      others=(VehicleState(id=1, lane=0, position=30.0, speed=18.0),),
                      obstacles=(Obstacle(lane=0, position=90.0, extent_m=4.0),))
        vec = featurize(scene)
        assert vec[3] == 30.0
        assert vec[4] == pytest.approx(-2.0)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        lane_count=st.integers(1, 5),
        n_others=st.integers(0, 5),
        sigma=st.sampled_from([0.0, 0.5, 3.0]),
    )
    def test_bounds_fuzz(self, data, lane_count, n_others, sigma):
        ego_lane = data.draw(st.integers(0, lane_count - 1))
        others = tuple(
            VehicleState(
                id=i + 1,
                lane=data.draw(st.integers(0, lane_count - 1)),
                position=data.draw(st.floats(-300.0, 300.0)),
                speed=data.draw(st.floats(0.0, 30.0)),
            )
            for i in range(n_others)
        )
        scene = Scene(
            time=0.0, lane_count=lane_count,
            ego=VehicleState(id=0, lane=ego_lane, position=0.0,
                             speed=data.draw(st.floats(0.0, 30.0))),
            others=others,
            noise_sigma=sigma,
        )
        vec = featurize(scene, np.random.default_rng(0))
        validate_features(vec)


class TestParseDecision:
    def test_maintain_maps_to_keep(self):
        assert parse_decision(
            "…therefore the safest choice is to maintain the current speed."
        ) is Action.KEEP

    def test_last_occurrence_wins(self):
        assert parse_decision(
            "Accelerate is unsafe. Decision: change lane to the left."
        ) is Action.LANE_CHANGE_LEFT

    def test_no_match_raises(self):
        with pytest.raises(NoDecisionFound):
            parse_decision("The weather is nice.")

    @pytest.mark.parametrize(
        "phrase,expected",
        [
            ("accelerate", Action.ACCELERATE),
            ("decelerate", Action.DECELERATE),
            ("slow down", Action.DECELERATE),
            ("brake", Action.DECELERATE),
            ("keep", Action.KEEP),
            ("maintain", Action.KEEP),
            ("change lane to the left", Action.LANE_CHANGE_LEFT),
            ("change lanes to the left", Action.LANE_CHANGE_LEFT),
            ("left lane change", Action.LANE_CHANGE_LEFT),
            ("change lane to the right", Action.LANE_CHANGE_RIGHT),
            ("change lanes to the right", Action.LANE_CHANGE_RIGHT),
            ("right lane change", Action.LANE_CHANGE_RIGHT),
        ],
    )
    def test_whole_lexicon_resolves(self, phrase, expected):
        assert parse_decision(f"Final answer: {phrase}.") is expected

    @given(
        pad_left=st.text(alphabet=" \t\n", max_size=5),
        pad_right=st.text(alphabet=" \t\n", max_size=5),
        upper=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_case_and_whitespace_insensitive(self, pad_left, pad_right, upper):
        phrase = "Slow Down" if upper else "slow down"
        assert parse_decision(f"{pad_left}{phrase}{pad_right}") is Action.DECELERATE

    def test_word_boundaries_respected(self):
        with pytest.raises(NoDecisionFound):
            parse_decision("the bookkeeper handled the housekeeping")
