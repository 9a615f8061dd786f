"""Build a driving scene and look at everything the codec derives from it.

Spawns the four-lane reference scene (ego at 25 m/s in the rightmost lane,
vehicle 496 ahead in the adjacent left lane), renders the natural-language
description used for prompting, and prints the 15-number feature vector the
drift monitor consumes.

Run:  python3 demos/01_scene_description.py
"""

from ecdrive import (
    FEATURE_NAMES,
    ScenarioConfig,
    VehicleState,
    describe,
    featurize,
    nearest_neighbors,
    spawn_scenario,
    step,
    edge_decide,
)

scenario = ScenarioConfig(
    name="reference",
    lane_count=4,
    ego_lane=0,
    ego_speed=25.0,
    ego_position=361.18,
    fixed_others=(
        VehicleState(id=496, lane=1, position=372.81, speed=21.2, accel=0.2),
    ),
)

scene = spawn_scenario(scenario, seed=0)

print("=== Scene description (the remote-prompt text) ===")
print(describe(scene))

print("\n=== Neighbor slots (vehicle-only view) ===")
slots = nearest_neighbors(scene)
for name in ("front_same", "rear_same", "front_left", "front_right"):
    slot = getattr(slots, name)
    if slot is None:
        print(f"  {name:12s}: absent")
    else:
        print(f"  {name:12s}: gap {slot.gap:6.2f} m, relative speed {slot.rel_speed:+.1f} m/s")

print("\n=== Feature vector (drift-monitor input) ===")
for name, value in zip(FEATURE_NAMES, featurize(scene)):
    print(f"  {name:20s} = {value:8.2f}")

print("\n=== Three steps of edge-driven motion ===")
for _ in range(3):
    decision = edge_decide(scene)
    scene = step(scene, decision.action)
    print(
        f"  t={scene.time:3.0f}s  action={decision.action.value:10s} "
        f"conf={decision.confidence:.3f}  ego at {scene.ego.position:7.2f} m, "
        f"{scene.ego.speed:.1f} m/s"
    )
