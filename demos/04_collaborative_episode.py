"""One full collaboration episode with a mid-run obstacle injection.

Runs the same seeded scenario in all three modes, in lockstep through one
``run_episodes`` call, which computes each scene the modes share once. An
obstacle materializes in the ego's lane for steps [100, 200); the drift
monitor notices the gap features leaving the reference distribution,
escalates those steps to the cloud, and the cloud brakes the ego short of
the blockage. An ASCII timeline shows where the offloads landed.

Run:  python3 demos/04_collaborative_episode.py
"""

from ecdrive import DriftInjection, OffloadConfig, ScenarioConfig, run_episodes

scenario = ScenarioConfig(
    name="corridor",
    lane_count=1,
    ego_lane=0,
    ego_speed=10.0,
    ego_position=0.0,
    v_max=10.0,
)
injections = (
    DriftInjection(kind="NewObstacle", start_step=100, end_step=200,
                   lane=0, position=1180.0, extent_m=4.0),
)
STEPS = 300

print("Scenario: single-lane 10 m/s corridor; blockage appears 180 m ahead")
print("of the ego at step 100 and is cleared again at step 200.\n")

modes = ("EdgeOnly", "Collaborative", "CloudOnly")
configs = [OffloadConfig(mode=mode, tau=0.0) for mode in modes]
traces = dict(zip(modes, run_episodes(scenario, injections, configs, seed=0, steps=STEPS)))

print(f"{'mode':14s} {'offload%':>9s} {'mean ms':>8s} {'p95 ms':>7s} "
      f"{'KB up':>7s} {'collisions':>10s} {'in-window':>9s}")
for mode, trace in traces.items():
    s = trace.summary
    print(f"{mode:14s} {s.offload_rate:9.1%} {s.mean_latency_ms:8.1f} "
          f"{s.p95_latency_ms:7.0f} {s.total_bytes_up / 1024:7.0f} "
          f"{s.collision_count:10d} {s.in_window_offload_fraction:9.1%}")

print("\nOffload timeline (Collaborative), one char per 5 steps,")
print("'^' = offloaded, '.' = edge handled, '|' marks the injection window:")
records = traces["Collaborative"].records
cells = []
for start in range(0, STEPS, 5):
    chunk = records[start:start + 5]
    cells.append("^" if any(r.offloaded for r in chunk) else ".")
line = "".join(cells)
a, b = 100 // 5, 200 // 5
print("  " + line[:a] + "|" + line[a:b] + "|" + line[b:])

first = next(r for r in records if r.offloaded)
print(f"\nFirst escalation at step {first.step} for reason {first.offload_reason}:")
print(f"  edge said  {first.edge_decision.action.value} "
      f"(confidence {first.edge_decision.confidence:.3f})")
print(f"  cloud said {first.cloud_decision.action.value} -> executed")
stopped = min(r.feature[0] for r in records)
print(f"\nLowest ego speed under cloud control: {stopped:.1f} m/s "
      f"(it waits out the blockage, then resumes).")
