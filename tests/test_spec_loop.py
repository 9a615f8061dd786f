"""The fast loop against its executable spec (``spec_loop.py``): every trace
of :func:`run_episodes` equals the spec's, line for line."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

from ecdrive import MODES, DriftInjection, OffloadConfig, run_episodes
from ecdrive.trace import trace_lines

from scenarios import (
    drift_injections,
    open_highway_config,
    runnable_injections,
    runnable_offloads,
    runnable_scenarios,
)
from spec_loop import spec_episodes
from test_orchestrator import _runs

_NOISE = drift_injections(kind=st.just("SensorNoise"), start_step=st.integers(0, 30),
                          end_step=st.integers(31, 50), sigma=st.floats(0.0, 3.0))


def _example(*injections):
    """The open highway at seed 1 for 60 steps under ``injections``, with
    the detector of ``test_orchestrator``'s burn-in take-over tests."""
    return example(scenario=open_highway_config(), offload=OffloadConfig(n_ref=40, window=12),
                   injections=injections, tau=0.5, n_refs=(40, 40), seed=1, steps=60)


# no shrink phase: a failing example of this property took minutes and
# hundreds of MB to shrink, so a regression reports the example it found
# as it is, within seconds
@settings(max_examples=50, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(scenario=runnable_scenarios(), offload=runnable_offloads(),
       injections=st.tuples(runnable_injections(), _NOISE).map(lambda t: (*t[0], t[1])),
       tau=st.floats(0.0, 1.0), n_refs=st.tuples(st.integers(30, 60), st.integers(30, 60)),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 80))
@_example(DriftInjection(kind="SensorNoise", start_step=10, end_step=20, sigma=1.0))
@_example(DriftInjection(kind="NewObstacle", start_step=0, end_step=30, lane=0,
                         position=400.0, extent_m=4.0))
@_example(DriftInjection(kind="TrafficPatternShift", start_step=25, end_step=35,
                         speed_offset=-6.0),
          DriftInjection(kind="SensorNoise", start_step=5, end_step=15, sigma=0.5))
def test_run_episodes_equals_the_spec(scenario, offload, injections, tau, n_refs, seed, steps):
    # every mode, and a second Collaborative episode with another tau and
    # detector, all in one call
    configs = [replace(offload, mode=mode, n_ref=n_refs[0]) for mode in MODES]
    configs.append(replace(offload, mode="Collaborative", tau=tau, n_ref=n_refs[1]))
    assume(_runs(scenario, injections, configs, seed))
    traces = run_episodes(scenario, injections, configs, seed=seed, steps=steps)
    expected = spec_episodes(scenario, injections, configs, seed=seed, steps=steps)
    for trace, spec in zip(traces, expected, strict=True):
        assert trace_lines(trace) == trace_lines(spec)
