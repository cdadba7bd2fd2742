"""The zero-overhead-when-disabled guarantee, asserted structurally.

Rather than benchmarking (noisy), these tests pin the *mechanism*: a
run built without tracing shares the module-level ``NULL_TRACER``
singleton, allocates no sink, stores ``None`` at every emission site,
and leaves every instrumentable method unwrapped.  If any of these
breaks, disabled runs have started paying for observability.
"""

from repro.obs.tracer import NULL_TRACER, RingSink
from repro.sim import ScenarioConfig, build_scenario

_CONFIG = ScenarioConfig(duration_s=5.0, warmup_s=0.0)


def _build(**overrides):
    config = ScenarioConfig(duration_s=5.0, warmup_s=0.0, **overrides)
    return build_scenario("two-region-dspf", config=config)


def test_disabled_run_allocates_no_sink():
    simulation = _build()
    assert simulation.tracer is NULL_TRACER
    assert simulation.tracer.sink is None
    assert simulation.tracer.enabled is False


def test_disabled_run_stores_none_at_emission_sites():
    simulation = _build()
    assert simulation.stats._trace is None
    for psn in simulation.psns.values():
        assert psn._trace is None
        assert psn.flooding._trace is None


def test_disabled_run_leaves_methods_unwrapped():
    simulation = _build()
    for psn in simulation.psns.values():
        assert not hasattr(psn.forward, "__wrapped__")
        assert not hasattr(psn._apply_update, "__wrapped__")
    assert not hasattr(simulation.stats.packet_delivered, "__wrapped__")


def test_disabled_runs_share_the_null_tracer():
    assert _build().tracer is _build().tracer


def test_enabled_run_wires_the_same_tracer_everywhere():
    simulation = _build(trace="memory")
    assert simulation.tracer.enabled
    assert isinstance(simulation.tracer.sink, RingSink)
    assert simulation.stats._trace is simulation.tracer
    for psn in simulation.psns.values():
        assert psn._trace is simulation.tracer
        assert psn.flooding._trace is simulation.tracer


def test_disabled_run_still_attaches_telemetry():
    report = _build().run()
    assert report.telemetry is not None
    assert report.telemetry.trace_events == 0


def test_disabled_run_builds_no_meters():
    """``metrics=None`` allocates nothing and schedules no sampler."""
    simulation = _build()
    assert simulation.meters is None
    timers_before = len(simulation.sim.timers)
    report = simulation.run()
    assert len(simulation.sim.timers) == timers_before
    assert report.telemetry.meter_samples == 0


def test_enabled_meters_schedule_one_sampler_timer():
    bare = _build()
    metered = _build(metrics="memory")
    assert metered.meters is not None
    assert len(metered.sim.timers) == len(bare.sim.timers) + 1
