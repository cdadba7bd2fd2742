"""End-to-end checks that runs emit the documented event kinds."""

from repro.obs.tracer import (
    CIRCUIT_FAIL,
    CIRCUIT_RESTORE,
    COST_CHANGE,
    EVENT_KINDS,
    SPF_BATCH_REPAIR,
    UPDATE_ACCEPTED,
    UPDATE_FLOODED,
    UPDATE_GENERATED,
    UPDATE_SUPPRESSED,
    UTILIZATION,
)
from repro.sim import ScenarioConfig, build_scenario


def _kinds(simulation):
    return {event["kind"] for event in simulation.tracer.events()}


def test_steady_run_emits_the_routing_story():
    config = ScenarioConfig(duration_s=30.0, warmup_s=0.0, trace="memory")
    simulation = build_scenario("two-region-dspf", config=config)
    simulation.run()
    kinds = _kinds(simulation)
    assert {COST_CHANGE, UPDATE_GENERATED, UPDATE_ACCEPTED,
            UPDATE_SUPPRESSED, UPDATE_FLOODED, UTILIZATION} <= kinds
    assert kinds <= set(EVENT_KINDS)


def test_circuit_transitions_are_traced():
    config = ScenarioConfig(duration_s=40.0, warmup_s=0.0, trace="memory")
    simulation = build_scenario("two-region-dspf", config=config)
    simulation.fail_circuit_at(0, 10.0)
    simulation.restore_circuit_at(0, 25.0)
    simulation.run()
    events = simulation.tracer.events()
    fails = [e for e in events if e["kind"] == CIRCUIT_FAIL]
    restores = [e for e in events if e["kind"] == CIRCUIT_RESTORE]
    assert [(e["t"], e["link"]) for e in fails] == [(10.0, 0)]
    assert [(e["t"], e["link"]) for e in restores] == [(25.0, 0)]


def test_batched_spf_runs_emit_batch_repairs():
    # An update that moves no cost buffers nothing, so the first repair
    # waits for D-SPF's first real cost change (after the 30-s mark on
    # this lightly loaded network).
    config = ScenarioConfig(duration_s=60.0, warmup_s=0.0, trace="memory")
    simulation = build_scenario("two-region-dspf", config=config)
    simulation.run()
    kinds = _kinds(simulation)
    assert SPF_BATCH_REPAIR in kinds


def test_events_are_time_ordered():
    config = ScenarioConfig(duration_s=20.0, warmup_s=0.0, trace="memory")
    simulation = build_scenario("two-region-dspf", config=config)
    simulation.run()
    times = [event["t"] for event in simulation.tracer.events()]
    assert times == sorted(times)
