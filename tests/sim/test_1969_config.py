"""The 1969 generation (``arpanet-1969``) under every ScenarioConfig
field: each one takes effect, or the build refuses it by name."""

import dataclasses

import pytest

from repro.faults import FaultEvent, FaultPlan, InvariantViolationError
from repro.faults.adversarial import (
    BabblingNode,
    CorruptUpdate,
    ReorderCircuit,
    StuckNode,
)
from repro.faults.plan import LinkFlap
from repro.routing.spf import CostTable, SpfTree
from repro.routing.spf_cache import ForwardingTable, SpfCache
from repro.sim import ScenarioConfig, build_scenario
from repro.topology import build_arpanet_1987

#: The fields that shape any run; every other field is checked below.
_RUN_SHAPE = {"duration_s", "warmup_s", "seed"}


def _arpanet_1969(**fields):
    return build_scenario("arpanet-1969", ScenarioConfig(
        duration_s=20.0, warmup_s=5.0, seed=1, **fields
    ))


def _flap_plan():
    return FaultPlan(
        events=(FaultEvent(8.0, "fail-circuit", link_id=0),
                FaultEvent(12.0, "restore-circuit", link_id=0)),
        flaps=(LinkFlap(link_id=24, mtbf_s=5.0, mttr_s=2.0, start_s=6.0),),
    )


#: field -> (value, what the run must show for it).
_HONOURED = {
    "line_error_rate": (
        0.05, lambda sim, report: report.telemetry.line_error_losses > 0,
    ),
    "flow_control_window": (
        1, lambda sim, report: sum(
            psn.host.rfnms_received for psn in sim.psns.values()
        ) > 0,
    ),
    "trace": (
        "memory", lambda sim, report: sim.tracer.events_emitted > 0,
    ),
    "metrics": (
        "memory", lambda sim, report: sim.meters.samples_taken > 0,
    ),
    "faults": (
        _flap_plan(), lambda sim, report: (
            report.resilience["fault_count"] >= 3
            and report.telemetry.flap_transitions >= 1
        ),
    ),
    # The 1969 protocol advertises no link costs: every check is a loop
    # check.
    "check_invariants": (
        "record", lambda sim, report: (
            sim.invariant_monitor.loop_checks_run
            == sim.invariant_monitor.checks_run > 0
        ),
    ),
}

#: field -> a value the 1969 protocol cannot honour.
_REFUSED = {
    "multipath": "packet",
    "defenses": True,
}


def test_every_config_field_is_classified():
    fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
    assert fields == _RUN_SHAPE | set(_HONOURED) | set(_REFUSED)


@pytest.mark.parametrize("field", sorted(_HONOURED))
def test_config_field_takes_effect(field):
    value, took_effect = _HONOURED[field]
    sim = _arpanet_1969(**{field: value})
    report = sim.run()
    assert report.metric_name == "BF-1969"
    assert report.delivered_packets > 0
    assert took_effect(sim, report)


@pytest.mark.parametrize("field,value", [
    *sorted(_REFUSED.items()),
    *(
        pytest.param(
            "faults", FaultPlan(adversarial=(fault,)), id=f"faults-{fault.kind}"
        )
        for fault in (CorruptUpdate(node_id=3), BabblingNode(node_id=3),
                      StuckNode(node_id=3), ReorderCircuit(link_id=0))
    ),
])
def test_config_field_is_refused_at_build(field, value):
    with pytest.raises(ValueError, match=f"^{field}: BF-1969"):
        _arpanet_1969(**{field: value})


def test_no_spf_state_is_built():
    sim = _arpanet_1969()
    assert sim.spf_cache is None
    spf_state = (CostTable, SpfTree, SpfCache, ForwardingTable)
    for psn in sim.psns.values():
        assert not [
            name for name, value in vars(psn).items()
            if isinstance(value, spf_state)
        ], psn.node_id
    sim.run()
    for psn in sim.psns.values():
        assert psn._forwarding is None and psn._pending_old == {}


def test_persistent_loops_are_counted_and_change_nothing():
    """Section 2.1's persistent loops, as ``routing-loop`` violations of
    a monitor that only reads: the report is the unmonitored one but
    for the monitor's own counters and its timer's six ticks."""
    shape = dict(duration_s=60.0, seed=1)
    plain = build_scenario("arpanet-1969", ScenarioConfig(**shape)).run()
    checked = build_scenario("arpanet-1969", ScenarioConfig(
        **shape, check_invariants="record",
    )).run()
    loops = [v for v in checked.invariant_violations
             if v.invariant == "routing-loop"]
    assert loops and len(loops) == len(checked.invariant_violations)
    assert checked.telemetry.invariant_violations == len(loops)
    assert checked.telemetry.invariant_checks > 0
    assert dataclasses.asdict(checked) == dataclasses.asdict(plain)
    unmonitored, monitored = plain.telemetry.to_dict(), checked.telemetry.to_dict()
    assert monitored.pop("events_processed") == (
        unmonitored.pop("events_processed") + 6
    )
    assert monitored.pop("events_pending") == unmonitored.pop("events_pending") + 1
    for name in ("invariant_checks", "invariant_violations", "wall_s"):
        monitored[name] = unmonitored[name]
    assert monitored == unmonitored
    with pytest.raises(InvariantViolationError, match="routing-loop"):
        build_scenario("arpanet-1969", ScenarioConfig(
            **shape, check_invariants="strict",
        )).run()


def _utah_gwc(network):
    return network.links_between(
        network.node_by_name("UTAH").node_id,
        network.node_by_name("GWC").node_id,
    )[0]


def test_fault_plan_failure_matches_fail_circuit_at():
    shape = dict(duration_s=30.0, warmup_s=5.0, seed=3)
    scripted = build_scenario("arpanet-1969", ScenarioConfig(**shape))
    link_id = _utah_gwc(scripted.network).link_id
    scripted.fail_circuit_at(link_id, 15.0)
    expected = scripted.run()
    planned = build_scenario("arpanet-1969", ScenarioConfig(
        **shape,
        faults=FaultPlan(events=(
            FaultEvent(15.0, "fail-circuit", link_id=link_id),
        )),
    ))
    report = planned.run()
    assert dataclasses.asdict(report) == dataclasses.asdict(expected)
    assert expected.resilience is None
    assert report.resilience["fault_count"] == 1
    assert report.resilience["faults"][0]["link"] == link_id


def test_fault_plan_restore_brings_the_circuit_back():
    network = build_arpanet_1987()
    link = _utah_gwc(network)
    sim = build_scenario("arpanet-1969", ScenarioConfig(
        duration_s=40.0, warmup_s=5.0, seed=3,
        faults=FaultPlan(events=(
            FaultEvent(10.0, "fail-circuit", link_id=link.link_id),
            FaultEvent(20.0, "restore-circuit", link_id=link.link_id),
        )),
    ))

    def carried():
        return sum(
            sim.transmitters[link_id].data_packets_sent
            for link_id in (link.link_id, link.reverse_id)
        )

    sim.run(until_s=10.5)
    assert not sim.network.link(link.link_id).up
    down = carried()
    sim.run(until_s=19.9)
    assert carried() == down
    report = sim.run()
    assert sim.network.link(link.link_id).up
    assert carried() > down
    assert [fault["kind"] for fault in report.resilience["faults"]] == [
        "fail", "restore",
    ]
