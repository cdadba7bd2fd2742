"""Tests for the declarative fault schema (:mod:`repro.faults.plan`)."""

import json
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ACTIONS,
    BabblingNode,
    CorruptUpdate,
    FaultEvent,
    FaultPlan,
    LinkFlap,
    ReorderCircuit,
    StuckNode,
    load_fault_plan,
)

EXAMPLE_PLANS = sorted(
    (pathlib.Path(__file__).parents[2] / "examples" / "faultplans")
    .glob("*.json")
)


def test_event_requires_matching_target():
    FaultEvent(1.0, "fail-circuit", link_id=3)  # ok
    FaultEvent(1.0, "crash-node", node_id=2)  # ok
    FaultEvent(1.0, "partition", nodes=(0, 1))  # ok
    with pytest.raises(ValueError):
        FaultEvent(1.0, "fail-circuit")  # no link
    with pytest.raises(ValueError):
        FaultEvent(1.0, "crash-node")  # no node
    with pytest.raises(ValueError):
        FaultEvent(1.0, "partition")  # no group
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "fail-circuit", link_id=0)  # negative time
    with pytest.raises(ValueError):
        FaultEvent(1.0, "explode")  # unknown action


def test_flap_validation():
    LinkFlap(0, mtbf_s=30.0, mttr_s=5.0)  # ok
    with pytest.raises(ValueError):
        LinkFlap(0, mtbf_s=0.0, mttr_s=5.0)
    with pytest.raises(ValueError):
        LinkFlap(0, mtbf_s=30.0, mttr_s=-1.0)
    with pytest.raises(ValueError):
        LinkFlap(-1, mtbf_s=30.0, mttr_s=5.0)
    with pytest.raises(ValueError):
        LinkFlap(0, mtbf_s=30.0, mttr_s=5.0, start_s=50.0, until_s=50.0)


def test_plan_rejects_duplicate_flaps():
    with pytest.raises(ValueError):
        FaultPlan(flaps=(
            LinkFlap(4, mtbf_s=30.0, mttr_s=5.0),
            LinkFlap(4, mtbf_s=60.0, mttr_s=5.0),
        ))


def test_same_timestamp_fail_and_restore_orders_restore_after_fail():
    """Regression: a plan pairing fail+restore of one circuit at one
    timestamp used to fire in tuple order, so the outcome (circuit up
    or down) depended on how the plan happened to be written.  Events
    are now canonicalized at construction: down transitions sort before
    up transitions at the same instant, so the circuit ends *up*."""
    backwards = FaultPlan(events=(
        FaultEvent(30.0, "restore-circuit", link_id=5),
        FaultEvent(30.0, "fail-circuit", link_id=5),
    ))
    forwards = FaultPlan(events=(
        FaultEvent(30.0, "fail-circuit", link_id=5),
        FaultEvent(30.0, "restore-circuit", link_id=5),
    ))
    assert backwards.events == forwards.events
    assert [e.action for e in backwards.events] == \
        ["fail-circuit", "restore-circuit"]
    # All down-transitions rank together, and the sort is stable: ties
    # within one rank keep the plan's order.
    mixed = FaultPlan(events=(
        FaultEvent(10.0, "restart-node", node_id=1),
        FaultEvent(10.0, "partition", nodes=(0,)),
        FaultEvent(10.0, "crash-node", node_id=2),
        FaultEvent(5.0, "fail-circuit", link_id=1),
    ))
    assert [(e.at_s, e.action) for e in mixed.events] == [
        (5.0, "fail-circuit"),
        (10.0, "partition"),
        (10.0, "crash-node"),
        (10.0, "restart-node"),
    ]


def test_same_timestamp_outage_is_order_independent_in_simulation():
    import dataclasses

    from repro.metrics import HopNormalizedMetric
    from repro.sim import NetworkSimulation, ScenarioConfig
    from repro.topology import build_two_region_network
    from repro.traffic import TrafficMatrix

    bridge = 12

    def run(plan):
        built = build_two_region_network(nodes_per_region=3)
        traffic = TrafficMatrix.two_region(
            built.west_ids, built.east_ids, inter_region_bps=60_000.0
        )
        simulation = NetworkSimulation(
            built.network, HopNormalizedMetric(), traffic,
            ScenarioConfig(duration_s=45.0, warmup_s=10.0, seed=5,
                           faults=plan),
        )
        report = simulation.run()
        return simulation, report

    first_sim, first = run(FaultPlan(events=(
        FaultEvent(30.0, "restore-circuit", link_id=bridge),
        FaultEvent(30.0, "fail-circuit", link_id=bridge),
    )))
    second_sim, second = run(FaultPlan(events=(
        FaultEvent(30.0, "fail-circuit", link_id=bridge),
        FaultEvent(30.0, "restore-circuit", link_id=bridge),
    )))
    # Deterministic outcome: the circuit ends up, in either spelling.
    assert first_sim.network.link(bridge).up
    assert second_sim.network.link(bridge).up
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_single_outage_shape():
    plan = FaultPlan.single_outage(7, 30.0, 60.0)
    assert [e.action for e in plan.events] == \
        ["fail-circuit", "restore-circuit"]
    assert all(e.link_id == 7 for e in plan.events)
    assert bool(plan)
    assert not FaultPlan()
    with pytest.raises(ValueError):
        FaultPlan.single_outage(7, 60.0, 30.0)


def test_json_round_trip(tmp_path):
    plan = FaultPlan(
        events=(
            FaultEvent(30.0, "fail-circuit", link_id=2),
            FaultEvent(45.0, "crash-node", node_id=1),
            FaultEvent(50.0, "partition", nodes=(0, 1, 2)),
        ),
        flaps=(LinkFlap(4, mtbf_s=30.0, mttr_s=5.0, until_s=100.0),),
    )
    path = str(tmp_path / "plan.json")
    plan.to_json(path)
    assert load_fault_plan(path) == plan


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fault plan keys"):
        FaultPlan.from_dict({"events": [], "typo": []})


def test_event_rejects_a_misspelt_key():
    with pytest.raises(ValueError, match="unknown FaultEvent keys.*'lnk_id'"):
        FaultPlan.from_dict({"events": [
            {"at_s": 5.0, "action": "fail-circuit", "link_id": 0,
             "lnk_id": 1},
        ]})


def test_flap_rejects_a_misspelt_key():
    # Once ignored: the flap silently started at 0.
    with pytest.raises(ValueError, match="unknown LinkFlap keys.*'strat_s'"):
        FaultPlan.from_dict({"flaps": [
            {"link_id": 2, "mtbf_s": 30.0, "mttr_s": 5.0, "strat_s": 20.0},
        ]})


def test_entry_values_are_coerced_to_field_types():
    plan = FaultPlan.from_dict({
        "events": [{"at_s": 5, "action": "partition", "nodes": [1, 2]}],
        "flaps": [{"link_id": 2, "mtbf_s": 30, "mttr_s": 5,
                   "until_s": 90}],
    })
    (event,), (flap,) = plan.events, plan.flaps
    assert type(event.at_s) is float and event.nodes == (1, 2)
    assert type(flap.mtbf_s) is float and type(flap.until_s) is float


@pytest.mark.parametrize("path", EXAMPLE_PLANS, ids=lambda p: p.name)
def test_example_plans_reserialise_unchanged(path):
    """Each example loads and writes back its own entries, key for key,
    with the empty sections every written plan carries."""
    raw = json.loads(path.read_text())
    plan = load_fault_plan(str(path))
    assert json.dumps(plan.to_dict()) == \
        json.dumps({"events": [], "flaps": [], **raw})


_ids = st.integers(min_value=0, max_value=500)
_times = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
_spans = st.floats(min_value=0.5, max_value=1e3, allow_nan=False)


@st.composite
def _events(draw):
    action = draw(st.sampled_from(ACTIONS))
    return FaultEvent(
        draw(_times), action,
        link_id=draw(_ids if "circuit" in action else st.none() | _ids),
        node_id=draw(_ids if "node" in action else st.none() | _ids),
        nodes=tuple(draw(st.lists(
            _ids, min_size=1 if "partition" in action else 0, max_size=4
        ))),
    )


def _window(draw):
    start = draw(st.just(0.0) | _times)
    until = draw(st.none() | _spans.map(lambda span: start + span))
    return {"start_s": start, "until_s": until}


@st.composite
def _flap(draw, link_id):
    return LinkFlap(link_id, draw(_spans), draw(_spans), **_window(draw))


@st.composite
def _adversary(draw, kind, target):
    window = _window(draw) if draw(st.booleans()) else {}
    if kind is ReorderCircuit:
        rest = draw(st.just({}) | st.fixed_dictionaries({
            "probability": st.floats(min_value=0.01, max_value=1.0),
            "depth": st.integers(min_value=1, max_value=8),
        }))
    elif kind is StuckNode:
        rest = {}
    else:
        rest = draw(st.just({}) | st.fixed_dictionaries(
            {"rate_per_s": _spans}
        ))
    return kind(target, **window, **rest)


@st.composite
def _plans(draw):
    flapped = draw(st.lists(_ids, unique=True, max_size=3))
    adversarial = [
        draw(_adversary(kind, target))
        for kind in (CorruptUpdate, BabblingNode, StuckNode, ReorderCircuit)
        for target in draw(st.lists(_ids, unique=True, max_size=2))
    ]
    return FaultPlan(
        events=tuple(draw(st.lists(_events(), max_size=6))),
        flaps=tuple(draw(_flap(link_id)) for link_id in flapped),
        adversarial=tuple(adversarial),
    )


@settings(max_examples=200, deadline=None)
@given(_plans())
def test_every_plan_round_trips_through_json(plan):
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan


def test_plan_pickles_inside_configs():
    """Plans ride RunSpec configs into pool workers, so must pickle."""
    from repro.sim import ScenarioConfig

    plan = FaultPlan.single_outage(3, 10.0, 20.0)
    config = ScenarioConfig(faults=plan, check_invariants=True)
    clone = pickle.loads(pickle.dumps(config))
    assert clone.faults == plan
    assert clone.check_invariants is True


def test_config_validates_faults_and_invariants():
    from repro.sim import ScenarioConfig

    with pytest.raises(ValueError):
        ScenarioConfig(check_invariants="loudly")
    with pytest.raises(TypeError):
        from repro.metrics import HopNormalizedMetric
        from repro.sim import NetworkSimulation
        from repro.topology import build_ring_network
        from repro.traffic import TrafficMatrix

        network = build_ring_network(4)
        NetworkSimulation(
            network, HopNormalizedMetric(),
            TrafficMatrix.uniform(network, total_bps=1000.0),
            ScenarioConfig(faults={"events": []}),  # dict, not a FaultPlan
        )
