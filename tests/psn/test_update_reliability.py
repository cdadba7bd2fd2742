"""Tests for reliable update delivery (ACK + retransmission).

Rosen's updating protocol retransmits updates per link until
acknowledged; lost updates are repaired within a retransmission interval
rather than waiting for the 50-second keepalive.
"""

from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan, LinkFlap
from repro.metrics import HopNormalizedMetric
from repro.psn.node import UPDATE_RETRANSMIT_S
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import (
    build_random_network,
    build_ring_network,
    build_string_network,
)
from repro.traffic import TrafficMatrix


def build_sim(net, error_rate=0.0, seed=0):
    return NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix({(0, 1): 1_000.0}),
        ScenarioConfig(duration_s=300.0, warmup_s=30.0, seed=seed,
                       line_error_rate=error_rate),
    )


def test_acks_clear_pending_retransmissions():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=5.0)
    # Boot advertisements have all been ACKed: nothing pending anywhere.
    for node_id, psn in sim.psns.items():
        assert psn.flooding.unacked == {}, node_id


def test_lost_update_repaired_within_retransmit_interval():
    """Heavy line errors: every node always holds one of the owner's
    two most recent advertisements -- losses are repaired within a few
    retransmission rounds, never waiting for the 50 s keepalive."""
    net = build_string_network(4)
    sim = build_sim(net, error_rate=0.4, seed=13)
    own_link = net.out_links(0)[0].link_id
    for checkpoint in (40.0, 80.0, 120.0, 160.0):
        # Land between measurement intervals, several retransmission
        # rounds after the last advertisement could have been produced.
        sim.run(until_s=checkpoint + 8 * UPDATE_RETRANSMIT_S)
        series = [
            cost for _t, cost in sim.stats.cost_series(own_link)
        ]
        recent = set(series[-2:])
        for node_id, psn in sim.psns.items():
            assert psn.costs[own_link] in recent, (checkpoint, node_id)


def test_tables_stay_consistent_under_sustained_loss():
    net = build_ring_network(5)
    sim = build_sim(net, error_rate=0.25, seed=3)
    sim.run()
    reference = sim.psns[0].costs.costs
    for node_id, psn in sim.psns.items():
        assert psn.costs.costs == reference, node_id


def test_newer_update_supersedes_pending():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=5.0)
    psn = sim.psns[0]
    own_link = net.out_links(0)[0].link_id
    psn.advertise({own_link: 40})
    psn.advertise({own_link: 50})  # before any ACK can return
    # Only the newest is pending per (link, origin).
    pending = [
        dict(update.costs)[own_link]
        for update, _t in psn.flooding.unacked.values()
    ]
    assert 40 not in pending
    assert pending.count(50) >= 1
    sim.run(until_s=10.0)
    assert psn.flooding.unacked == {}
    for other in sim.psns.values():
        assert other.costs[own_link] == 50.0


def test_link_down_purges_pending():
    net = build_ring_network(4)
    sim = build_sim(net)
    sim.run(until_s=5.0)
    dead = net.out_links(0)[0].link_id
    psn = sim.psns[0]
    psn.advertise({dead: 60})
    assert psn.flooding.ledger_key(dead, 0) in psn.flooding.unacked
    net.set_circuit_state(dead, up=False)
    psn.local_link_down(dead)
    assert not any(
        psn.flooding.ledger_key(dead, origin) in psn.flooding.unacked
        for origin in net.nodes
    )


def test_no_retransmit_livelock_under_link_flaps():
    """A flapping circuit flushes queued copies and acks mid-flight;
    retransmission must stay a repair, never a steady state, and no
    ledger entry on a live link may stall."""
    net = build_ring_network(6)
    flapped = net.out_links(2)[0].link_id
    plan = FaultPlan(flaps=(
        LinkFlap(link_id=flapped, mtbf_s=8.0, mttr_s=2.0, start_s=15.0),
    ))
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix({(0, 3): 2_000.0}),
        ScenarioConfig(duration_s=120.0, warmup_s=10.0, seed=3,
                       faults=plan, check_invariants="strict"),
    )
    report = sim.run()
    assert report.invariant_violations == []
    telemetry = report.telemetry
    assert telemetry.flap_transitions > 0, "the fault must actually fire"
    # A livelocked pair retransmits every second for the whole run.
    assert telemetry.updates_retransmitted < \
        0.05 * telemetry.update_packets_sent
    now = sim.sim.now
    for node_id, psn in sim.psns.items():
        ledger = psn.flooding.unacked
        for link in net.out_links(node_id):
            for origin in net.nodes:
                entry = ledger.get(psn.flooding.ledger_key(link.link_id, origin))
                if entry is not None:
                    assert now - entry[1] < 5 * UPDATE_RETRANSMIT_S, \
                        (node_id, link.link_id, origin)


@settings(max_examples=20, deadline=None)
@given(
    nodes=st.integers(min_value=3, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
    topology_seed=st.integers(min_value=0, max_value=2**16),
    error_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lossy_flood_converges_and_drains(
    nodes, extra, topology_seed, error_rate, seed
):
    """Once originations stop, every node holds every originator's
    latest sequence and every ledger is empty, whatever the loss -- and
    no node's record of any origin's sequence ever went backwards."""
    net = build_random_network(nodes, extra, seed=topology_seed)
    sim = NetworkSimulation(
        net, HopNormalizedMetric(), TrafficMatrix.uniform(net, 20_000.0),
        ScenarioConfig(duration_s=120.0, warmup_s=10.0, seed=seed,
                       line_error_rate=error_rate),
    )
    highest = {}

    def sequences_only_advance():
        for psn in sim.psns.values():
            for origin in sim.psns:
                sequence = psn.flooding.highest_seen(origin)
                key = (psn.node_id, origin)
                assert sequence >= highest.get(key, 0), key
                highest[key] = sequence

    sim.sim.timers.every(0.1, sequences_only_advance)
    sim.run(until_s=30.0)
    # Drain: no new originations, only retransmissions and acks.
    for psn in sim.psns.values():
        psn._measurement.cancel()
    sim.run(until_s=90.0)
    sequences_only_advance()
    for origin in sim.psns.values():
        sequence = origin.flooding._own_sequence
        for psn in sim.psns.values():
            assert psn.flooding.highest_seen(origin.node_id) == sequence, \
                (psn.node_id, origin.node_id)
    for psn in sim.psns.values():
        assert psn.flooding.unacked == {}, psn.node_id
