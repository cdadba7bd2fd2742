"""Flood / duplicate-ack suppression on a 256-node boot flood.

The large-network control-plane paths change *traffic*, never
*routing*: on ``rand256`` (incremental flooding's auto-on regime, a
window dominated by the boot flood) the classic protocol, flood windows
alone, and flood windows plus duplicate-ack suppression deliver the same
packets and end with the same next-hop tables, while the suppressed
runs put measurably fewer control packets on the wire.  The ratios are
deterministic counters of a seeded run, not timings.
"""

import pytest

from repro.sim import ScenarioConfig, build_scenario

#: Incremental flooding must cut duplicate update deliveries by at least
#: this fraction (recorded 0.336).  (Suppression needs one copy per
#: circuit as its proof, so *transmissions* can structurally fall at
#: most ~E/(N-1+2E); duplicate deliveries are the redundancy the windows
#: exist to remove.)
FLOOD_MIN_DUPLICATE_REDUCTION = 0.30

#: Duplicate-ack suppression must remove at least this fraction of
#: explicit ack packets relative to the flood-only configuration
#: (recorded 0.186: ~23% of update deliveries are duplicates, most
#: duplicate acks are skipped, and nearly all owed-ack repayments
#: piggyback on queued control packets instead of costing a packet of
#: their own).
DUP_ACK_MIN_ACK_REDUCTION = 0.15

#: And the complete path (flood windows + duplicate-ack suppression)
#: must cut total control packets on the wire by at least this fraction
#: against the classic run (recorded 0.194: flood suppression removes
#: redundant update copies, dup-ack suppression removes their acks).
FULL_PATH_MIN_CONTROL_REDUCTION = 0.15


def _run(**protocol):
    simulation = build_scenario(
        "rand256",
        config=ScenarioConfig(duration_s=6.0, warmup_s=2.0, seed=3,
                              **protocol),
    )
    report = simulation.run()
    destinations = sorted(simulation.network.nodes)
    tables = {}
    for node_id, psn in simulation.psns.items():
        psn.flush_pending_updates()
        tables[node_id] = [
            psn.tree.next_hop_link(dst) for dst in destinations
        ]
    return report, tables


@pytest.mark.slow
def test_suppression_changes_traffic_never_routing():
    classic, classic_tables = _run(incremental_flooding=False)
    flooded, flooded_tables = _run(
        incremental_flooding=True, dup_ack_suppression=False
    )
    full, full_tables = _run(
        incremental_flooding=True, dup_ack_suppression=True
    )

    # Incremental flooding only removes provably redundant update
    # copies, and duplicate-ack suppression only explicit acks whose
    # information provably reaches (or already reached) the sender
    # another way: the data plane and the final routing tables must not
    # move at all.
    for report, tables in ((flooded, flooded_tables), (full, full_tables)):
        assert report.delivered_packets == classic.delivered_packets
        assert report.offered_packets == classic.offered_packets
        assert tables == classic_tables

    t_classic, t_flooded, t_full = (
        classic.telemetry, flooded.telemetry, full.telemetry
    )
    assert t_flooded.update_packets_sent < t_classic.update_packets_sent
    assert t_full.update_packets_sent < t_classic.update_packets_sent
    # The reliability machinery never degrades into retransmission:
    # every skipped ack either becomes an implicit ack or is repaid
    # within one retransmit period (no ack-starvation livelock).
    assert t_full.updates_retransmitted == 0

    duplicate_reduction = (
        1.0 - t_flooded.flood_duplicates / t_classic.flood_duplicates
    )
    ack_reduction = 1.0 - t_full.ack_packets_sent / t_flooded.ack_packets_sent
    control_reduction = (
        1.0 - t_full.control_packets_sent / t_classic.control_packets_sent
    )
    assert duplicate_reduction >= FLOOD_MIN_DUPLICATE_REDUCTION
    assert ack_reduction >= DUP_ACK_MIN_ACK_REDUCTION
    assert control_reduction >= FULL_PATH_MIN_CONTROL_REDUCTION
