"""Classic flooding on a 256-node boot flood: every copy acked, nothing owed.

On ``rand256`` over its first simulated second (the boot flood, before
any measurement interval closes) Rosen's protocol must leave every node
holding every originator's advertised cost, put exactly one explicit ack
on the wire per update copy received, and end with every retransmission
ledger empty.  Each PSN sends its boot costs in one update, so the boot
originates exactly one update per node.  All four are deterministic
counters of a seeded run.
"""

import pytest

from repro.sim import ScenarioConfig, build_scenario


@pytest.mark.slow
def test_boot_flood_is_acked_copy_for_copy_and_drains():
    simulation = build_scenario(
        "rand256",
        config=ScenarioConfig(duration_s=1.0, warmup_s=0.0, seed=3),
    )
    report = simulation.run()
    psns = simulation.psns

    for origin in psns.values():
        for link_id, cost in origin.flooding.advertised.items():
            for psn in psns.values():
                assert psn.costs[link_id] == float(cost), \
                    (psn.node_id, link_id)

    flood = [psn.flooding.stats for psn in psns.values()]
    received = sum(s.accepted + s.duplicates for s in flood)
    telemetry = report.telemetry
    assert telemetry.flood_generated == len(psns) == 256
    assert all(link.up for link in simulation.network.links)
    assert telemetry.line_error_losses == 0
    assert telemetry.ack_packets_sent == received
    assert received == telemetry.update_packets_sent
    assert telemetry.updates_retransmitted == 0
    for psn in psns.values():
        assert psn.flooding.unacked == {}, psn.node_id
