"""Table 1's per-trunk update rate is the update rate times the flood's
fan-out.

Each PSN report is one update, flooded with acks: the origin sends it on
every one of its ``deg`` simplex links, and every other PSN forwards its
first copy on all of its links but the one it arrived on.  One update is
therefore ``sum(deg) - (N - 1) = L - N + 1`` transmissions over the ``L``
simplex links, and with ``N / update_period_per_node_s`` updates a second
network-wide::

    updates_per_trunk_s = (N / update_period_per_node_s) * (L - N + 1) / L

as long as nothing is retransmitted: a retransmission is a transmission
no origination accounts for.  Window edges (a flood straddling the
warm-up or the end) are the only other slack, hence the 2 % tolerance.
"""

import functools

import pytest

from repro.sim import ScenarioConfig, build_scenario

DURATION_S = 180.0
WARMUP_S = 60.0


@functools.lru_cache(maxsize=None)
def _run(name):
    """``(N, L, report, retransmissions after the warm-up)`` of one run."""
    simulation = build_scenario(name, ScenarioConfig(
        duration_s=DURATION_S, warmup_s=WARMUP_S, seed=3
    ))
    psns = simulation.psns.values()
    at_warmup = []
    simulation.sim.call_in(WARMUP_S, lambda: at_warmup.append(
        sum(psn.flooding.stats.retransmitted for psn in psns)
    ))
    report = simulation.run()
    retransmitted = sum(psn.flooding.stats.retransmitted for psn in psns)
    return (
        len(simulation.network), len(simulation.network.links), report,
        retransmitted - at_warmup[0],
    )


@pytest.mark.slow
@pytest.mark.parametrize("name", ["aug87", "may87"])
def test_per_trunk_rate_is_update_rate_times_flood_fan_out(name):
    nodes, links, report, _ = _run(name)
    predicted = (
        (nodes / report.update_period_per_node_s)
        * (links - nodes + 1) / links
    )
    assert report.updates_per_trunk_s == pytest.approx(predicted, rel=0.02)


@pytest.mark.slow
@pytest.mark.parametrize("name", [
    "aug87",
    pytest.param("may87", marks=pytest.mark.xfail(
        strict=True,
        reason="one spurious retransmission at t = 109 s on link 152, "
               "a 9.6-kb/s satellite circuit (0.26 s each way): its ack "
               "came back 1.14 s after the update, past the 1-s "
               "UPDATE_RETRANSMIT_S",
    )),
])
def test_nothing_is_retransmitted_after_warmup(name):
    *_, retransmitted = _run(name)
    assert retransmitted == 0
