"""Unit tests for the defense layer (:mod:`repro.routing.defense`).

Pure protocol logic: every method takes ``now`` explicitly, so the
screens, the quarantine state machine and the purge pass are exercised
here without a simulator, exactly like the flooding tests.
"""

from repro.metrics import DelayMetric, HopNormalizedMetric, MinHopMetric
from repro.psn.node import DOWN_COST
from repro.routing import (
    REJECT_REASONS,
    DefensePolicy,
    FloodingState,
    NodeDefense,
    RoutingUpdate,
)
from repro.routing.defense import (
    PURGE_AGE_S,
    QUARANTINE_S,
    QUARANTINE_SCORE,
    RATE_BURST,
    RATE_LIMIT_PER_S,
    SEQ_WINDOW,
)
from repro.topology import build_ring_network

#: In the 4-ring, node 1 owns link 2 (1 -> 2) and node 0 owns link 0.
NET = build_ring_network(4)
METRIC = HopNormalizedMetric()


def _defense(node_id=0):
    policy = DefensePolicy(NET, METRIC)
    flooding = FloodingState(NET, node_id)
    return NodeDefense(policy, node_id, flooding)


def _own_link(node_id):
    return NET.out_links(node_id)[0].link_id


def _legal_cost(link_id):
    return METRIC.min_cost_for(NET.link(link_id))


def _update(origin, link_id, cost, sequence):
    """A one-entry update from ``origin`` (which owns ``link_id``)."""
    return RoutingUpdate(origin, sequence, ((link_id, cost),))


def test_policy_snapshots_cost_bounds_per_link():
    policy = DefensePolicy(NET, METRIC)
    assert set(policy.bounds) == {link.link_id for link in NET.links}
    for link in NET.links:
        lo, hi = policy.bounds[link.link_id]
        assert lo == METRIC.min_cost_for(link)
        assert hi == METRIC.params_for(link).max_cost
        assert lo <= hi


def test_policy_takes_each_metrics_own_band():
    """D-SPF's band starts at the idle cost; min-hop's is the hop cost."""
    dspf = DefensePolicy(NET, DelayMetric())
    for link in NET.links:
        assert dspf.bounds[link.link_id] == (
            DelayMetric().initial_cost(link), 255
        )
    minhop = DefensePolicy(NET, MinHopMetric())
    assert set(minhop.bounds.values()) == {(30, 30)}
    defense = NodeDefense(minhop, 0, FloodingState(NET, 0))
    link = _own_link(1)
    assert defense.screen(_update(1, link, 30, 1), 1, 0.0) is None
    assert defense.screen(_update(1, link, 31, 2), 1, 0.0) == \
        "cost-range"


def test_in_band_update_passes_every_screen():
    defense = _defense()
    link = _own_link(1)
    update = _update(1, link, _legal_cost(link), 1)
    assert defense.screen(update, 1, 0.0) is None
    assert defense.stats.rejected == 0


def test_out_of_range_cost_rejected_but_down_cost_is_legal():
    defense = _defense()
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    bad = _update(1, link, hi + 1, 1)
    assert defense.screen(bad, 1, 0.0) == "cost-range"
    assert defense.stats.rejected_cost == 1
    # DOWN_COST ("line dead") always passes: every node may report it.
    dead = _update(1, link, DOWN_COST, 2)
    assert defense.screen(dead, 1, 0.0) is None


def test_sequence_jump_beyond_window_rejected():
    defense = _defense()
    link = _own_link(1)
    cost = _legal_cost(link)
    first = _update(1, link, cost, 1)
    assert defense.screen(first, 1, 0.0) is None
    assert defense.flooding.accept(first)
    plausible = _update(1, link, cost, 1 + SEQ_WINDOW)
    assert defense.screen(plausible, 1, 1.0) is None
    forged = _update(1, link, cost, 1 + SEQ_WINDOW + 1)
    assert defense.screen(forged, 1, 1.0) == "seq-implausible"
    assert defense.stats.rejected_seq == 1


def test_absent_key_accepts_any_sequence():
    # The re-learn door: a purged (or never-seen) origin must accept any
    # sequence, else purge-and-reflood could never heal a poisoning.
    defense = _defense()
    link = _own_link(1)
    huge = _update(1, link, _legal_cost(link), 1 << 20)
    assert defense.screen(huge, 1, 0.0) is None


def test_rejections_accumulate_into_quarantine_and_rehabilitation():
    defense = _defense()
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    sentences = []
    defense.on_quarantine = lambda node, until: sentences.append(until)
    for seq in range(1, QUARANTINE_SCORE + 1):  # the strikes, one burst
        bad = _update(1, link, hi + 1, seq)
        assert defense.screen(bad, 1, 3.0) == "cost-range"
    assert defense.stats.quarantines == 1
    assert sentences == [3.0 + QUARANTINE_S]
    # Everything from the quarantined neighbour bounces, even honest.
    honest = _update(1, link, _legal_cost(link), 4)
    assert defense.screen(honest, 1, 4.0) == "quarantined"
    # ... but only until the sentence is served.
    after = 3.0 + QUARANTINE_S
    assert defense.screen(honest, 1, after) is None
    assert defense.stats.rehabilitations == 1


def test_a_relapse_earns_the_same_sentence():
    """Strikes restart from zero after a quarantine, and nothing
    doubles: every sentence is QUARANTINE_S."""
    defense = _defense()
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    sentences = []
    defense.on_quarantine = lambda node, until: sentences.append(until)
    seq = 0
    for start in (0.0, 100.0, 200.0):
        for _ in range(QUARANTINE_SCORE):
            seq += 1
            defense.screen(_update(1, link, hi + 1, seq), 1, start)
    assert sentences == [start + QUARANTINE_S for start in (0.0, 100.0, 200.0)]


def test_strikes_do_not_decay():
    """Rejections far apart still add up: the count is a strike count,
    not a decaying score."""
    defense = _defense()
    link = _own_link(1)
    _, hi = defense.policy.bounds[link]
    for strike in range(QUARANTINE_SCORE):
        defense.screen(_update(1, link, hi + 1, strike + 1), 1,
                       1000.0 * strike)
    assert defense.stats.quarantines == 1


def test_token_bucket_charges_originations_only():
    defense = _defense()
    link = _own_link(1)
    far_link = _own_link(2)
    cost = _legal_cost(link)
    # The burst's originations pass; the next one bounces.
    burst = int(RATE_BURST)
    for seq in range(1, burst + 1):
        assert defense.screen(_update(1, link, cost, seq), 1, 0.0) \
            is None
    extra = _update(1, link, cost, burst + 1)
    assert defense.screen(extra, 1, 0.0) == "rate-limit"
    assert defense.stats.rejected_rate == 1
    # A *forwarded* third-party update is free: fan-in is the
    # protocol's doing, not the neighbour's.
    forwarded = _update(2, far_link, _legal_cost(far_link), 1)
    assert defense.screen(forwarded, 1, 0.0) is None
    # Tokens refill with time: one token per 1 / RATE_LIMIT_PER_S.
    assert defense.screen(extra, 1, 1.0 / RATE_LIMIT_PER_S) is None
    assert defense.screen(extra, 1, 1.0 / RATE_LIMIT_PER_S) == \
        "rate-limit"


def test_purge_evicts_stale_foreign_keys_only():
    defense = _defense(node_id=0)
    flooding = defense.flooding
    link = _own_link(1)
    stale = _update(1, link, _legal_cost(link), 1)
    assert defense.screen(stale, 1, 10.0) is None
    assert flooding.accept(stale)
    # The own origin, heard back from a neighbour, never purges.
    own = flooding.originate([(_own_link(0), _legal_cost(_own_link(0)))])
    defense.screen(own, 1, 10.0)
    fresh_link = _own_link(2)
    fresh = _update(2, fresh_link, _legal_cost(fresh_link), 1)
    assert defense.screen(fresh, 1, 150.0) is None
    assert flooding.accept(fresh)
    purged = defense.purge(10.0 + PURGE_AGE_S)
    assert purged == 1  # only the stale foreign entry
    assert flooding.highest_seen(1) == 0  # nothing on record
    assert flooding.highest_seen(0) == 1
    assert flooding.highest_seen(2) == 1  # heard in time
    assert defense.stats.purge_passes == 1
    assert defense.stats.purged_entries == 1
    # The purged origin now accepts any sequence: the re-learn door.
    relearn = _update(1, link, _legal_cost(link), 1 << 20)
    assert defense.screen(relearn, 1, 201.0) is None


def test_purged_origin_is_admitted_at_any_sequence():
    """A purge writes the origin back to "nothing on record": its next
    update passes the sequence screen whatever its sequence, and the
    screen is armed again from there."""
    defense = _defense(node_id=0)
    flooding = defense.flooding
    link = _own_link(1)
    cost = _legal_cost(link)
    first = _update(1, link, cost, 5)
    assert defense.screen(first, 1, 0.0) is None
    assert flooding.accept(first)
    assert defense.purge(PURGE_AGE_S) == 1
    assert flooding.highest_seen(1) == 0
    for sequence in (1, 5, 1 << 20):
        relearn = _update(1, link, cost, sequence)
        assert defense.screen(relearn, 2, PURGE_AGE_S + 1.0) is None
    assert flooding.accept(relearn)
    assert flooding.highest_seen(1) == 1 << 20
    jump = _update(1, link, cost, (1 << 20) + SEQ_WINDOW + 1)
    assert defense.screen(jump, 2, PURGE_AGE_S + 2.0) == "seq-implausible"


def test_rejected_updates_keep_their_origin_on_record():
    """An entry ages from the last update *heard* for its origin: a
    forger whose updates are all rejected keeps its entry, so the
    sequence screen stays armed instead of reopening the absent-origin
    door."""
    defense = _defense(node_id=0)
    flooding = defense.flooding
    link = _own_link(1)
    cost = _legal_cost(link)
    first = _update(1, link, cost, 1)
    assert defense.screen(first, 1, 0.0) is None
    assert flooding.accept(first)
    forged = _update(1, link, cost, 1 + SEQ_WINDOW + 1)
    now = 0.0
    while now < 2 * PURGE_AGE_S:
        now += 10.0
        assert defense.screen(forged, 3, now) in (
            "seq-implausible", "quarantined"
        )
        defense.purge(now)
    assert defense.stats.purged_entries == 0
    assert flooding.highest_seen(1) == 1


def test_every_entry_of_an_update_is_screened():
    """One out-of-band entry rejects the whole update; a down entry
    beside legal ones is fine."""
    defense = _defense()
    first, second = (link.link_id for link in NET.out_links(1))
    _, hi = defense.policy.bounds[second]
    mixed = RoutingUpdate(1, 1, (
        (first, _legal_cost(first)), (second, hi + 1),
    ))
    assert defense.screen(mixed, 1, 0.0) == "cost-range"
    half_down = RoutingUpdate(1, 2, (
        (first, _legal_cost(first)), (second, DOWN_COST),
    ))
    assert defense.screen(half_down, 1, 0.0) is None


def test_sequence_window_is_per_origin():
    """Each origin numbers its updates in its own space: a high sequence
    on record for one origin says nothing about another's."""
    defense = _defense()
    link1, link2 = _own_link(1), _own_link(2)
    assert defense.flooding.accept(_update(1, link1, _legal_cost(link1), 500))
    fresh = _update(2, link2, _legal_cost(link2), 1)
    assert defense.screen(fresh, 1, 0.0) is None
    assert defense.flooding.accept(fresh)
    jump = _update(2, link2, _legal_cost(link2), 2 + SEQ_WINDOW)
    assert defense.screen(jump, 1, 0.0) == "seq-implausible"


def test_reject_reasons_constant_matches_screen_outputs():
    assert set(REJECT_REASONS) == {
        "quarantined", "rate-limit", "cost-range", "seq-implausible"
    }
