"""The link transmitter against a reference wire.

:func:`reference` below is the whole service discipline in a few lines:
a work-conserving server that, at each instant the wire frees, starts
the head of the control queue if any control packet waits and the head
of the data queue otherwise, FIFO within each class, with a bounded
data buffer.  A Hypothesis-drawn program of sends (data, update, ack;
random sizes; random gaps, zero and dyadic ones included so that sends
land exactly on the instant the wire frees), utilization reads, backlog
reads and one optional link outage must read the same on
:class:`~repro.psn.LinkTransmitter`: every packet's arrival time,
the delivery order, the drops, the delay samples and every read.  The
transmitter must also cost exactly one kernel entry per packet that
went on the wire.

The transmitter is the measurement point for delay as well as for busy
time: at every utilization read, and at the link-up that starts a
fresh interval, its delay read must be exactly (``==``) the mean of the
samples its tap saw since the previous delay read, summed left to
right, or the line's zero-load delay when there were none.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.psn import LinkTransmitter, Packet, PacketKind
from repro.psn.interfaces import PROCESSING_DELAY_S
from repro.topology import Network, line_type

RATE_BPS = 56_000.0
DATA = PacketKind.DATA

# 875 bits take exactly 1/64 s at 56 kb/s, so dyadic gaps and sizes
# make the wire free exactly when a send happens.
SIZES = st.one_of(
    st.sampled_from([875.0, 1750.0, 3500.0, 7000.0]),
    st.floats(min_value=50.0, max_value=8000.0),
)
GAPS = st.one_of(
    st.sampled_from([0.0, 0.0, 1 / 64, 1 / 32, 1 / 8, 0.5]),
    st.floats(min_value=0.0, max_value=0.3),
)
KINDS = st.sampled_from(
    [DATA, DATA, PacketKind.ROUTING_UPDATE, PacketKind.UPDATE_ACK]
)
OPERATIONS = st.one_of(
    st.tuples(st.just("send"), KINDS, SIZES),
    st.tuples(st.just("send"), KINDS, SIZES),
    st.tuples(st.just("util"), st.sampled_from([0.25, 1.0, 10.0])),
    st.tuples(st.just("backlog")),
)
PROGRAMS = st.lists(st.tuples(GAPS, OPERATIONS), max_size=40)
#: (operation index the link goes down before, operations until it is
#: back up) -- or no outage.
OUTAGES = st.one_of(
    st.none(), st.tuples(st.integers(0, 40), st.integers(1, 40))
)


def reference(program, capacity, propagation_s, outage):
    """Expected (deliveries, drops, delay samples, reads, packets sent)."""
    control, data, wire = deque(), deque(), []
    drops, reads = [], []
    free, now, last_read, up = float("-inf"), 0.0, float("-inf"), True

    def advance(t):
        nonlocal free
        while free <= t and (control or data):
            pid, kind, size, sent = (control or data).popleft()
            start = max(free, sent)
            free = start + size / RATE_BPS
            wire.append((free + propagation_s, pid, kind, start, free, sent))

    down_at, up_at = outage or (None, None)
    for index, (gap, operation) in enumerate(program):
        now = now + gap
        advance(now)
        if index == down_at:
            up = False
            reads.append(len(data))
            drops.extend(pid for pid, *_ in data)
            data.clear()
            control.clear()
        if down_at is not None and index == down_at + up_at:
            up = True
        if operation[0] == "send":
            _, kind, size = operation
            if not up or (free > now and kind is DATA
                          and len(data) >= capacity):
                drops.append(index)
                continue
            (data if kind is DATA else control).append(
                (index, kind, size, now)
            )
            advance(now)
        elif operation[0] == "util":
            busy = sum(
                max(min(depart, now) - max(start, last_read), 0.0)
                for _, _, _, start, depart, _ in wire
            )
            reads.append(min(busy / operation[1], 1.0))
            last_read = now
        else:
            reads.append(len(control))
    advance(float("inf"))
    wire.sort()
    deliveries = [(pid, arrive) for arrive, pid, *_ in wire]
    samples = [
        (start - sent) + PROCESSING_DELAY_S + (depart - start)
        + propagation_s
        for _, _, kind, start, depart, sent in wire if kind is DATA
    ]
    return deliveries, drops, samples, reads, len(wire)


def transmitter(program, capacity, propagation_s, outage):
    """The same program on a real transmitter, between sliced runs."""
    network = Network()
    a, b = network.add_node().node_id, network.add_node().node_id
    link, _ = network.add_circuit(a, b, line_type("56K-T"), propagation_s)
    sim = Simulator()
    deliveries, drops, samples, reads = [], [], [], []
    delay_reads, since_read = [], []
    # Packets have no id: each is named by its program index, looked up
    # by identity (``sent`` keeps every packet alive, so ids stay unique).
    sent, index_of = [], {}
    zero_load = 600.0 / RATE_BPS + propagation_s + PROCESSING_DELAY_S

    def read_delay():
        want = sum(since_read) / len(since_read) if since_read else zero_load
        delay_reads.append((tx.take_delay(), want))
        since_read.clear()

    tx = LinkTransmitter(
        sim, link,
        lambda packet, _link: deliveries.append(
            (index_of[id(packet)], sim.now)
        ),
        buffer_packets=capacity,
        on_drop=lambda packet, _link: drops.append(index_of[id(packet)]),
    )

    def tap(delay_s):
        samples.append(delay_s)
        since_read.append(delay_s)

    tx.on_delay_sample = tap
    down_at, up_at = outage or (None, None)
    for index, (gap, operation) in enumerate(program):
        sim.run(until=sim.now + gap)
        if index == down_at:
            link.up = False
            reads.append(tx.flush())
        if down_at is not None and index == down_at + up_at:
            link.up = True
            read_delay()
        if operation[0] == "send":
            packet = Packet(
                kind=operation[1], src=a, dst=b,
                size_bits=operation[2], created_s=sim.now,
            )
            sent.append(packet)
            index_of[id(packet)] = index
            tx.send(packet)
        elif operation[0] == "util":
            reads.append(tx.take_utilization(operation[1]))
            read_delay()
        else:
            reads.append(tx.control_backlog())
    sim.run()
    read_delay()
    return (
        deliveries, drops, samples, reads, delay_reads, sim.events_processed
    )


@settings(max_examples=400, deadline=None)
@given(
    program=PROGRAMS,
    capacity=st.integers(0, 3),
    propagation_s=st.sampled_from([0.0, 1 / 128, 0.010]),
    outage=OUTAGES,
)
def test_transmitter_matches_reference_wire(
    program, capacity, propagation_s, outage
):
    expected = reference(program, capacity, propagation_s, outage)
    deliveries, drops, samples, reads, delay_reads, entries = transmitter(
        program, capacity, propagation_s, outage
    )
    want_deliveries, want_drops, want_samples, want_reads, sent = expected
    assert [pid for pid, _ in deliveries] == [pid for pid, _ in want_deliveries]
    assert [t for _, t in deliveries] == pytest.approx(
        [t for _, t in want_deliveries], rel=1e-12
    )
    assert drops == want_drops
    assert samples == pytest.approx(want_samples, rel=1e-12, abs=1e-15)
    assert reads == pytest.approx(want_reads, rel=1e-9, abs=1e-12)
    for delay_s, want_s in delay_reads:
        assert delay_s == want_s
    # One kernel entry per packet that went on the wire, and no other.
    assert entries == sent == len(deliveries)
