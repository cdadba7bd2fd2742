"""Output link transmitters.

Each simplex link has a transmitter at its source PSN: a finite FIFO
buffer for data packets, an unbounded priority queue for routing updates
(*"routing update processing is a high priority process within the
PSN"* -- and update delivery was reliable in the real network), and a
wire that serializes packets at line rate, then delays them by the
propagation time.

The transmitter is also the **measurement point**: for every data packet
it forwards it samples queueing + processing + transmission + propagation
delay, feeding the ten-second averager that drives the link metric.  It
tracks busy time for utilization statistics and is where buffer-overflow
drops (Figure 13's dropped packets) happen.

This is the hottest code in the simulator -- every packet crosses a
transmitter at every hop -- so the wire is an **analytic priority
server**: a packet's departure and arrival times are computed when it
*starts* transmitting (``depart = start + bits / rate``, ``arrive =
depart + propagation``), and its arrival is the only kernel entry it
costs per hop.  Committed packets wait in a FIFO ``_flight``; only its
head holds a ``call_in`` entry, and each arrival schedules the next.

**The commit rule.**  ``_wire_free`` is when the last committed packet's
last bit leaves the wire.  Waiting packets are committed lazily: whenever
the transmitter is touched (a send that finds packets waiting, an
arrival, a utilization / backlog / queue-length read, a flush) it starts
every packet whose turn came by now, each at the instant the wire freed,
picking the control head before the data head (``reorder_control``, when
set, is consulted here).  Every packet that could have pre-empted was
enqueued before the wire freed, so it is already queued when the pick
runs, and the pick happens by the previous packet's arrival at the
latest, so no computed arrival lies in the past: nothing is ever
cancelled or re-pushed.  Busy time is added per committed packet; a
utilization read hands the part still ahead of the clock to the next
interval -- the totals interval accumulation gave on the same schedule.

Deliberate differences from the chained service loop this replaced
(``call_soon`` start, ``call_in`` finish, ``call_in`` arrive):

1. A packet reaching a free wire starts at once.  The deferred start let
   a control packet enqueued later in the same instant overtake it; that
   no longer happens.
2. Hence in a same-instant burst the buffer excludes the packet on the
   wire: the link holds ``buffer_packets + 1`` packets, as it already did
   in steady state.
3. ``reorder_control`` is consulted at the lazy commit, whose ``sim.now``
   is at most one propagation time after the virtual dequeue.

Counters and the delay sample (the same value as before) are taken at
arrival; a packet sent on a down link is dropped at once.  Dead packets
(drops, line-error losses, flushes) go back to the packet freelist (see
:mod:`repro.psn.packet`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.des import Simulator
from repro.psn.packet import Packet, PacketKind, release
from repro.topology.graph import Link

#: Hot-path aliases: one global load instead of two attribute chases.
_DATA = PacketKind.DATA
_ROUTING_UPDATE = PacketKind.ROUTING_UPDATE
_DISTANCE_VECTOR = PacketKind.DISTANCE_VECTOR
_UPDATE_ACK = PacketKind.UPDATE_ACK

#: Nodal processing overhead added to every forwarded packet (seconds).
PROCESSING_DELAY_S = 0.001

#: Default output buffer, in packets.  ARPANET PSNs had tight store-and-
#: forward buffer pools; a small buffer keeps measured delays bounded.
DEFAULT_BUFFER_PACKETS = 20


class LinkTransmitter:
    """The sending side of one simplex link.

    Parameters
    ----------
    sim:
        The simulator.
    link:
        The simplex link being driven.
    deliver:
        Callback ``deliver(packet, link)`` invoked at the destination PSN
        when the packet finishes propagation.
    buffer_packets:
        Data buffer capacity (packets waiting, not the one on the wire);
        overflowing packets are dropped.
    on_drop:
        Optional callback ``on_drop(packet, link)`` for congestion drops.
    error_rate:
        Probability that a transmitted packet is destroyed by line
        errors (checksummed and discarded at the receiver).  Lost
        routing updates are repaired by the 50-second re-advertisement
        cap; lost data packets were the hosts' problem in 1987.
    error_rng:
        Random source for error draws (required when ``error_rate`` > 0).
    """

    __slots__ = (
        "sim", "link", "deliver", "on_drop", "error_rate", "error_rng",
        "line_error_losses", "_data", "_capacity", "_control",
        "_bandwidth_bps", "_propagation_s", "busy_s", "_wire_free",
        "_flight", "data_bits_sent", "data_packets_sent",
        "control_packets_sent", "update_packets_sent",
        "ack_packets_sent", "drops",
        "on_delay_sample", "reorder_control", "_arrive_b", "_call_in",
    )

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        deliver: Callable[[Packet, Link], None],
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
        on_drop: Optional[Callable[[Packet, Link], None]] = None,
        error_rate: float = 0.0,
        error_rng=None,
    ) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1): {error_rate}")
        if error_rate > 0.0 and error_rng is None:
            raise ValueError("error_rate needs an error_rng")
        self.sim = sim
        self.link = link
        self.deliver = deliver
        self.on_drop = on_drop
        self.error_rate = error_rate
        self.error_rng = error_rng
        self.line_error_losses = 0
        #: Packets that have not started transmitting yet.
        self._data: deque = deque()
        self._capacity = buffer_packets
        self._control: deque = deque()
        # Immutable line characteristics, copied out of the Link so the
        # per-packet path never chases link -> line_type attributes.
        self._bandwidth_bps = link.bandwidth_bps
        self._propagation_s = link.propagation_s
        #: When the last committed packet's last bit leaves the wire.
        self._wire_free = float("-inf")
        #: Committed packets in arrival order:
        #: ``(arrive_s, packet, queueing_s, transmission_s)``.  The head,
        #: and only the head, holds a kernel entry.
        self._flight: deque = deque()
        #: Wire time committed and not yet handed to a utilization read.
        self.busy_s = 0.0
        self.data_bits_sent = 0.0
        self.data_packets_sent = 0
        self.control_packets_sent = 0
        self.update_packets_sent = 0
        self.ack_packets_sent = 0
        self.drops = 0
        #: Delay samples are reported here; installed by the owning PSN.
        self.on_delay_sample: Optional[Callable[[float], None]] = None
        #: Adversarial control-packet reordering (fault injection only;
        #: see :class:`~repro.faults.adversarial.ReorderCircuit`): called
        #: with the control-queue length at a pick, returns the 0-based
        #: position to transmit next (0 = head).  ``None`` in production.
        self.reorder_control: Optional[Callable[[int], int]] = None
        # Pre-bound: every packet's arrival is scheduled with it.
        self._arrive_b = self._arrive
        self._call_in = sim.call_in

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` now if the wire is free, else queue it.

        Returns ``False`` (and counts a drop) if the link is down or the
        data buffer is full.  Routing updates use the unbounded control
        queue and are sent ahead of any queued data.
        """
        now = self.sim.now
        if not self.link.up:
            self._drop(packet)
            release(packet)
            return False
        packet.enqueued_s = now
        if self._control or self._data:
            self._advance(now)
        if self._wire_free <= now:
            self._commit(packet, now)
        elif packet.kind is not _DATA:
            self._control.append(packet)
        elif len(self._data) >= self._capacity:
            self._drop(packet)
            return False
        else:
            self._data.append(packet)
        return True

    def queue_length(self) -> int:
        """Instantaneous output queue length (the 1969 metric's input)."""
        self._advance(self.sim.now)
        return len(self._data) + len(self._control)

    def control_backlog(self) -> int:
        """Control packets still waiting to be transmitted."""
        self._advance(self.sim.now)
        return len(self._control)

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Start every waiting packet whose turn came by ``now``."""
        control, data = self._control, self._data
        while self._wire_free <= now and (control or data):
            if not control:
                packet = data.popleft()
            elif self.reorder_control is not None and len(control) > 1:
                # Pull a non-head packet (bounded reordering): O(k)
                # rotates on a fault-injected circuit only.
                index = self.reorder_control(len(control))
                control.rotate(-index)
                packet = control.popleft()
                control.rotate(index)
            else:
                packet = control.popleft()
            self._commit(packet, self._wire_free)

    def _commit(self, packet: Packet, start: float) -> None:
        """Put ``packet`` on the wire at ``start``."""
        transmission_s = packet.size_bits / self._bandwidth_bps
        depart = self._wire_free = start + transmission_s
        self.busy_s += transmission_s
        arrive = depart + self._propagation_s
        flight = self._flight
        if not flight:
            self._call_in(arrive - self.sim.now, self._arrive_b)
        flight.append(
            (arrive, packet, start - packet.enqueued_s, transmission_s)
        )

    def _arrive(self) -> None:
        """The head of the flight finished propagating; deliver it."""
        flight = self._flight
        _, packet, queueing_s, transmission_s = flight.popleft()
        now = self.sim.now
        if flight:
            self._call_in(flight[0][0] - now, self._arrive_b)
        if self._control or self._data:
            self._advance(now)
        kind = packet.kind
        if kind is _DATA:
            self.data_packets_sent += 1
            self.data_bits_sent += packet.size_bits
            if self.on_delay_sample is not None:
                self.on_delay_sample(
                    queueing_s
                    + PROCESSING_DELAY_S
                    + transmission_s
                    + self._propagation_s
                )
        else:
            self.control_packets_sent += 1
            if kind is _ROUTING_UPDATE or kind is _DISTANCE_VECTOR:
                self.update_packets_sent += 1
            elif kind is _UPDATE_ACK:
                self.ack_packets_sent += 1
        if self.error_rate > 0.0 and \
                self.error_rng.random() < self.error_rate:
            # Destroyed by line noise: the receiver's checksum rejects it.
            self.line_error_losses += 1
            if kind is _DATA:
                self._drop(packet)
            release(packet)
            return
        packet.trail.append(self.link.link_id)
        self.deliver(packet, self.link)

    def _drop(self, packet: Packet) -> None:
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(packet, self.link)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Drop everything still waiting (used when the link goes down).

        Packets already on the wire fly on and arrive.  Returns the
        number of data packets discarded.
        """
        self._advance(self.sim.now)
        discarded = len(self._data)
        for packet in self._data:
            self._drop(packet)
            release(packet)
        self._data.clear()
        for packet in self._control:
            release(packet)
        self._control.clear()
        return discarded

    def take_utilization(self, interval_s: float) -> float:
        """Busy fraction since the last call; resets the accumulator."""
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        now = self.sim.now
        self._advance(now)
        # Wire time still ahead of the clock belongs to the next interval.
        carry = max(self._wire_free - now, 0.0)
        utilization = min((self.busy_s - carry) / interval_s, 1.0)
        self.busy_s = carry
        return utilization
