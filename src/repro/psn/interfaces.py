"""Output link transmitters.

Each simplex link has a transmitter at its source PSN: a finite FIFO
buffer for data packets, an unbounded priority queue for routing updates
(*"routing update processing is a high priority process within the
PSN"* -- and update delivery was reliable in the real network), and a
wire that serializes packets at line rate, then delays them by the
propagation time.

The transmitter is also the **measurement point**: for every data packet
it forwards it adds queueing + processing + transmission + propagation
delay to the measurement interval's sum and count, and hands back their
mean (:meth:`LinkTransmitter.take_delay`) when the owning PSN closes the
interval, just as it tracks busy time for the utilization read.  It is
where buffer-overflow drops (Figure 13's dropped packets) happen.

This is the hottest code in the simulator -- every packet crosses a
transmitter at every hop -- so the wire is an **analytic priority
server**: a packet's departure and arrival times are computed when it
*starts* transmitting (``depart = start + bits / rate``, ``arrive =
depart + propagation``), and its arrival is the only kernel entry it
costs per hop.  Committed packets wait in a FIFO ``_flight`` deque, each
packet its own entry: the commit writes its ``arrive_s`` and its
``hop_delay_s`` onto it.  Only the head holds a ``call_in`` entry, and
each arrival schedules the next.  ``hop_delay_s`` is the hop's measured
delay -- queueing + processing + transmission + propagation, summed left
to right -- and only a data packet's is ever read.  The two waiting
queues are plain lists (an empty one is 56 bytes, an empty deque 760):
they stay short -- at most 86 control packets in the 256-node boot
flood's peak -- so taking the head is a short move.

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
arrival, so a packet committed before an interval closes and arriving
after it counts in the next interval; a packet sent on a down link is
dropped at once.

**Two exits.**  An arriving data packet not addressed to the far node
is in transit: it goes straight to ``forward(packet)``, the far PSN's
forwarding decision.  Everything else -- updates, acks, RFNMs, distance
vectors and data at its destination -- goes to ``deliver(packet,
link)``, the far PSN's ``receive``.  The simulation sets ``forward``
once its PSNs exist; until then transit data goes to ``deliver`` too.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.des import Simulator
from repro.metrics.queueing import service_time_s
from repro.psn.packet import Packet, PacketKind
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
        "sim", "link", "deliver", "forward", "on_drop", "error_rate",
        "error_rng", "line_error_losses", "_data", "_capacity",
        "_control", "_bandwidth_bps", "_propagation_s", "_far", "busy_s",
        "_wire_free", "_flight", "data_bits_sent", "_data_closed",
        "control_packets_sent", "update_packets_sent",
        "ack_packets_sent", "drops", "zero_load_delay_s", "delay_sum_s",
        "delay_count", "on_delay_sample", "reorder_control", "_arrive_b",
        "_call_in",
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
        if buffer_packets < 0:
            raise ValueError(f"buffer_packets must be >= 0: {buffer_packets}")
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1): {error_rate}")
        if error_rate > 0.0 and error_rng is None:
            raise ValueError("error_rate needs an error_rng")
        self.sim = sim
        self.link = link
        self.deliver = deliver
        #: ``forward(packet)`` for transit data (module docstring).
        self.forward: Callable[[Packet], None] = self._deliver
        self.on_drop = on_drop
        self.error_rate = error_rate
        self.error_rng = error_rng
        self.line_error_losses = 0
        #: Packets that have not started transmitting yet.
        self._data: List[Packet] = []
        self._capacity = buffer_packets
        self._control: List[Packet] = []
        # Immutable line characteristics, copied out of the Link so the
        # per-packet path never chases link -> line_type attributes.
        self._bandwidth_bps = link.bandwidth_bps
        self._propagation_s = link.propagation_s
        self._far = link.dst
        #: When the last committed packet's last bit leaves the wire.
        self._wire_free = float("-inf")
        #: Committed packets in arrival order (``packet.arrive_s``).  The
        #: head, and only the head, holds a kernel entry.
        self._flight: deque = deque()
        #: Wire time committed and not yet handed to a utilization read.
        self.busy_s = 0.0
        self.data_bits_sent = 0.0
        #: Data arrivals in closed measurement intervals (see
        #: :attr:`data_packets_sent`).
        self._data_closed = 0
        self.control_packets_sent = 0
        self.update_packets_sent = 0
        self.ack_packets_sent = 0
        self.drops = 0
        #: What an interval without data packets reports: an average
        #: packet's transmission plus propagation plus processing (an
        #: idle line still has delay; the D-SPF bias exists precisely so
        #: this never quantizes to zero).
        self.zero_load_delay_s = (
            service_time_s(link.bandwidth_bps)
            + link.propagation_s
            + PROCESSING_DELAY_S
        )
        #: The open measurement interval's data-packet delays, taken at
        #: arrival and in arrival order.
        self.delay_sum_s = 0.0
        self.delay_count = 0
        #: Per-sample tap (tests only): called with each data packet's
        #: delay as it is added.  ``None`` in every simulation.
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
                packet = data.pop(0)
            elif self.reorder_control is not None and len(control) > 1:
                # Pull a non-head packet (bounded reordering, on a
                # fault-injected circuit only).
                packet = control.pop(self.reorder_control(len(control)))
            else:
                packet = control.pop(0)
            self._commit(packet, self._wire_free)

    def _commit(self, packet: Packet, start: float) -> None:
        """Put ``packet`` on the wire at ``start``."""
        transmission_s = packet.size_bits / self._bandwidth_bps
        depart = self._wire_free = start + transmission_s
        self.busy_s += transmission_s
        arrive = packet.arrive_s = depart + self._propagation_s
        packet.hop_delay_s = (
            (start - packet.enqueued_s)
            + PROCESSING_DELAY_S
            + transmission_s
            + self._propagation_s
        )
        flight = self._flight
        if not flight:
            self._call_in(arrive - self.sim.now, self._arrive_b)
        flight.append(packet)

    def _arrive(self) -> None:
        """The head of the flight finished propagating; hand it on."""
        flight = self._flight
        packet = flight.popleft()
        now = self.sim.now
        if flight:
            self._call_in(flight[0].arrive_s - now, self._arrive_b)
        if self._control or self._data:
            self._advance(now)
        kind = packet.kind
        if kind is _DATA:
            self.data_bits_sent += packet.size_bits
            delay_s = packet.hop_delay_s
            if delay_s < 0:
                raise ValueError(f"delay must be >= 0, got {delay_s}")
            self.delay_sum_s += delay_s
            self.delay_count += 1
            if self.on_delay_sample is not None:
                self.on_delay_sample(delay_s)
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
            return
        packet.hop_count += 1
        if kind is _DATA and packet.dst != self._far:
            self.forward(packet)
        else:
            self.deliver(packet, self.link)

    def _deliver(self, packet: Packet) -> None:
        """The default ``forward``: transit data goes to ``deliver``."""
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
        self._data.clear()
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

    def take_delay(self) -> float:
        """Mean data-packet delay since the last call; resets the sums.

        An interval in which no data packet arrived reports the
        zero-load delay.
        """
        count = self.delay_count
        delay_s = (
            self.zero_load_delay_s if count == 0
            else self.delay_sum_s / count
        )
        self._data_closed += count
        self.delay_sum_s = 0.0
        self.delay_count = 0
        return delay_s

    @property
    def data_packets_sent(self) -> int:
        """Data packets that arrived over this link, lost ones included:
        the closed intervals' counts plus the open one's."""
        return self._data_closed + self.delay_count
