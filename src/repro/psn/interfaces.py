"""Output link transmitters.

Each simplex link has a transmitter at its source PSN: a finite FIFO
buffer for data packets, an unbounded priority queue for routing updates
(*"routing update processing is a high priority process within the
PSN"* -- and update delivery was reliable in the real network), and a
transmission state machine that serializes packets onto the wire at line
rate, then delays them by the propagation time.

The transmitter is also the **measurement point**: for every data packet
it forwards it samples queueing + processing + transmission + propagation
delay, feeding the ten-second averager that drives the link metric.  It
tracks busy time for utilization statistics and is where buffer-overflow
drops (Figure 13's dropped packets) happen.

This is the hottest code in the simulator -- every packet crosses a
transmitter at every hop -- so it runs on the kernel's bare scheduled
calls (``call_in`` / ``call_soon``), with a **chained service
loop**: only the head-of-line departure is ever scheduled, and finishing
one transmission both launches that packet's propagation directly (one
``call_in`` to arrival -- no intermediate launch event) and chains the
next transmission.  Two kernel entries per packet per hop on a busy
link (finish, arrive); a packet that finds the link idle pays a third,
the ``call_soon`` that starts service after everything already queued
at that instant -- it rides the kernel's now-lane, a ``deque`` append
and ``popleft`` rather than a heap push and pop (see
:mod:`repro.des.engine`).  Utilization is accounted by
**interval accumulation**: a busy period opens when the wire goes from
quiet to transmitting and closes when the queues drain, instead of
summing per-packet transmission times -- same totals, one add per busy
period instead of one per packet.  Dead packets (drops, line-error
losses, flushes) go back to the packet freelist (see
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
        Data buffer capacity; overflowing packets are dropped.
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
        "line_error_losses", "_data", "_capacity", "_control", "_idle",
        "_bandwidth_bps", "_propagation_s", "busy_s", "_busy_since",
        "bits_sent", "data_bits_sent", "data_packets_sent",
        "control_packets_sent", "update_packets_sent",
        "ack_packets_sent", "drops",
        "on_delay_sample", "reorder_control",
        "_start_next_b", "_finish_b",
        "_arrive_b", "_call_in", "_call_soon",
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
        #: Plain deques, not Stores: nothing ever blocks on these
        #: queues, so the synchronous structure keeps the per-packet
        #: bookkeeping off the hot path.
        self._data: deque = deque()
        self._capacity = buffer_packets
        self._control: deque = deque()
        # Immutable line characteristics, copied out of the Link so the
        # per-packet path never chases link -> line_type attributes.
        self._bandwidth_bps = link.bandwidth_bps
        self._propagation_s = link.propagation_s
        #: Whether the wire is quiet and no start-transmission call is
        #: pending.  Flipped by send(); flipped back when the queues drain.
        self._idle = True
        self.busy_s = 0.0
        #: Start of the open busy period (None while the wire is quiet).
        #: Folded into ``busy_s`` when the queues drain or at a
        #: utilization read -- one accumulation per busy period instead
        #: of one per packet.
        self._busy_since: Optional[float] = None
        self.bits_sent = 0.0
        self.data_bits_sent = 0.0
        self.data_packets_sent = 0
        self.control_packets_sent = 0
        self.update_packets_sent = 0
        self.ack_packets_sent = 0
        self.drops = 0
        #: Delay samples are reported here; installed by the owning PSN.
        self.on_delay_sample: Optional[Callable[[float], None]] = None
        #: Adversarial control-packet reordering (fault injection only;
        #: see :class:`~repro.faults.adversarial.ReorderCircuit`).
        #: Called with the control-queue length just before a dequeue;
        #: returns the 0-based queue position to transmit next (0 =
        #: head, the normal order).  ``None`` -- the production value --
        #: costs nothing: the check is one ``is not None`` on the cold
        #: control branch.
        self.reorder_control: Optional[Callable[[int], int]] = None
        # Pre-bound stage callbacks: each packet passes through all of
        # them, so the per-call bound-method allocation is worth avoiding.
        self._start_next_b = self._start_next
        self._finish_b = self._finish_transmission
        self._arrive_b = self._arrive
        self._call_in = sim.call_in
        self._call_soon = sim.call_soon

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Queue ``packet`` for transmission.

        Returns ``False`` (and counts a drop) if the data buffer is full.
        Routing updates use the unbounded control queue and are sent ahead
        of any queued data.
        """
        packet.enqueued_s = self.sim.now
        if packet.kind is not _DATA:
            self._control.append(packet)
        else:
            if len(self._data) >= self._capacity:
                self.drops += 1
                if self.on_drop is not None:
                    self.on_drop(packet, self.link)
                return False
            self._data.append(packet)
        if self._idle:
            # Defer to a fresh event (rather than starting synchronously)
            # so the transmission begins after everything already queued
            # at this instant -- the ordering the process version had.
            self._idle = False
            self._call_soon(self._start_next_b)
        return True

    def queue_length(self) -> int:
        """Instantaneous output queue length (the 1969 metric's input)."""
        return len(self._data) + len(self._control)

    def control_backlog(self) -> int:
        """Control packets still waiting to be transmitted."""
        return len(self._control)

    # ------------------------------------------------------------------
    # Transmission state machine
    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        """Begin transmitting the head-of-line packet, if any."""
        control, data = self._control, self._data
        while True:
            if control:
                if self.reorder_control is not None and len(control) > 1:
                    index = self.reorder_control(len(control))
                else:
                    index = 0
                if index:
                    # Pull a non-head packet (bounded reordering): O(k)
                    # rotates on a fault-injected circuit only.
                    control.rotate(-index)
                    packet = control.popleft()
                    control.rotate(index)
                else:
                    packet = control.popleft()
            elif data:
                packet = data.popleft()
            else:
                self._idle = True
                if self._busy_since is not None:
                    # The queues drained: close the busy period.
                    self.busy_s += self.sim.now - self._busy_since
                    self._busy_since = None
                return
            if not self.link.up:
                # Wire is dead: the packet is lost (counted as a drop).
                self.drops += 1
                if self.on_drop is not None:
                    self.on_drop(packet, self.link)
                release(packet)
                continue
            if self._busy_since is None:
                self._busy_since = self.sim.now
            queueing_s = self.sim.now - packet.enqueued_s
            transmission_s = packet.size_bits / self._bandwidth_bps
            self._call_in(
                transmission_s, self._finish_b,
                packet, queueing_s, transmission_s,
            )
            return

    def _finish_transmission(
        self, packet: Packet, queueing_s: float, transmission_s: float
    ) -> None:
        """The last bit left the wire: account, launch, chain the next."""
        self.bits_sent += packet.size_bits
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
        # Chained launch: the packet flies now; no intermediate event.
        self._call_in(self._propagation_s, self._arrive_b, packet)
        self._start_next()

    def _arrive(self, packet: Packet) -> None:
        """The packet finished flying down the wire; deliver it."""
        if self.error_rate > 0.0 and \
                self.error_rng.random() < self.error_rate:
            # Destroyed by line noise: the receiver's checksum rejects it.
            self.line_error_losses += 1
            if packet.kind is _DATA:
                self.drops += 1
                if self.on_drop is not None:
                    self.on_drop(packet, self.link)
            release(packet)
            return
        packet.trail.append(self.link.link_id)
        self.deliver(packet, self.link)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Drop everything queued (used when the link goes down).

        Returns the number of data packets discarded.
        """
        discarded = len(self._data)
        for packet in self._data:
            self.drops += 1
            if self.on_drop is not None:
                self.on_drop(packet, self.link)
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
        if self._busy_since is not None:
            # A transmission spans the boundary: attribute the elapsed
            # part to this interval and restart the period at the read.
            now = self.sim.now
            self.busy_s += now - self._busy_since
            self._busy_since = now
        utilization = min(self.busy_s / interval_s, 1.0)
        self.busy_s = 0.0
        return utilization
