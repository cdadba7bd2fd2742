"""Hot-path counters, aggregated per run.

A :class:`RunTelemetry` block is the quantitative companion to the
event trace: cheap monotonic counters that the simulator's subsystems
already maintain (or that cost one integer increment on a cold path),
harvested *once* at the end of a run.  Nothing here touches the
per-event hot loop -- collection is an O(nodes + links) sweep over
counters that exist anyway, which is what keeps the zero-overhead
guarantee honest while still attaching a telemetry block to every
:class:`~repro.sim.stats.SimulationReport`.

Telemetry blocks form a commutative monoid under :meth:`RunTelemetry.merge`
(every field is a sum), so :func:`merge_telemetry` is the reducer
:func:`~repro.sim.parallel.run_many` callers use to aggregate parallel
replications instead of discarding per-worker counters.  Associativity
is regression-tested.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Optional


@dataclass
class RunTelemetry:
    """Counters and timings harvested from one simulation run."""

    #: Runs merged into this block (1 for a single run).
    runs: int = 1

    # -- kernel ---------------------------------------------------------
    #: Queue entries processed.
    events_processed: int = 0
    #: Entries still pending when the run ended (scheduled = processed
    #: + pending: the sequence counter is drawn once per push).
    events_pending: int = 0

    # -- route computation ---------------------------------------------
    spf_full_computations: int = 0
    #: Always 0 (every repair is a batched pass); kept because
    #: ``perfbench/metrics.py`` reads it.
    spf_incremental_updates: int = 0
    spf_no_op_updates: int = 0
    spf_nodes_scanned: int = 0
    spf_batched_passes: int = 0
    spf_batched_changes: int = 0

    # -- flooding -------------------------------------------------------
    flood_generated: int = 0
    flood_accepted: int = 0
    flood_duplicates: int = 0
    flood_forwarded: int = 0
    #: Updates retransmitted by the per-link reliability timer.
    updates_retransmitted: int = 0

    # -- SPF cache ------------------------------------------------------
    #: Always 0 (forwarding tables are built per tree, never stored);
    #: kept because ``perfbench/metrics.py`` reads it.
    cache_table_hits: int = 0
    #: Forwarding tables handed out (one per tree state a PSN forwards on).
    cache_table_misses: int = 0
    cache_tree_hits: int = 0
    cache_tree_misses: int = 0
    cache_evictions: int = 0

    # -- link layer -----------------------------------------------------
    data_packets_sent: int = 0
    control_packets_sent: int = 0
    update_packets_sent: int = 0
    #: Update acknowledgements transmitted (a subset of control).
    ack_packets_sent: int = 0
    transmitter_drops: int = 0
    line_error_losses: int = 0

    # -- fault injection / invariants -----------------------------------
    #: Circuit failures the fault injector applied (scripted + flaps).
    faults_injected: int = 0
    #: Circuit restores the fault injector applied.
    restores_injected: int = 0
    #: Completed up->down->up stochastic flap cycles.
    flap_transitions: int = 0
    #: Invariant-monitor periodic checks executed.
    invariant_checks: int = 0
    #: Invariant violations recorded.
    invariant_violations: int = 0

    # -- adversarial faults / defenses ----------------------------------
    #: Forged updates emitted by corrupt-update faults.
    corrupt_updates_injected: int = 0
    #: Gratuitous updates emitted by babbling-node faults.
    babble_updates_injected: int = 0
    #: Stuck-node freeze/thaw transitions applied.
    stuck_transitions: int = 0
    #: Control packets dequeued out of order by reorder faults.
    reorder_swaps: int = 0
    #: Updates rejected by defense screens, by reason.
    defense_rejected_quarantine: int = 0
    defense_rejected_rate: int = 0
    defense_rejected_cost: int = 0
    defense_rejected_seq: int = 0
    #: Neighbour quarantines entered / lifted.
    defense_quarantines: int = 0
    defense_rehabilitations: int = 0
    #: Purge passes run and database entries evicted by them.
    defense_purge_passes: int = 0
    defense_purged_entries: int = 0

    # -- observability itself ------------------------------------------
    #: Trace events emitted (0 for disabled runs).
    trace_events: int = 0
    #: Metrics snapshots taken (0 with ``metrics=None``).
    meter_samples: int = 0

    # -- wall time ------------------------------------------------------
    #: Wall seconds spent inside :meth:`NetworkSimulation.run`.
    wall_s: float = 0.0

    # ------------------------------------------------------------------
    def merge(self, other: "RunTelemetry") -> "RunTelemetry":
        """A new block combining two runs (every field sums)."""
        merged = RunTelemetry()
        for name, value in asdict(self).items():
            setattr(merged, name, value + getattr(other, name))
        return merged

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-ready)."""
        return asdict(self)

    @classmethod
    def collect(cls, simulation, wall_s: float = 0.0) -> "RunTelemetry":
        """Harvest counters from a finished (or paused) simulation.

        ``simulation`` is a :class:`~repro.sim.network_sim.NetworkSimulation`;
        the sweep only reads counters its subsystems already keep.
        """
        sim = simulation.sim
        telemetry = cls(
            events_processed=sim.events_processed,
            events_pending=sim.pending,
            trace_events=simulation.tracer.events_emitted,
            wall_s=wall_s,
        )
        for psn in simulation.psns.values():
            flood = psn.flooding.stats
            telemetry.flood_generated += flood.generated
            telemetry.flood_accepted += flood.accepted
            telemetry.flood_duplicates += flood.duplicates
            telemetry.flood_forwarded += flood.forwarded
            telemetry.updates_retransmitted += flood.retransmitted
        cache = simulation.spf_cache
        if cache is not None:  # None: the 1969 protocol builds no SPF
            for psn in simulation.psns.values():
                spf = psn.tree.stats
                telemetry.spf_full_computations += spf.full_computations
                telemetry.spf_no_op_updates += spf.no_op_updates
                telemetry.spf_nodes_scanned += spf.nodes_scanned
                telemetry.spf_batched_passes += spf.batched_passes
                telemetry.spf_batched_changes += spf.batched_changes
            telemetry.cache_table_misses = cache.stats.table_misses
            telemetry.cache_tree_hits = cache.stats.tree_hits
            telemetry.cache_tree_misses = cache.stats.tree_misses
            telemetry.cache_evictions = cache.stats.evictions
        for transmitter in simulation.transmitters.values():
            telemetry.data_packets_sent += transmitter.data_packets_sent
            telemetry.control_packets_sent += transmitter.control_packets_sent
            telemetry.update_packets_sent += transmitter.update_packets_sent
            telemetry.ack_packets_sent += transmitter.ack_packets_sent
            telemetry.transmitter_drops += transmitter.drops
            telemetry.line_error_losses += transmitter.line_error_losses
        injector = getattr(simulation, "fault_injector", None)
        if injector is not None:
            telemetry.faults_injected = injector.faults_injected
            telemetry.restores_injected = injector.restores_injected
            telemetry.flap_transitions = injector.flap_transitions
            telemetry.corrupt_updates_injected = \
                injector.corrupt_updates_injected
            telemetry.babble_updates_injected = \
                injector.babble_updates_injected
            telemetry.stuck_transitions = injector.stuck_transitions
            telemetry.reorder_swaps = injector.reorder_swaps
        if simulation.defense_policy is not None:
            for psn in simulation.psns.values():
                stats = psn.flooding.defense.stats
                telemetry.defense_rejected_quarantine += stats.rejected_quarantine
                telemetry.defense_rejected_rate += stats.rejected_rate
                telemetry.defense_rejected_cost += stats.rejected_cost
                telemetry.defense_rejected_seq += stats.rejected_seq
                telemetry.defense_quarantines += stats.quarantines
                telemetry.defense_rehabilitations += stats.rehabilitations
                telemetry.defense_purge_passes += stats.purge_passes
                telemetry.defense_purged_entries += stats.purged_entries
        monitor = getattr(simulation, "invariant_monitor", None)
        if monitor is not None:
            telemetry.invariant_checks = monitor.checks_run
            telemetry.invariant_violations = len(monitor.violations)
        meters = getattr(simulation, "meters", None)
        if meters is not None:
            telemetry.meter_samples = meters.samples_taken
        return telemetry


def merge_telemetry(
    blocks: Iterable[Optional[RunTelemetry]],
) -> Optional[RunTelemetry]:
    """Reduce telemetry blocks (e.g. from parallel replications) into one.

    ``None`` entries (runs without telemetry -- a report built directly
    from a :class:`~repro.sim.stats.StatsCollector`) are skipped;
    returns ``None`` if nothing remains.  Associative and commutative:
    any grouping of the same blocks merges to the same totals.
    """
    merged: Optional[RunTelemetry] = None
    for block in blocks:
        if block is None:
            continue
        merged = block if merged is None else merged.merge(block)
    return merged
