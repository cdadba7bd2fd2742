#!/usr/bin/env python3
"""MILNET-scale sweep: the large generated topologies as one fleet.

Drives the three MILNET-and-beyond scale rungs (``grid64``,
``rand256``, ``rand512``) through ``run_many`` and folds the per-run
telemetry into one fleet summary with ``combined_telemetry``.
``on_error="collect"`` is the resilience story: a crashed rung becomes
a recorded failure with a replay recipe, never a dead sweep.

Run:  python examples/milnet_sweep.py
"""

from repro.sim import RunSpec, ScenarioConfig, combined_telemetry, run_many

#: (scenario, duration_s, warmup_s) -- durations shrink as the rung
#: grows so each run's event count stays example-sized.
RUNGS = (
    ("grid64", 20.0, 5.0),
    ("rand256", 4.0, 1.0),
    ("rand512", 2.0, 0.5),
)


def rung_config(duration_s: float, warmup_s: float) -> ScenarioConfig:
    return ScenarioConfig(duration_s=duration_s, warmup_s=warmup_s, seed=3)


def main() -> None:
    specs = [
        RunSpec(name, rung_config(duration_s, warmup_s))
        for name, duration_s, warmup_s in RUNGS
    ]
    # A failed rung is reported, not fatal.
    batch = run_many(specs, on_error="collect")

    print("MILNET-scale sweep (batched SPF, classic reliable flooding)\n")
    header = (f"{'scenario':<10} {'delivered':>10} {'ratio':>6} "
              f"{'events':>10} {'updates':>8} {'acks':>8} "
              f"{'retrans':>7}")
    print(header)
    print("-" * len(header))
    for spec, report in zip(specs, batch.results):
        if report is None:
            print(f"{spec.scenario:<10} FAILED")
            continue
        t = report.telemetry
        print(f"{spec.scenario:<10} {report.delivered_packets:>10} "
              f"{report.delivery_ratio:>6.3f} {t.events_processed:>10} "
              f"{t.update_packets_sent:>8} {t.ack_packets_sent:>8} "
              f"{t.updates_retransmitted:>7}")

    total = combined_telemetry(batch.reports)
    status = f"runs {len(specs)}/{len(specs)} done"
    if batch.failures:
        status += f", {len(batch.failures)} failed"
    print(f"\nfleet: {status}; "
          f"{total.events_processed} events across {total.runs} runs, "
          f"{total.control_packets_sent} control packets "
          f"({total.ack_packets_sent} acks, "
          f"{total.update_packets_sent} updates)")
    for failure in batch.failures:
        print(f"failure: {failure}")
    if batch.ok:
        print("all rungs completed; "
              f"{total.updates_retransmitted} updates retransmitted")


if __name__ == "__main__":
    main()
