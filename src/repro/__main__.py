"""Top-level command line interface: ``python -m repro <command>``.

Commands
--------
``topology``    describe a built-in topology (nodes, circuits, trunking)
``simulate``    run a packet-level simulation and print the report
``experiment``  regenerate one of the paper's tables/figures
``fluid``       run the fluid network-wide equilibrium model

Examples::

    python -m repro topology arpanet
    python -m repro simulate --topology arpanet --metric hnspf \\
        --traffic-kbps 366 --duration 300
    python -m repro simulate --scenario two-region-hnspf \\
        --faults examples/faultplans/stochastic-flap.json \\
        --check-invariants --resilience-summary
    python -m repro experiment table1 --fast
    python -m repro fluid --metric dspf --scale 1.0 --rounds 40
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.metrics import DelayMetric, HopNormalizedMetric, MinHopMetric
from repro.report import ascii_table

METRICS = {
    "dspf": DelayMetric,
    "hnspf": HopNormalizedMetric,
    "minhop": MinHopMetric,
}


def _build_topology(name: str):
    from repro.topology import build_arpanet_1987, build_milnet_1987
    from repro.topology.arpanet import site_weights
    from repro.topology.milnet import milnet_site_weights

    if name == "arpanet":
        return build_arpanet_1987(), site_weights()
    if name == "milnet":
        return build_milnet_1987(), milnet_site_weights()
    raise SystemExit(f"unknown topology {name!r} (arpanet|milnet)")


def cmd_topology(args) -> int:
    from repro.topology.describe import describe_network

    network, weights = _build_topology(args.name)
    print(describe_network(network, circuits=args.circuits))
    print("\ntotal site weight:", sum(weights.values()))
    return 0


def cmd_simulate(args) -> int:
    from repro.sim import NetworkSimulation, ScenarioConfig, build_scenario
    from repro.traffic import TrafficMatrix

    faults = None
    if args.faults:
        from repro.faults import load_fault_plan

        faults = load_fault_plan(args.faults)
    trace = args.trace
    if args.chrome_trace and not trace:
        # Chrome-trace export needs events; keep them in memory when no
        # JSONL trace was asked for.
        trace = "memory"
    metrics = args.metrics_out
    if metrics is None and args.metrics_prom:
        metrics = "memory"
    try:
        config = ScenarioConfig(
            duration_s=args.duration,
            warmup_s=min(args.duration / 4.0, 60.0),
            seed=args.seed,
            multipath=args.multipath,
            trace=trace,
            faults=faults,
            check_invariants=args.check_invariants,
            defenses=args.defenses,
            metrics=metrics,
        )
        if args.scenario:
            simulation = build_scenario(args.scenario, config=config)
            label = args.scenario
        else:
            network, weights = _build_topology(args.topology)
            metric = METRICS[args.metric]()
            traffic = TrafficMatrix.gravity(
                network, args.traffic_kbps * 1000.0, weights=weights
            )
            simulation = NetworkSimulation(network, metric, traffic, config)
            label = args.topology
    except ValueError as refused:  # out of range, or not honoured
        print(f"python -m repro simulate: {refused}", file=sys.stderr)
        return 2
    report = simulation.run()
    print(ascii_table(
        ["indicator", "value"],
        [
            ("metric", report.metric_name),
            ("carried traffic (kb/s)", report.internode_traffic_kbps),
            ("round-trip delay (ms)", report.round_trip_delay_ms),
            ("updates / s", report.updates_per_s),
            ("update period / node (s)", report.update_period_per_node_s),
            ("actual path (hops)", report.actual_path_hops),
            ("minimum path (hops)", report.minimum_path_hops),
            ("path ratio", report.path_ratio),
            ("congestion drops", report.congestion_drops),
            ("delivery ratio", report.delivery_ratio),
        ],
        title=f"{label} under {report.metric_name}, "
              f"{args.duration:.0f}s simulated",
    ))
    if args.csv:
        from repro.report.export import write_report_csv

        path = write_report_csv(args.csv, {report.metric_name: report})
        print(f"\nreport written to {path}")
    if args.trace:
        tracer = simulation.tracer
        print(f"\ntrace: {tracer.events_emitted} events -> {args.trace}")
    if args.chrome_trace:
        from repro.obs.spans import write_chrome_trace

        if trace == "memory":
            events = simulation.tracer.events()
        else:
            from repro.report import read_trace

            events = read_trace(trace)
        write_chrome_trace(args.chrome_trace, events)
        print(f"\nchrome trace ({len(events)} events) -> "
              f"{args.chrome_trace}")
    if args.metrics_out:
        print(f"\nmetrics: {simulation.meters.samples_taken} snapshots -> "
              f"{args.metrics_out}")
    if args.metrics_prom:
        with open(args.metrics_prom, "w") as handle:
            handle.write(simulation.meters.to_prometheus())
        print(f"\nprometheus exposition -> {args.metrics_prom}")
    if args.telemetry:
        print()
        print(_telemetry_table(report.telemetry))
    if args.resilience_summary or args.resilience_out:
        import json as _json

        if report.resilience is None:
            print("\nno resilience summary: run had no fault plan "
                  "(--faults PLAN.json)")
        else:
            if args.resilience_summary:
                print("\nresilience summary:")
                print(_json.dumps(report.resilience, indent=2))
            if args.resilience_out:
                with open(args.resilience_out, "w") as handle:
                    _json.dump(report.resilience, handle, indent=2)
                    handle.write("\n")
                print(f"\nresilience summary -> {args.resilience_out}")
    if args.check_invariants:
        violations = report.invariant_violations or []
        if violations:
            print(f"\n{len(violations)} invariant violation(s):",
                  file=sys.stderr)
            for violation in violations:
                print(f"  {violation}", file=sys.stderr)
            return 1
        print("\ninvariants: all checks passed "
              f"({simulation.invariant_monitor.checks_run} periods)")
    return 0


def _telemetry_table(telemetry) -> str:
    """Render a :class:`~repro.obs.telemetry.RunTelemetry` block."""
    return ascii_table(
        ["counter", "value"], list(telemetry.to_dict().items()),
        title="run telemetry",
    )


def cmd_validate(args) -> int:
    from repro.analysis import all_passed, validate_configuration
    from repro.analysis.metric_maps import reference_link
    from repro.traffic import TrafficMatrix

    network, weights = _build_topology(args.topology)
    traffic = TrafficMatrix.gravity(
        network, args.traffic_kbps * 1000.0, weights=weights
    )
    link = reference_link("56K-T", propagation_s=0.001)
    checks = validate_configuration(network, traffic, link)
    for check in checks:
        print(check)
    ok = all_passed(checks)
    print(f"\n{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def cmd_fluid(args) -> int:
    from repro.analysis import FluidNetworkModel
    from repro.traffic import TrafficMatrix

    network, weights = _build_topology(args.topology)
    metric = METRICS[args.metric]()
    traffic = TrafficMatrix.gravity(
        network, args.traffic_kbps * 1000.0 * args.scale, weights=weights
    )
    model = FluidNetworkModel(network, metric, traffic)
    trace = model.run(rounds=args.rounds)
    print(ascii_table(
        ["round", "mean util", "max util", "cost churn",
         "overload (kb/s)"],
        [
            (r.round_index, r.mean_utilization, r.max_utilization,
             r.churn, r.overload_bps / 1000.0)
            for r in trace.rounds
        ],
        title=f"fluid model: {args.topology} / {metric.name} / "
              f"{args.scale:.2f}x load",
    ))
    print(f"\nsettled: {trace.settled()} "
          f"(tail churn {trace.tail_churn():.3f})")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="The Revised ARPANET Routing Metric -- reproduction "
                    "toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_topology = commands.add_parser(
        "topology", help="describe a built-in topology"
    )
    p_topology.add_argument("name", choices=("arpanet", "milnet"))
    p_topology.add_argument("--circuits", action="store_true",
                            help="also list every circuit")
    p_topology.set_defaults(handler=cmd_topology)

    p_simulate = commands.add_parser(
        "simulate", help="run a packet-level simulation"
    )
    from repro.sim.scenarios import scenario_names

    p_simulate.add_argument("--scenario", default=None,
                            choices=scenario_names(),
                            help="a canned paper scenario (overrides "
                                 "--topology/--metric/--traffic-kbps)")
    p_simulate.add_argument("--topology", default="arpanet",
                            choices=("arpanet", "milnet"))
    p_simulate.add_argument("--metric", default="hnspf",
                            choices=sorted(METRICS))
    p_simulate.add_argument("--traffic-kbps", type=float, default=366.0)
    p_simulate.add_argument("--duration", type=float, default=300.0)
    p_simulate.add_argument("--seed", type=int, default=0)
    p_simulate.add_argument("--multipath", default=None,
                            choices=("flow", "packet"))
    p_simulate.add_argument("--csv", default=None,
                            help="also write the report to this CSV path")
    p_simulate.add_argument("--trace", default=None, metavar="PATH",
                            help="record a JSONL event trace to PATH "
                                 "(see docs/observability.md)")
    p_simulate.add_argument("--telemetry", action="store_true",
                            help="print the run's hot-path counter block")
    p_simulate.add_argument("--faults", default=None, metavar="PLAN.json",
                            help="inject a declarative fault plan "
                                 "(see docs/robustness.md)")
    p_simulate.add_argument("--check-invariants", action="store_true",
                            help="verify the paper's metric invariants "
                                 "each routing period; exit 1 on any "
                                 "violation")
    p_simulate.add_argument("--defenses", action="store_true",
                            help="screen routing updates (cost bounds, "
                                 "sequence plausibility, origination rate), "
                                 "quarantine a neighbour for 30 s after "
                                 "three rejections and purge entries "
                                 "unheard for 120 s -- the post-1980 "
                                 "ARPANET hardening, with fixed settings")
    p_simulate.add_argument("--resilience-out", default=None, metavar="PATH",
                            help="write the resilience/containment summary "
                                 "as JSON to PATH (needs --faults)")
    p_simulate.add_argument("--resilience-summary", action="store_true",
                            help="print per-fault reconvergence/delivery "
                                 "JSON (needs --faults)")
    p_simulate.add_argument("--chrome-trace", default=None, metavar="PATH",
                            help="export the event trace as Chrome "
                                 "trace-event JSON (Perfetto-loadable); "
                                 "records an in-memory trace if --trace "
                                 "was not given")
    p_simulate.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="sample live metrics each measurement "
                                 "interval and write JSONL snapshots to "
                                 "PATH (see docs/observability.md)")
    p_simulate.add_argument("--metrics-prom", default=None, metavar="PATH",
                            help="write the final metrics snapshot in "
                                 "Prometheus text exposition to PATH")
    p_simulate.set_defaults(handler=cmd_simulate)

    # One runner: the same arguments and loop as python -m repro.experiments.
    from repro.experiments.__main__ import add_arguments, run

    p_experiment = commands.add_parser(
        "experiment", help="regenerate the paper's tables/figures"
    )
    add_arguments(p_experiment)
    p_experiment.set_defaults(handler=run)

    p_validate = commands.add_parser(
        "validate",
        help="check the metric's qualitative properties on a topology",
    )
    p_validate.add_argument("--topology", default="arpanet",
                            choices=("arpanet", "milnet"))
    p_validate.add_argument("--traffic-kbps", type=float, default=366.0)
    p_validate.set_defaults(handler=cmd_validate)

    p_fluid = commands.add_parser(
        "fluid", help="run the fluid network-wide equilibrium model"
    )
    p_fluid.add_argument("--topology", default="arpanet",
                         choices=("arpanet", "milnet"))
    p_fluid.add_argument("--metric", default="hnspf",
                         choices=sorted(METRICS))
    p_fluid.add_argument("--traffic-kbps", type=float, default=366.0)
    p_fluid.add_argument("--scale", type=float, default=1.0)
    p_fluid.add_argument("--rounds", type=int, default=30)
    p_fluid.set_defaults(handler=cmd_fluid)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
