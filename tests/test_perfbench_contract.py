"""What the frozen benchmark resolves by name must keep resolving.

``perfbench/trace.py`` wraps each layer's entry points by looking them
up *by name* in their class's own ``__dict__``, and ``perfbench``'s
counter metrics read numeric attributes off the run's telemetry block.
A target that stops resolving does not fail the benchmark -- its rows in
``BENCHMARK.json`` silently become ``null`` at the next measurement --
so the names are held here, where a refactor fails ``pytest -x -q``.
"""

import importlib
import importlib.util
import pathlib

from repro.metrics import HopNormalizedMetric
from repro.sim import NetworkSimulation, ScenarioConfig
from repro.topology import build_ring_network
from repro.traffic import TrafficMatrix

_TRACE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
)


def _load_trace_module():
    # By file path under a private name: the module imports nothing from
    # the repository, and on sys.path it would shadow the standard
    # library's ``trace``.
    spec = importlib.util.spec_from_file_location(
        "_perfbench_trace", _TRACE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    trace = _load_trace_module()
    targets = [
        (module, cls, method)
        for _layer, module, cls, methods in trace.TARGETS
        for method in methods
    ]
    targets.append(tuple(trace.RECEIVE))
    targets.extend(
        (module, cls, method)
        for module, cls, method, _position in trace.REGISTRATIONS
    )
    missing = [
        f"{module}.{cls}.{method}"
        for module, cls, method in targets
        if method not in getattr(
            importlib.import_module(module), cls
        ).__dict__
    ]
    assert missing == []


#: Telemetry counters ``perfbench/metrics.py`` turns into benchmark rows.
_COUNTERS = (
    "events_processed", "events_pending", "data_packets_sent",
    "control_packets_sent", "transmitter_drops", "spf_incremental_updates",
    "spf_batched_passes", "spf_nodes_scanned", "cache_table_hits",
    "cache_table_misses", "flood_generated", "flood_accepted",
    "flood_duplicates", "updates_retransmitted",
)


def test_telemetry_counters_are_plain_numbers():
    network = build_ring_network(4)
    report = NetworkSimulation(
        network, HopNormalizedMetric(),
        TrafficMatrix.uniform(network, total_bps=20_000.0),
        ScenarioConfig(duration_s=20.0, warmup_s=5.0),
    ).run()
    values = vars(report.telemetry)
    for name in _COUNTERS:
        assert isinstance(values[name], (int, float)), name
        assert not isinstance(values[name], bool), name
