"""Self-tests of the benchmark: ``python -m pytest perfbench -q``.

Not part of tier-1 (``testpaths`` is ``tests``); they run simulations in
``--quick`` mode and take about a minute.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
from trace import LOOP, LayerTrace, edges_to_rows, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark["paths"] == ["perfbench"]
    assert benchmark["command"] == ["python3", "perfbench/run.py"]

    listed = {w["name"]: w["why"] for w in benchmark["workloads"]}
    assert listed == {name: w.why for name, w in WORKLOADS.items()}
    for name, why in listed.items():
        assert NAME.fullmatch(name) and len(why) <= 200 and "\n" not in why

    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    assert list(end_to_end) == list(metrics.END_TO_END)
    for name, (unit, better, bound) in metrics.END_TO_END.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit)
        assert end_to_end[name] == {
            "name": name, "unit": unit, "better": better, "bound": bound,
        }
        assert 0 < bound <= 0.25
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values()
    )

    per_layer = {m["name"]: m for m in benchmark["per_layer"]}
    assert list(per_layer) == list(metrics.PER_LAYER)
    assert len(per_layer) <= 128
    for name, (unit, better, _moves) in metrics.PER_LAYER.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit)
        assert per_layer[name] == {"name": name, "unit": unit, "better": better}
    for name in list(metrics.PROBES):
        assert NAME.fullmatch(name)


def test_missing_wrap_target_yields_null_not_a_crash():
    tracer = LayerTrace().install(
        targets=(
            ("gone.method", "workloads", "Workload", ("no_such_method",)),
            ("gone.module", "no_such_module", "Thing", ("method",)),
        ),
        receive=None, registrations=(),
    )
    try:
        assert tracer.missing == [
            "workloads.Workload.no_such_method", "no_such_module.Thing.method",
        ]
        assert tracer.incomplete == {"gone.method", "gone.module"}
    finally:
        tracer.uninstall()

    counters = {"events_processed": 10, "events_pending": 1}
    report = dict.fromkeys(
        ("delivered_packets", "offered_packets", "delivery_ratio",
         "round_trip_delay_ms", "updates_per_trunk_s", "path_ratio",
         "congestion_drops"), 1.0,
    )
    sample = {"wall_s": 1.0, "norm_s": 1.0, "cpu_s": 1.0,
              "counters": counters, "report": report}
    untraced = {"window_s": 10.0, "samples": [sample], "warm_counters": {},
                "import_s": 0.1, "build_s": 0.1, "warm_wall_s": 0.0}
    traced_sample = dict(sample, wall_s=2.0, norm_s=2.0, trace={
        "edges": [{"layer": "psn.link", "parent": LOOP, "calls": 5,
                   "self_s": 0.5}],
        "missing": ["repro.routing.spf.SpfTree.recompute"],
        "incomplete": ["routing.spf"], "pending_peak": 3,
    })
    values = metrics.per_layer(
        untraced, dict(untraced, samples=[traced_sample]), drives={}
    )
    assert list(values) == list(metrics.PER_LAYER)
    assert values["routing.spf.self_s_per_sim_s"] is None
    assert values["routing.spf.calls_per_sim_s"] is None
    assert values["psn.link.calls_per_sim_s"] == 0.5
    assert values["des.loop.self_s_per_sim_s"] == pytest.approx(0.15)
    assert values["trace.overhead_ratio"] == 2.0
    # A telemetry counter that no longer exists is null too.
    assert values["routing.spf.nodes_scanned_per_sim_s"] is None
    assert values["drive.des.ns_per_event_1k"] is None


def test_self_time_is_duration_minus_children():
    now = [0.0]
    tracer = LayerTrace(clock=lambda: now[0])

    def spend(seconds):
        now[0] += seconds

    def leaf():
        spend(1.0)

    leaf_a = tracer.wrap(leaf, "a")

    def middle():
        spend(2.0)
        leaf_a()
        spend(3.0)
        leaf_a()

    middle_b = tracer.wrap(middle, "b")

    def top():
        spend(4.0)
        middle_b()
        leaf_a()

    before = tracer.snapshot()
    tracer.wrap(top, "c")()
    assert tracer.since(before) == {
        ("a", "b"): [2, 2.0],
        ("a", "c"): [1, 1.0],
        ("b", "c"): [1, 5.0],
        ("c", LOOP): [1, 4.0],
    }
    totals = layer_totals(edges_to_rows(tracer.edges))
    assert totals == {"a": [3, 3.0], "b": [1, 5.0], "c": [1, 4.0]}
    assert sum(self_s for _, self_s in totals.values()) == now[0]
    assert tracer.since(tracer.snapshot()) == {}

    def fails():
        spend(1.0)
        raise KeyError("kept")

    try:
        tracer.wrap(fails, "d")()
    except KeyError:
        pass
    assert tracer.edges[("d", LOOP)] == [1, 1.0]
    assert not tracer._stack


def test_callbacks_are_attributed_to_their_owners_module():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.des import Simulator

    tracer = LayerTrace().install(targets=(), receive=None)
    try:
        sim = Simulator()
        fired = []
        sim.call_in(1.0, fired.append, "residual")
        assert tracer.callback(fired.append) == fired.append
        sim.run(until=2.0)
        assert fired == ["residual"] and not tracer.edges
    finally:
        tracer.uninstall()
    assert "__wrapped__" not in vars(Simulator.call_in)


def test_seed_changes_the_digest_and_one_seed_repeats():
    def digest(seed):
        worker = run.run_worker("aug87_steady", seed, True, min_samples=2)
        first, second = worker["samples"]
        assert first["sim_digest"] == second["sim_digest"]
        return first["sim_digest"]

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def test_quick_report_is_fast_and_stamped(tmp_path):
    out = tmp_path / "quick.json"
    start = time.monotonic()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--rounds", "1", "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert time.monotonic() - start < 60.0
    report = json.loads(out.read_text())
    assert report["comparable"] is False
    assert set(report["workloads"]) == set(WORKLOADS)
    for entry in report["workloads"].values():
        assert entry["failed"] == 0 and entry["attempted"] > 0
        assert list(entry["end_to_end"]) == list(metrics.END_TO_END)
        assert list(entry["per_layer"]) == list(metrics.PER_LAYER)
