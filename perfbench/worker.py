"""One measuring process: import, build, warm up, time the window.

Run as ``python perfbench/worker.py '<json spec>'`` by ``run.py``, one at
a time.  In this process:

    clock starts -> import repro.sim -> [install tracing] -> build the
    simulation (set-up ends) -> run(until_s=warm) untimed -> the timed
    window to the end, perf_counter and process_time around it -> RSS ->
    asdict(report) hashed into sim_digest

This box slows down by 5-15% for seconds at a time, all processes alike,
so raw wall time of identical work spreads by a tenth between runs.  A
fixed pure-Python calibration loop is therefore timed about every 0.1 s
of the window (the window is advanced in small steps of simulated time
through the public ``simulation.sim.run(until=)``; the last step is the
program's own ``simulation.run()``), and every segment's wall time is
scaled by reference / measured calibration time.  The scaled figure is
the sample's ``norm_s``: seconds on a machine running steadily at the
reference speed.  Calibration itself is outside every timed segment.

The timed window is deterministic, so it can be sampled more than once
from the same warm state: every sample but the last runs in a forked
copy of this process (one at a time; the parent waits), the last runs
here, which makes ``ru_maxrss`` the peak of a process that did all the
work.  Sharing the warm-up is what lets three samples of a workload
with an 18-second ease-in fit the benchmark's time cap; a forked sample
pays copy-on-write faults, under 1% of a window.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Report fields and properties copied into the result.
REPORT_VALUES = (
    "delivered_packets", "offered_packets", "delivery_ratio",
    "round_trip_delay_ms", "updates_per_trunk_s", "path_ratio",
    "congestion_drops",
)


def sim_digest(report) -> str:
    """SHA-256 over every behavioural indicator of the report."""
    text = json.dumps(dataclasses.asdict(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def counters(telemetry) -> dict:
    """The public numeric attributes of a telemetry block."""
    return {
        name: value for name, value in vars(telemetry).items()
        if not name.startswith("_") and isinstance(value, (int, float))
        and not isinstance(value, bool)
    }


#: The window is advanced in this many steps of simulated time ...
STEPS = 240
#: ... and the calibration loop runs once this much wall has been timed.
CALIBRATE_EVERY_S = 0.1
#: Calibration time on this box when it is quiet: ``norm_s`` equals
#: ``wall_s`` then.  A constant of the benchmark, never re-tuned.
REFERENCE_CALIBRATION_S = 0.0135


class _Cell:
    __slots__ = ("value",)


def calibrate(rounds: int = 20_000) -> float:
    """Seconds for a fixed mix of what the simulator does all day: heap
    pushes and pops of tuples, dict stores, slot writes, float adds."""
    heap: list = []
    table: dict = {}
    cell = _Cell()
    cell.value = 0.0
    push, pop = heapq.heappush, heapq.heappop
    entry = (0.0, 0, cell)
    # The loop allocates, so with the collector on it would now and then
    # pay for a full collection of the simulator's objects (80 ms against
    # its own 13): noise here, and a collection the timed window is spared.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(rounds):
            push(heap, (i * 7919 % 10007 * 0.001, i, cell))
            if i & 1:
                entry = pop(heap)
                entry[2].value += entry[0]
            table[i & 1023] = entry
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def timed_window(simulation, end_s: float) -> tuple:
    """(report, wall seconds, normalised seconds, cpu seconds) of
    running from now to ``end_s``, the configured end."""
    engine = simulation.sim
    start_s = engine.now
    wall_s = norm_s = cpu_s = 0.0
    segment_s = 0.0
    calibrations = [calibrate()]
    report = None
    for step in range(1, STEPS + 1):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if step < STEPS:
            engine.run(until=start_s + (end_s - start_s) * step / STEPS)
        else:
            report = simulation.run()
        segment_s += time.perf_counter() - wall0
        cpu_s += time.process_time() - cpu0
        if segment_s >= CALIBRATE_EVERY_S or step == STEPS:
            calibrations.append(calibrate())
            around = (calibrations[-2] + calibrations[-1]) / 2.0
            wall_s += segment_s
            norm_s += segment_s * REFERENCE_CALIBRATION_S / around
            segment_s = 0.0
    return report, wall_s, norm_s, cpu_s


def take_sample(simulation, end_s: float, layer_trace) -> dict:
    """Time the window from the warm state to its end."""
    before = layer_trace.snapshot() if layer_trace is not None else None
    report, wall_s, norm_s, cpu_s = timed_window(simulation, end_s)
    sample = {
        "wall_s": wall_s,
        "norm_s": norm_s,
        "cpu_s": cpu_s,
        "sim_digest": sim_digest(report),
        "counters": counters(report.telemetry),
        "report": {name: getattr(report, name) for name in REPORT_VALUES},
        "violations": len(getattr(report, "invariant_violations", None) or ()),
    }
    if layer_trace is not None:
        from trace import edges_to_rows

        sample["trace"] = {
            "edges": edges_to_rows(layer_trace.since(before)),
            "missing": layer_trace.missing,
            "incomplete": sorted(layer_trace.incomplete),
            "pending_peak": layer_trace.pending_peak,
        }
    return sample


def forked_sample(*args) -> dict:
    """:func:`take_sample` in a forked copy; this process only waits."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(take_sample(*args))
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"forked sample failed (wait status {status})")
    return json.loads(payload)


def main(argv) -> int:
    spec = json.loads(argv[1])
    started = time.monotonic()
    sys.path.insert(0, SRC)
    import repro.sim  # noqa: F401  (users pay numpy/networkx every run)

    imported = time.monotonic()
    from workloads import WORKLOADS, build_simulation

    layer_trace = None
    if spec.get("trace"):
        from trace import LayerTrace

        layer_trace = LayerTrace().install()
    workload = WORKLOADS[spec["workload"]]
    if spec.get("quick"):
        workload = workload.quick()
    if spec.get("spans"):
        workload = dataclasses.replace(
            workload, warm_s=spec["spans"][0], end_s=spec["spans"][1]
        )
    extra = spec.get("extra")
    try:
        simulation = build_simulation(workload, spec["seed"], extra)
    except (TypeError, ValueError) as error:
        if not extra:
            raise
        # The option under test is gone: not attempted, not a failure.
        print(json.dumps({"skipped": repr(error)}))
        return 0
    built = time.monotonic()
    result = {
        "workload": workload.name,
        "seed": spec["seed"],
        "window_s": workload.window_s,
        # ``spawned`` is the parent's monotonic clock just before it
        # started this process, so set-up includes interpreter start.
        "setup_s": built - spec["spawned"],
        "import_s": imported - started,
        "build_s": built - imported,
    }
    if spec.get("build_only"):
        print(json.dumps(result))
        return 0

    # A cold workload (warm 0) is timed from construction; every counter
    # the window rates use starts at zero then.
    result["warm_wall_s"] = 0.0
    result["warm_counters"] = {}
    if workload.warm_s > 0:
        wall0 = time.perf_counter()
        warm_report = simulation.run(until_s=workload.warm_s)
        result["warm_wall_s"] = time.perf_counter() - wall0
        result["warm_counters"] = counters(warm_report.telemetry)

    samples = []
    target = spec.get("min_samples", 1)
    while len(samples) + 1 < target:
        samples.append(forked_sample(simulation, workload.end_s, layer_trace))
        if len(samples) == 1 and spec.get("seconds"):
            target = max(
                target, math.ceil(spec["seconds"] / samples[0]["wall_s"])
            )
    samples.append(take_sample(simulation, workload.end_s, layer_trace))
    result["samples"] = samples
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
