"""Tests for the top-level CLI (python -m repro)."""

import json
import pathlib

import pytest

from repro.__main__ import main
from tests.test_import_hygiene import run_python


def test_topology_command(capsys):
    assert main(["topology", "arpanet"]) == 0
    out = capsys.readouterr().out
    assert "arpanet-1987" in out
    assert "56K-T" in out
    assert "trunking mix" in out


def test_topology_milnet(capsys):
    assert main(["topology", "milnet"]) == 0
    out = capsys.readouterr().out
    assert "milnet-1987" in out


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["topology", "arpanet"],
    ["simulate", "--scenario", "two-region-hnspf", "--duration", "20"],
])
def test_cold_start_imports_neither_numpy_nor_networkx(argv):
    """Only ``experiment`` / ``validate`` / ``fluid`` reach the analysis
    layer; the other commands must not pay its imports."""
    code = (
        "import sys\n"
        "from repro.__main__ import main\n"
        "try:\n"
        f"    status = main({argv!r})\n"
        "except SystemExit as stop:\n"
        "    status = stop.code\n"
        "loaded = [m for m in ('numpy', 'networkx') if m in sys.modules]\n"
        "print('status', status, 'loaded', loaded)\n"
    )
    assert run_python(code).strip().splitlines()[-1] == "status 0 loaded []"


def test_unknown_topology_rejected():
    with pytest.raises(SystemExit):
        main(["topology", "bitnet"])


def test_experiment_command(capsys):
    # One runner: python -m repro experiment accepts every argument of
    # python -m repro.experiments.
    assert main(["experiment", "fig5", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "[fig5 completed in" in out


def test_fluid_command(capsys):
    assert main([
        "fluid", "--topology", "milnet", "--metric", "hnspf",
        "--traffic-kbps", "60", "--rounds", "8",
    ]) == 0
    out = capsys.readouterr().out
    assert "fluid model" in out
    assert "settled" in out


@pytest.mark.slow
def test_simulate_command(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    assert main([
        "simulate", "--topology", "milnet", "--metric", "minhop",
        "--traffic-kbps", "40", "--duration", "60",
        "--csv", str(csv_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Min-Hop" in out
    assert csv_path.exists()


def test_simulate_with_observability_flags(capsys, tmp_path):
    trace_path = tmp_path / "run.jsonl"
    assert main([
        "simulate", "--scenario", "two-region-dspf",
        "--duration", "20", "--trace", str(trace_path),
        "--telemetry",
    ]) == 0
    out = capsys.readouterr().out
    assert "run telemetry" in out
    assert "events_processed" in out
    assert trace_path.exists()

    from repro.report import cost_timeseries, read_trace

    events = read_trace(str(trace_path))
    assert events
    assert cost_timeseries(events)


def test_simulate_writes_chrome_trace_and_metrics(tmp_path):
    chrome_path = tmp_path / "trace.chrome.json"
    metrics_path = tmp_path / "metrics.jsonl"
    prom_path = tmp_path / "metrics.prom"
    assert main([
        "simulate", "--scenario", "two-region-dspf", "--duration", "20",
        "--chrome-trace", str(chrome_path),
        "--metrics-out", str(metrics_path),
        "--metrics-prom", str(prom_path),
    ]) == 0
    assert json.loads(chrome_path.read_text())["traceEvents"]
    snapshots = metrics_path.read_text().splitlines()
    assert snapshots
    assert all(isinstance(json.loads(line), dict) for line in snapshots)
    assert "# TYPE " in prom_path.read_text()


def test_simulate_with_fault_plan_and_invariants(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        '{"events": ['
        '{"at_s": 15.0, "action": "fail-circuit", "link_id": 24},'
        '{"at_s": 25.0, "action": "restore-circuit", "link_id": 24}]}'
    )
    assert main([
        "simulate", "--scenario", "two-region-hnspf",
        "--duration", "40", "--faults", str(plan_path),
        "--check-invariants", "--resilience-summary",
    ]) == 0
    out = capsys.readouterr().out
    assert "resilience summary" in out
    assert '"fault_count": 2' in out
    assert "invariants: all checks passed" in out


def test_resilience_summary_without_faults_notes_the_gap(capsys):
    assert main([
        "simulate", "--scenario", "two-region-dspf",
        "--duration", "20", "--resilience-summary",
    ]) == 0
    out = capsys.readouterr().out
    assert "no resilience summary" in out


def test_simulate_1969_with_telemetry_and_trace(capsys, tmp_path):
    trace_path = tmp_path / "bf.jsonl"
    assert main([
        "simulate", "--scenario", "arpanet-1969", "--duration", "20",
        "--telemetry", "--trace", str(trace_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "BF-1969" in out
    assert "run telemetry" in out
    from repro.report import read_trace

    assert read_trace(str(trace_path))


def test_simulate_1969_with_fault_plan(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(
        '{"events": ['
        '{"at_s": 8.0, "action": "fail-circuit", "link_id": 0},'
        '{"at_s": 14.0, "action": "restore-circuit", "link_id": 0}]}'
    )
    assert main([
        "simulate", "--scenario", "arpanet-1969", "--duration", "20",
        "--faults", str(plan_path), "--resilience-summary",
    ]) == 0
    out = capsys.readouterr().out
    assert "resilience summary" in out
    assert '"fault_count": 2' in out


_CORRUPT_UPDATE_PLAN = str(
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "faultplans" / "corrupt-update.json"
)


@pytest.mark.parametrize("flags,field", [
    (["--defenses"], "defenses"),
    (["--faults", _CORRUPT_UPDATE_PLAN], "faults"),
    (["--multipath", "packet"], "multipath"),
])
def test_simulate_1969_refuses_spf_only_flags(capsys, flags, field):
    assert main([
        "simulate", "--scenario", "arpanet-1969", "--duration", "20",
        *flags,
    ]) != 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert f"{field}: BF-1969" in err[0]


def test_simulate_1969_check_invariants_reports_loops(capsys):
    """The monitor runs on the 1969 generation, and its persistent
    loops are violations: the run exits 1 and lists them."""
    assert main([
        "simulate", "--scenario", "arpanet-1969", "--duration", "20",
        "--seed", "1", "--check-invariants",
    ]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[0].endswith("invariant violation(s):")
    assert err[1:] and all("routing-loop" in line for line in err[1:])


def test_example_fault_plan_is_loadable():
    from repro.faults import load_fault_plan

    path = (pathlib.Path(__file__).resolve().parent.parent
            / "examples" / "faultplans" / "stochastic-flap.json")
    plan = load_fault_plan(str(path))
    assert plan.events and plan.flaps


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])
