"""Smoke tests: every example script must run to completion.

The examples are part of the public deliverable; if an API change breaks
one, this is where it shows up.  They run as real subprocesses, exactly
as a user would invoke them.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def example_env():
    """Subprocess environment with ``src`` importable.

    The test process finds ``repro`` via its own PYTHONPATH (or an
    installed package), but the example subprocess starts fresh, so the
    source tree must be injected explicitly.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not current else os.pathsep.join(
        [src, current]
    )
    return env


def run_example(name, timeout=600, cwd=EXAMPLES_DIR):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=cwd,
        env=example_env(),
    )


def test_examples_directory_is_complete():
    assert "quickstart.py" in ALL_EXAMPLES
    assert len(ALL_EXAMPLES) >= 6


def test_quickstart_runs():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "Quickstart" in result.stdout
    assert "delivery ratio" in result.stdout


def test_legacy_bellman_ford_runs():
    result = run_example("legacy_bellman_ford.py")
    assert result.returncode == 0, result.stderr
    assert "forwarding loop toward node 2? True" in result.stdout


def test_metric_tuning_runs():
    result = run_example("metric_tuning.py")
    assert result.returncode == 0, result.stderr
    assert "Equilibrium utilization" in result.stdout


@pytest.mark.slow
def test_oscillation_demo_runs():
    result = run_example("oscillation_demo.py")
    assert result.returncode == 0, result.stderr
    assert "D-SPF" in result.stdout and "HN-SPF" in result.stdout


@pytest.mark.slow
def test_link_failure_recovery_runs():
    result = run_example("link_failure_recovery.py")
    assert result.returncode == 0, result.stderr
    assert "DOWN advertisement" in result.stdout
    assert "ease-in" in result.stdout


@pytest.mark.slow
def test_milnet_sweep_runs():
    result = run_example("milnet_sweep.py")
    assert result.returncode == 0, result.stderr
    assert "runs 3/3 done" in result.stdout
    assert "acks," in result.stdout
    assert "all rungs completed" in result.stdout


@pytest.mark.slow
def test_capacity_planning_runs(tmp_path):
    # the script writes capacity_sweep.csv to cwd
    result = run_example("capacity_planning.py", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "capacity_sweep.csv").exists()
