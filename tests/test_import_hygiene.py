"""A default run pays for neither numpy nor networkx.

Both stay declared dependencies -- the analysis layer, the metrics'
array API and ``Network.to_networkx()`` use them -- but a packet-level
simulation never enters any of those, and every sweep of short runs
would pay their ~0.27 s of import in each fresh process.  Fresh
subprocesses, because this test process has long since imported both.
"""

import subprocess
import sys

from tests.test_examples import example_env


def run_python(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=300, env=example_env(),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_default_run_imports_neither_numpy_nor_networkx():
    out = run_python(
        "import sys\n"
        "import repro.sim\n"
        "from repro.sim import ScenarioConfig, build_scenario\n"
        "for name in ('aug87', 'rand256'):\n"
        "    config = ScenarioConfig(duration_s=2.0, warmup_s=0.5, seed=3)\n"
        "    report = build_scenario(name, config=config).run()\n"
        "    assert report.offered_packets > 0, name\n"
        "    str(report)\n"
        "print(sorted(m for m in ('numpy', 'networkx') if m in sys.modules))\n"
    )
    assert out.strip() == "[]"


def test_optional_subsystems_load_on_first_use():
    """The lazily exported names resolve, and only then load their home."""
    out = run_python(
        "import sys\n"
        "import repro.sim, repro.obs, repro.experiments\n"
        "lazy = ('repro.sim.parallel', 'repro.obs.meters', 'repro.obs.spans',\n"
        "        'repro.experiments.base', 'repro.faults', 'multiprocessing')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "for package in (repro.sim, repro.obs, repro.experiments):\n"
        "    for name in package.__all__:\n"
        "        assert getattr(package, name) is not None, name\n"
        "from repro.sim import run_many\n"
        "from repro.obs import build_update_spans, SimulationMeters\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "try:\n"
        "    repro.sim.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    before, after, error = out.strip().splitlines()
    assert before == "[]"
    assert after == str(sorted([
        "repro.sim.parallel", "repro.obs.meters", "repro.obs.spans",
        "repro.experiments.base", "multiprocessing",
    ]))
    assert error == "module 'repro.sim' has no attribute 'no_such_name'"


def test_array_api_loads_numpy_on_entry():
    """One array entry point per metric, called cold."""
    out = run_python(
        "import sys\n"
        "from repro.metrics import (DelayMetric, HopNormalizedMetric,\n"
        "                           MinHopMetric)\n"
        "from repro.metrics.queueing import delay_to_utilization_array\n"
        "from repro.topology import build_ring_network\n"
        "links = build_ring_network(4).links\n"
        "assert 'numpy' not in sys.modules\n"
        "for metric in (DelayMetric(), HopNormalizedMetric(), MinHopMetric()):\n"
        "    state = metric.create_vector_state(links)\n"
        "    costs = metric.measured_costs(state, [0.02] * len(links))\n"
        "    curve = metric.cost_at_utilization_array(links[0], [0.0, 0.9])\n"
        "    print(type(costs).__name__, costs.shape,\n"
        "          type(curve).__name__, curve.shape)\n"
        "print(type(delay_to_utilization_array([0.02], [56000.0])).__name__)\n"
        "print('numpy' in sys.modules, 'networkx' in sys.modules)\n"
    )
    lines = out.strip().splitlines()
    assert lines[:3] == ["ndarray (8,) ndarray (2,)"] * 3
    assert lines[3:] == ["ndarray", "True False"]
