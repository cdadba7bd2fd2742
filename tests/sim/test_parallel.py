"""Tests for parallel scenario execution (:mod:`repro.sim.parallel`).

The contract under test: results depend only on the spec, never on the
pool -- serial and parallel execution of the same specs are identical
-- replication seeds are a pure function of ``(master_seed, k)``, and a
failed run, even one that kills its worker, raises a
:class:`RunFailedError` naming its spec.  ``_poison-exit`` is a
test-only scenario that kills the process building it.
"""

import dataclasses
import pickle

import pytest

from repro.sim import (
    RunFailedError,
    RunSpec,
    ScenarioConfig,
    combined_telemetry,
    replicate,
    replication_seeds,
    run_many,
    run_spec,
)

_QUICK = ScenarioConfig(duration_s=30.0, warmup_s=5.0)


def _asdicts(reports):
    return [dataclasses.asdict(report) for report in reports]


def test_replication_seeds_are_stable_and_independent():
    seeds = replication_seeds(42, 5)
    assert len(seeds) == 5
    assert len(set(seeds)) == 5  # all distinct
    # Pure function of (master_seed, k): recomputing gives the same
    # seeds, and extending the experiment never changes earlier runs.
    assert replication_seeds(42, 5) == seeds
    assert replication_seeds(42, 8)[:5] == seeds
    assert replication_seeds(43, 5) != seeds


def test_replication_seeds_rejects_negative_count():
    with pytest.raises(ValueError):
        replication_seeds(0, -1)


def test_replicate_builds_specs_with_derived_seeds():
    spec = RunSpec("two-region-hnspf", _QUICK)
    specs = replicate(spec, master_seed=7, count=3)
    assert [s.scenario for s in specs] == ["two-region-hnspf"] * 3
    assert [s.config.seed for s in specs] == replication_seeds(7, 3)
    # Everything but the seed is inherited.
    assert all(s.config.duration_s == _QUICK.duration_s for s in specs)


def test_run_many_rejects_nonpositive_processes():
    with pytest.raises(ValueError):
        run_many([], processes=0)


def test_run_many_empty_is_empty():
    assert run_many([]) == []


def test_run_spec_failure_identifies_the_run():
    spec = RunSpec("no-such-scenario", ScenarioConfig(seed=99))
    with pytest.raises(RunFailedError) as excinfo:
        run_spec(spec)
    error = excinfo.value
    assert error.scenario == "no-such-scenario"
    assert error.seed == 99
    assert "no-such-scenario" in str(error)
    assert "seed=99" in str(error)
    # The serial path chains the original exception.
    assert isinstance(error.__cause__, KeyError)


def test_run_failed_error_survives_pickling():
    """Pool workers send exceptions back pickled; the spec must survive."""
    error = RunFailedError("aug87", 7, "ValueError: boom")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, RunFailedError)
    assert (clone.scenario, clone.seed, clone.cause) == \
        (error.scenario, error.seed, error.cause)
    assert str(clone) == str(error)


def test_replay_recipe_rebuilds_the_failing_spec():
    """The recipe carries the whole spec, not just its seed: replaying
    ``ScenarioConfig(seed=4)`` would run a different (120 s) scenario."""
    spec = RunSpec("no-such-scenario", ScenarioConfig(
        duration_s=30.0, warmup_s=5.0, seed=4,
    ))
    with pytest.raises(RunFailedError) as excinfo:
        run_many([spec], processes=1)
    error = excinfo.value
    assert "duration_s=30.0" in str(error)
    assert eval(error.replay, {"RunSpec": RunSpec,
                               "ScenarioConfig": ScenarioConfig}) == spec
    assert str(pickle.loads(pickle.dumps(error))) == str(error)


def test_multiline_cause_survives_pickling_with_traceback():
    """Worker tracebacks reach the parent verbatim through the pool's
    exception pickling (exception *chaining* does not pickle)."""
    cause = (
        "Traceback (most recent call last):\n"
        '  File "x.py", line 1, in f\n'
        "ValueError: boom"
    )
    error = RunFailedError("aug87", 7, cause)
    clone = pickle.loads(pickle.dumps(error))
    assert clone.cause == cause
    assert clone.summary == "ValueError: boom"
    assert "worker traceback" in str(clone)
    assert str(clone) == str(error)


def test_poison_scenarios_are_hidden_from_users():
    from repro.sim.scenarios import scenario_names

    assert all(not name.startswith("_") for name in scenario_names())


def test_run_many_serial_surfaces_the_failing_spec():
    specs = [
        RunSpec("two-region-hnspf", _QUICK),
        RunSpec("no-such-scenario", ScenarioConfig(seed=5)),
    ]
    with pytest.raises(RunFailedError) as excinfo:
        run_many(specs, processes=1)
    assert excinfo.value.scenario == "no-such-scenario"
    assert excinfo.value.seed == 5


def test_combined_telemetry_reduces_a_batch():
    specs = replicate(RunSpec("two-region-hnspf", _QUICK),
                      master_seed=11, count=2)
    reports = run_many(specs, processes=1)
    merged = combined_telemetry(reports)
    assert merged.runs == 2
    assert merged.events_processed == sum(
        report.telemetry.events_processed for report in reports
    )
    assert combined_telemetry([]) is None


@pytest.mark.slow
def test_run_many_pool_surfaces_the_failing_spec():
    specs = [
        RunSpec("two-region-hnspf", _QUICK),
        RunSpec("no-such-scenario", ScenarioConfig(seed=5)),
        RunSpec("two-region-hnspf", _QUICK),
    ]
    with pytest.raises(RunFailedError) as excinfo:
        run_many(specs, processes=2)
    assert excinfo.value.scenario == "no-such-scenario"
    assert excinfo.value.seed == 5


@pytest.mark.slow
def test_reports_carry_telemetry_across_process_boundaries():
    specs = replicate(RunSpec("two-region-hnspf", _QUICK),
                      master_seed=3, count=2)
    reports = run_many(specs, processes=2)
    assert all(report.telemetry is not None for report in reports)
    assert combined_telemetry(reports).runs == 2


@pytest.mark.slow
def test_run_many_parallel_matches_serial():
    specs = replicate(RunSpec("two-region-hnspf", _QUICK),
                      master_seed=3, count=3)
    serial = run_many(specs, processes=1)
    parallel = run_many(specs, processes=2)
    assert _asdicts(serial) == _asdicts(parallel)
    # And each one matches a direct single run of the same spec.
    assert _asdicts(serial) == _asdicts([run_spec(s) for s in specs])
    # Different seeds really produced different runs.
    assert _asdicts(serial)[0] != _asdicts(serial)[1]


@pytest.mark.slow
@pytest.mark.parametrize("position", ["last", "first"])
def test_pool_crash_is_charged_to_the_crashing_spec(position):
    """``os._exit`` kills the worker and breaks the pool; the error
    still names the spec that killed it.  Placed first, the crash has
    good runs in flight beside it, which must not take the blame."""
    good = replicate(RunSpec("two-region-hnspf", _QUICK),
                     master_seed=5, count=3)
    crash = RunSpec("_poison-exit", ScenarioConfig(seed=13))
    specs = good + [crash] if position == "last" else [crash] + good
    with pytest.raises(RunFailedError) as excinfo:
        run_many(specs, processes=2)
    assert excinfo.value.scenario == "_poison-exit"
    assert excinfo.value.seed == 13
    assert "died while running this spec alone" in str(excinfo.value)


@pytest.mark.slow
def test_sweep_goes_on_after_a_crash_that_does_not_recur_alone(monkeypatch):
    """A worker can die for a reason outside its run (say, memory
    pressure from its neighbours).  Stand in for one: the crashing spec
    runs a good scenario when re-run alone.  Every run in flight at the
    crash runs again alone, and the sweep finishes on a fresh pool with
    every report in input order."""
    from repro.sim import parallel

    stand_in = RunSpec("two-region-dspf", _QUICK)
    crash = RunSpec("_poison-exit", ScenarioConfig(seed=13))
    run_alone, alone = parallel._run_alone, []

    def run_alone_recovering(spec):
        alone.append(spec.scenario)
        return run_alone(stand_in if spec == crash else spec)

    monkeypatch.setattr(parallel, "_run_alone", run_alone_recovering)
    good = replicate(RunSpec("two-region-hnspf", _QUICK),
                     master_seed=5, count=4)
    reports = run_many(good[:2] + [crash] + good[2:], processes=2)
    assert "_poison-exit" in alone
    assert _asdicts(reports) == _asdicts(
        [run_spec(s) for s in good[:2] + [stand_in] + good[2:]]
    )
