"""Tests for :func:`run_many`'s graceful-degradation features.

The acceptance story: a sweep poisoned with one doomed spec still
returns every other report in ``on_error="collect"`` mode, still raises
a :class:`RunFailedError` naming the guilty spec by default, survives
worker *crashes* (not just exceptions), and abandons hung runs under a
``timeout_s`` budget.  The ``_poison-*`` scenarios are test-only
builders that fail deterministically, kill their process, or hang.
"""

import dataclasses
import os
import pickle

import pytest

from repro.sim import (
    BatchResult,
    RunFailedError,
    RunFailure,
    RunSpec,
    ScenarioConfig,
    run_many,
    run_spec,
)

_GOOD = [
    RunSpec("two-region-hnspf", ScenarioConfig(
        duration_s=30.0, warmup_s=5.0, seed=seed,
    ))
    for seed in (1, 2, 3)
]


def _asdicts(reports):
    return [dataclasses.asdict(report) for report in reports]


def test_poison_scenarios_are_hidden_from_users():
    from repro.sim.scenarios import scenario_names

    assert all(not name.startswith("_") for name in scenario_names())


def test_collect_mode_returns_partial_results_serially():
    specs = _GOOD[:2] + [RunSpec("_poison-fail", ScenarioConfig(seed=77))]
    batch = run_many(specs, processes=1, on_error="collect")
    assert isinstance(batch, BatchResult)
    assert not batch.ok
    assert len(batch.reports) == 2
    assert batch.results[2] is None  # slot-aligned with the inputs
    [failure] = batch.failures
    assert isinstance(failure, RunFailure)
    assert (failure.index, failure.scenario, failure.seed) == \
        (2, "_poison-fail", 77)
    assert failure.attempts == 1
    assert "poison scenario" in failure.error
    assert "Traceback" in failure.traceback  # full worker traceback kept
    with pytest.raises(RunFailedError):
        batch.raise_first()


def test_collect_mode_failure_record_round_trips():
    batch = run_many(
        [_GOOD[0], RunSpec("_poison-fail", ScenarioConfig(seed=4))],
        processes=1, on_error="collect",
    )
    [failure] = batch.failures
    record = failure.to_dict()
    assert record["scenario"] == "_poison-fail"
    assert record["seed"] == 4
    error = failure.to_error()
    assert error.scenario == "_poison-fail"
    assert "seed=4" in str(error)


def test_clean_collect_batch_matches_raise_mode():
    specs = _GOOD[:2]
    batch = run_many(specs, processes=1, on_error="collect")
    assert batch.ok
    batch.raise_first()  # no-op on a clean batch
    assert _asdicts(batch.reports) == \
        _asdicts(run_many(specs, processes=1))


def test_run_many_validates_resilience_arguments():
    with pytest.raises(ValueError, match="on_error"):
        run_many([], on_error="ignore")
    with pytest.raises(ValueError, match="retries"):
        run_many([], retries=-1)
    with pytest.raises(ValueError, match="timeout"):
        run_many([], timeout_s=0.0)


def test_replay_recipe_rebuilds_the_failing_spec():
    """The recipe carries the whole spec, not just its seed: replaying
    ``ScenarioConfig(seed=4)`` would run a different (120 s) scenario."""
    spec = RunSpec("_poison-fail", ScenarioConfig(
        duration_s=30.0, warmup_s=5.0, seed=4,
    ))
    with pytest.raises(RunFailedError) as excinfo:
        run_many([spec], processes=1)
    error = excinfo.value
    assert "duration_s=30.0" in str(error)
    assert eval(error.replay, {"RunSpec": RunSpec,
                               "ScenarioConfig": ScenarioConfig}) == spec
    assert str(pickle.loads(pickle.dumps(error))) == str(error)
    [failure] = run_many([spec], processes=1, on_error="collect").failures
    assert str(failure.to_error()) == str(error)


@pytest.mark.slow
def test_pool_retries_record_their_backoff_schedule(monkeypatch):
    """End to end: a crash-then-retry sweep sleeps exactly the
    documented exponential schedule through the ``_sleep`` hook (the
    monkeypatched sleep keeps the test fast)."""
    from repro.sim import parallel

    slept = []
    monkeypatch.setattr(parallel, "_sleep", slept.append)
    specs = [_GOOD[0], RunSpec("_poison-exit", ScenarioConfig(seed=5))]
    batch = run_many(
        specs, processes=2, on_error="collect",
        retries=2, retry_backoff_s=0.25,
    )
    [failure] = batch.failures
    assert failure.attempts == 3
    assert slept == [0.25, 0.5]


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


def test_worker_trace_dir_naming(tmp_path):
    """Directory traces are named ``trace-<scenario>-<seed>.jsonl``.

    The scenario rides in the name because mixed-scenario sweeps
    legitimately share seeds; naming by seed alone overwrote traces.
    """
    trace_dir = str(tmp_path / "traces")
    specs = [
        RunSpec("two-region-hnspf", ScenarioConfig(
            duration_s=20.0, warmup_s=5.0, seed=seed,
            trace=trace_dir + os.sep,
        ))
        for seed in (6, 7)
    ]
    run_many(specs, processes=1)
    assert sorted(os.listdir(trace_dir)) == [
        "trace-two-region-hnspf-6.jsonl",
        "trace-two-region-hnspf-7.jsonl",
    ]
    # An existing directory works without the trailing separator too.
    spec = RunSpec("two-region-hnspf", ScenarioConfig(
        duration_s=20.0, warmup_s=5.0, seed=8, trace=trace_dir,
    ))
    run_spec(spec)
    assert "trace-two-region-hnspf-8.jsonl" in os.listdir(trace_dir)
    # A plain file path still lands exactly where it was pointed.
    file_path = str(tmp_path / "one.jsonl")
    run_spec(RunSpec("two-region-hnspf", ScenarioConfig(
        duration_s=20.0, warmup_s=5.0, seed=9, trace=file_path,
    )))
    assert os.path.exists(file_path)


def test_worker_trace_dir_distinguishes_scenarios_sharing_a_seed(tmp_path):
    """Two scenarios under one seed no longer overwrite each other."""
    trace_dir = str(tmp_path / "traces")
    for scenario in ("two-region-hnspf", "two-region-dspf"):
        run_spec(RunSpec(scenario, ScenarioConfig(
            duration_s=20.0, warmup_s=5.0, seed=5,
            trace=trace_dir + os.sep,
        )))
    assert sorted(os.listdir(trace_dir)) == [
        "trace-two-region-dspf-5.jsonl",
        "trace-two-region-hnspf-5.jsonl",
    ]


def test_worker_trace_dir_dedups_exact_duplicate_specs(tmp_path):
    """Exact spec duplicates get a dedup counter instead of colliding."""
    trace_dir = str(tmp_path / "traces")
    spec = RunSpec("two-region-hnspf", ScenarioConfig(
        duration_s=20.0, warmup_s=5.0, seed=4, trace=trace_dir + os.sep,
    ))
    for _ in range(3):
        run_spec(spec)
    names = sorted(os.listdir(trace_dir))
    assert names == [
        "trace-two-region-hnspf-4-2.jsonl",
        "trace-two-region-hnspf-4-3.jsonl",
        "trace-two-region-hnspf-4.jsonl",
    ]
    # Every claimed file holds a real trace (the exclusive-create claim
    # is then truncated and written by the run's JSONL sink).
    for name in names:
        assert os.path.getsize(os.path.join(trace_dir, name)) > 0


@pytest.mark.slow
def test_pool_collect_mode_returns_partial_results():
    specs = _GOOD + [RunSpec("_poison-fail", ScenarioConfig(seed=77))]
    batch = run_many(specs, processes=2, on_error="collect")
    assert len(batch.reports) == 3
    [failure] = batch.failures
    assert (failure.scenario, failure.seed) == ("_poison-fail", 77)
    assert "Traceback" in failure.traceback
    # The completed runs match their serial equivalents exactly.
    assert _asdicts(batch.reports) == \
        _asdicts(run_many(_GOOD, processes=1))


@pytest.mark.slow
def test_pool_crash_is_attributed_in_collect_mode():
    """``os._exit`` kills the worker; collect mode still finishes."""
    specs = _GOOD + [RunSpec("_poison-exit", ScenarioConfig(seed=13))]
    batch = run_many(specs, processes=2, on_error="collect")
    assert len(batch.reports) == 3
    [failure] = batch.failures
    assert (failure.scenario, failure.seed) == ("_poison-exit", 13)
    assert failure.attempts == 1


@pytest.mark.slow
def test_pool_crash_raises_run_failed_error_by_default():
    """A dead worker must be translated into a RunFailedError naming
    the spec, not a bare pool traceback."""
    specs = _GOOD + [RunSpec("_poison-exit", ScenarioConfig(seed=13))]
    with pytest.raises(RunFailedError) as excinfo:
        run_many(specs, processes=2)
    assert excinfo.value.scenario == "_poison-exit"
    assert excinfo.value.seed == 13


@pytest.mark.slow
def test_retries_re_execute_transient_failures(monkeypatch):
    """A crashing spec is retried ``retries`` times before finalizing;
    a zero backoff never touches the sleep hook."""
    from repro.sim import parallel

    slept = []
    monkeypatch.setattr(parallel, "_sleep", slept.append)
    specs = [_GOOD[0], RunSpec("_poison-exit", ScenarioConfig(seed=5))]
    batch = run_many(
        specs, processes=2, on_error="collect",
        retries=1, retry_backoff_s=0.0,
    )
    [failure] = batch.failures
    assert failure.attempts == 2
    assert len(batch.reports) == 1
    assert slept == []


@pytest.mark.slow
def test_deterministic_failures_are_never_retried():
    specs = [_GOOD[0], RunSpec("_poison-fail", ScenarioConfig(seed=5))]
    batch = run_many(
        specs, processes=2, on_error="collect",
        retries=3, retry_backoff_s=0.0,
    )
    [failure] = batch.failures
    assert failure.attempts == 1  # an in-run exception is final


@pytest.mark.slow
def test_timeout_abandons_hung_runs():
    specs = _GOOD[:2] + [RunSpec("_poison-hang", ScenarioConfig(seed=3))]
    batch = run_many(
        specs, processes=2, on_error="collect", timeout_s=3.0,
    )
    assert len(batch.reports) == 2
    [failure] = batch.failures
    assert failure.scenario == "_poison-hang"
    assert "TimeoutError" in failure.error


@pytest.mark.slow
def test_good_run_queued_behind_hung_runs_is_not_blamed():
    """The budget counts from submission and only ``processes`` runs
    are in flight, so a good run waiting for a worker behind two hung
    ones never inherits their timeout."""
    hung = [RunSpec("_poison-hang", ScenarioConfig(seed=seed))
            for seed in (1, 2)]
    batch = run_many(
        hung + [_GOOD[0]], processes=2, on_error="collect", timeout_s=3.0,
    )
    assert batch.results[2] is not None
    assert [failure.index for failure in batch.failures] == [0, 1]
    assert all("TimeoutError" in failure.error
               for failure in batch.failures)
