"""Parallel execution of independent simulation runs.

The paper's performance study -- and any Monte-Carlo use of this repo --
needs many *independent* replications: the same scenario under different
seeds, or different scenarios side by side.  Each run is a separate
process-sized unit of work (one :class:`~repro.des.engine.Simulator`,
one network), so the natural speedup is process-level fan-out.

:func:`run_many` executes a list of :class:`RunSpec` across a process
pool and returns their :class:`~repro.sim.stats.SimulationReport` in
input order.  Determinism is preserved in both senses:

* each run's result depends only on its spec (scenario + config), never
  on scheduling, pool size, or which worker picked it up;
* :func:`replication_seeds` derives per-replication master seeds from a
  single experiment seed through the same SHA-256 construction
  :class:`~repro.des.random_streams.RandomStreams` uses for named
  streams, so replication *k* of an experiment is the same run no matter
  how many replications surround it.

**Graceful degradation.**  A thousand-replication sweep should not be
discarded because one worker died.  ``run_many`` is one
submit-and-collect loop with at most ``processes`` runs in flight; it
can collect failures as :class:`RunFailure` records instead of raising,
abandon a run past its wall-clock budget, and retry *transient* losses
(a timeout, a crashed worker) with exponential backoff.  Because runs
are deterministic, re-executing one is safe: a completed retry returns
exactly the report the first attempt would have produced.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.des.random_streams import RandomStreams
from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.sim.network_sim import ScenarioConfig
from repro.sim.scenarios import build_scenario
from repro.sim.stats import SimulationReport

#: Backoff sleep hook.  Indirection point only: tests monkeypatch this
#: to observe the (fully deterministic) retry schedule without waiting
#: it out in wall-clock time.
_sleep = time.sleep


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run: a named scenario plus its config.

    Specs are plain picklable data -- the scenario is rebuilt inside the
    worker process -- so a spec is also a complete, storable description
    of how to reproduce the run.
    """

    scenario: str
    config: ScenarioConfig = field(default_factory=ScenarioConfig)

    def with_seed(self, seed: int) -> "RunSpec":
        """This spec with a different master seed (a replication)."""
        return RunSpec(self.scenario, replace(self.config, seed=seed))


class RunFailedError(RuntimeError):
    """One :class:`RunSpec` failed; says *which* one.

    A bare pool traceback names the exception but not the run, which for
    a 100-replication sweep is useless -- the whole point of
    deterministic specs is that the failing run can be replayed alone.
    This wrapper carries the scenario name and seed, and ``replay`` --
    the failing spec as a Python expression (its ``repr``, so every
    config field rides along) -- so the message is a reproduction
    recipe.  It survives the trip back from a worker process
    (``__reduce__`` below: exceptions raised in a pool are pickled to
    the parent, and the default reduction would drop our extra
    constructor arguments).  Without ``replay`` the recipe names only
    the scenario and seed.

    ``cause`` is the failure rendered as text.  On the worker side it is
    the *full* ``traceback.format_exception`` output, so the original
    multi-line traceback survives the pickle round-trip verbatim
    (exception chaining itself does not pickle); :attr:`summary` is its
    last line (``TypeName: message``), and the full text is appended to
    the message only when there is more than the summary to show.
    """

    def __init__(
        self, scenario: str, seed: int, cause: str,
        replay: Optional[str] = None,
    ) -> None:
        if replay is None:
            replay = f"RunSpec({scenario!r}, ScenarioConfig(seed={seed}))"
        summary = cause.strip().rsplit("\n", 1)[-1].strip()
        message = (
            f"run failed: scenario={scenario!r} seed={seed} -- {summary}; "
            f"replay with run_spec({replay})"
        )
        if summary != cause.strip():
            message += f"\n--- worker traceback ---\n{cause.rstrip()}"
        super().__init__(message)
        self.scenario = scenario
        self.seed = seed
        self.cause = cause
        self.replay = replay

    @property
    def summary(self) -> str:
        """The last line of the cause (``TypeName: message``)."""
        return self.cause.strip().rsplit("\n", 1)[-1].strip()

    def __reduce__(self):
        return (RunFailedError,
                (self.scenario, self.seed, self.cause, self.replay))


@dataclass(frozen=True)
class RunFailure:
    """Structured record of one run that could not complete.

    Collected by ``run_many(..., on_error="collect")`` instead of
    raising.  ``traceback`` preserves the worker's full traceback text
    (or a one-line description for timeouts and pool crashes, where no
    Python traceback exists); ``attempts`` counts executions including
    retries; ``replay`` is the spec's reproduction expression (see
    :class:`RunFailedError`).
    """

    index: int
    scenario: str
    seed: int
    error: str
    traceback: str
    attempts: int
    replay: str

    def to_error(self) -> RunFailedError:
        """The failure as the exception ``on_error="raise"`` would raise."""
        return RunFailedError(
            self.scenario, self.seed, self.traceback, self.replay
        )

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "scenario": self.scenario,
            "seed": self.seed,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "replay": self.replay,
        }


@dataclass
class BatchResult:
    """Everything a partial-results ``run_many`` sweep produced.

    ``results`` is slot-aligned with the input specs (``None`` where the
    run failed); ``failures`` holds one :class:`RunFailure` per failed
    slot.  ``reports`` flattens the completed runs in input order --
    with no failures it equals what ``on_error="raise"`` returns.
    """

    results: List[Optional[SimulationReport]]
    failures: List[RunFailure]

    @property
    def reports(self) -> List[SimulationReport]:
        return [report for report in self.results if report is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_first(self) -> None:
        """Re-raise the first failure (no-op when everything completed)."""
        if self.failures:
            raise self.failures[0].to_error()


def _resolve_trace_dir(
    config: ScenarioConfig, scenario: str
) -> ScenarioConfig:
    """Apply the worker-side trace naming convention.

    When a spec's ``trace`` names a *directory* (an existing one, or a
    path spelled with a trailing separator), the run writes
    ``trace-<scenario>-<seed>.jsonl`` under it.  Fleet runs can then
    point every replication at one directory and get per-run trace
    files without hand-assigned names.  The scenario rides in the name
    because mixed-scenario sweeps legitimately share seeds -- naming by
    seed alone silently overwrote one scenario's trace with another's.
    Exact spec duplicates (same scenario *and* seed) get a dedup
    counter (``...-2.jsonl``, ``...-3.jsonl``): each worker claims its
    file with an atomic exclusive create, so concurrent duplicates
    never collide either.  File paths and the ``"memory"`` /
    ``"null"`` specs pass through untouched.
    """
    trace = config.trace
    if not isinstance(trace, str) or trace in ("memory", "null"):
        return config
    if trace.endswith(os.sep) or trace.endswith("/") or os.path.isdir(trace):
        os.makedirs(trace, exist_ok=True)
        base = f"trace-{scenario}-{config.seed}"
        copy = 1
        while True:
            name = base if copy == 1 else f"{base}-{copy}"
            path = os.path.join(trace, f"{name}.jsonl")
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                copy += 1
                continue
            os.close(handle)
            return replace(config, trace=path)
    return config


def run_spec(spec: RunSpec) -> SimulationReport:
    """Build and run one spec to completion (the worker-side function).

    Any failure is re-raised as :class:`RunFailedError` identifying the
    spec, chained to the original exception (visible when the run
    executes in this process; chaining doesn't survive the pool's pickle
    round-trip, so the full traceback text also rides in ``cause``).
    """
    try:
        config = _resolve_trace_dir(spec.config, spec.scenario)
        simulation = build_scenario(spec.scenario, config=config)
        return simulation.run()
    except Exception as exc:
        raise RunFailedError(
            spec.scenario,
            spec.config.seed,
            "".join(traceback.format_exception(type(exc), exc,
                                               exc.__traceback__)).rstrip(),
            repr(spec),
        ) from exc


def replication_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` independent master seeds derived from ``master_seed``.

    Uses :class:`RandomStreams`' named-stream derivation (SHA-256 over
    ``"<master_seed>:replication-<k>"``), so seed *k* is a pure function
    of ``(master_seed, k)``: extending an experiment from 10 to 100
    replications never changes the first 10 runs.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    streams = RandomStreams(master_seed)
    return [
        random.Random(streams.seed(f"replication-{k}")).getrandbits(48)
        for k in range(count)
    ]


def replicate(spec: RunSpec, master_seed: int, count: int) -> List[RunSpec]:
    """``count`` replications of ``spec`` under derived seeds."""
    return [
        spec.with_seed(seed)
        for seed in replication_seeds(master_seed, count)
    ]


def run_many(
    specs: Sequence[RunSpec],
    processes: Optional[int] = None,
    on_error: str = "raise",
    timeout_s: Optional[float] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.5,
) -> Union[List[SimulationReport], BatchResult]:
    """Run every spec, fanning out across worker processes.

    Parameters
    ----------
    specs:
        The runs to execute.  Results come back in input order.
    processes:
        Most runs in flight at once, which is also the pool size;
        ``None`` uses one per CPU (``os.cpu_count()``).  Never more than
        there are specs.  ``processes == 1`` (or fewer than two specs)
        runs each spec in this process, through the same loop -- same
        results, no pool -- so callers can always use :func:`run_many`
        and tune ``processes`` freely.
    on_error:
        ``"raise"`` (default): raise the first final
        :class:`RunFailedError`, returning a plain report list on
        success -- the historical fail-fast contract.  ``"collect"``:
        never raise for a failed run; return a :class:`BatchResult` with
        every completed report plus structured :class:`RunFailure`
        records.
    timeout_s:
        Per-run wall-clock budget, counted from submission.  A run is
        submitted only when a worker is free for it, so the budget is
        the run's own.  A run past it is a transient loss: the pool is
        recycled (a hung worker cannot be cancelled, only abandoned),
        the other runs in flight are resubmitted without charge, and
        the late run is retried or recorded.  Not enforced with
        ``processes == 1``: nothing can preempt a run in this process.
    retries:
        Extra executions granted to transiently lost runs (a timeout, or
        a worker crash attributed to the run).  In-run exceptions are
        never retried -- the same spec fails the same way.
    retry_backoff_s:
        Sleep before a run's *k*-th retry is
        ``retry_backoff_s * 2**(k-1)`` (exponential backoff, first
        retry waits one unit).

    A crashed worker breaks the whole pool, and the pool cannot say
    which run killed it.  Every run in flight then becomes a *suspect*:
    it is resubmitted without charging an attempt, suspects run one at a
    time, and parallelism resumes once each has run alone.  A crash is
    therefore only ever charged to a run that was alone on the pool.
    """
    specs = list(specs)
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect': {on_error!r}"
        )
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout must be positive: {timeout_s}")
    if processes is None:
        processes = os.cpu_count() or 1
    processes = max(1, min(processes, len(specs)))
    budget_s = math.inf if timeout_s is None else timeout_s

    results: List[Optional[SimulationReport]] = [None] * len(specs)
    failures: Dict[int, RunFailure] = {}
    attempts = [0] * len(specs)
    waiting: Deque[int] = deque(range(len(specs)))
    suspects: Deque[int] = deque()
    #: future -> (spec index, wall-clock deadline)
    running: Dict[Future, Tuple[int, float]] = {}
    pool: Optional[Executor] = None

    def record(index: int, error: RunFailedError) -> None:
        failures[index] = RunFailure(
            index=index,
            scenario=error.scenario,
            seed=error.seed,
            error=error.summary,
            traceback=error.cause,
            attempts=attempts[index],
            replay=error.replay,
        )
        if on_error == "raise":
            raise error

    def lose(index: int, description: str, lane: Deque[int]) -> None:
        """Charge a transient loss: back to ``lane`` after backoff, or
        recorded once the retries are spent."""
        attempts[index] += 1
        if attempts[index] > retries:
            spec = specs[index]
            record(index, RunFailedError(
                spec.scenario, spec.config.seed, description, repr(spec)
            ))
            return
        delay = retry_backoff_s * 2 ** (attempts[index] - 1)
        if delay > 0:
            _sleep(delay)
        lane.appendleft(index)

    try:
        while waiting or suspects or running:
            if pool is None:
                # Spawned, not forked: a forked worker inherits locks
                # an abandoned pool's threads may hold mid-cleanup.
                pool = (ProcessPoolExecutor(
                    max_workers=processes,
                    mp_context=multiprocessing.get_context("spawn"),
                ) if processes > 1 else _InlineExecutor())
            solo = bool(suspects)
            lane = suspects if solo else waiting
            while lane and len(running) < (1 if solo else processes):
                index = lane.popleft()
                running[pool.submit(run_spec, specs[index])] = (
                    index, time.monotonic() + budget_s,
                )
            deadline = min(due for _, due in running.values())
            done, _ = wait(
                running, return_when=FIRST_COMPLETED,
                timeout=(None if deadline == math.inf
                         else max(0.0, deadline - time.monotonic())),
            )
            crashed: List[Tuple[int, BaseException]] = []
            for future in done:
                index, _ = running.pop(future)
                try:
                    results[index] = future.result()
                except RunFailedError as error:
                    attempts[index] += 1
                    record(index, error)
                except Exception as exc:
                    crashed.append((index, exc))
            now = time.monotonic()
            late = [] if crashed else [
                index for index, due in running.values() if due <= now
            ]
            if not (crashed or late):
                continue
            # The pool is lost either way: a crash broke it, and a late
            # run's worker can only be abandoned with it.
            others = sorted(
                index for index, _ in running.values() if index not in late
            )
            running.clear()
            _shutdown(pool)
            pool = None
            if len(crashed) == 1 and not others:
                index, exc = crashed[0]
                lose(index, (
                    f"{type(exc).__name__}: worker process died while "
                    f"running this spec alone ({exc or 'no detail'})"
                ), suspects)
            elif crashed:
                suspects.extend(sorted(
                    [index for index, _ in crashed] + others
                ))
            else:
                waiting.extendleft(reversed(others))
                for index in late:
                    lose(index, (
                        f"TimeoutError: run exceeded its {timeout_s}s "
                        f"wall-clock budget"
                    ), waiting)
    finally:
        if pool is not None:
            _shutdown(pool)
    batch = BatchResult(
        results=results,
        failures=[failures[index] for index in sorted(failures)],
    )
    return batch.reports if on_error == "raise" else batch


class _InlineExecutor(Executor):
    """``run_many``'s pool for ``processes == 1``: runs each submission
    in this process and hands back a future that is already done."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _shutdown(pool: Executor) -> None:
    """Tear a pool down without waiting on abandoned (hung) work."""
    # Snapshot the workers first: shutdown() drops the executor's
    # ``_processes`` reference, and a timed-out run may still be
    # executing in one of them.  (ProcessPoolExecutor keeps no public
    # handle on its workers.)
    workers = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    # Forcibly end still-running workers so abandoned work cannot
    # outlive the sweep or deadlock interpreter exit (the pool's atexit
    # hook joins its management thread, which waits on its workers).
    for process in workers:
        if process.is_alive():
            process.terminate()


def combined_telemetry(
    reports: Sequence[SimulationReport],
) -> Optional[RunTelemetry]:
    """Merge the telemetry blocks of a batch of reports into one.

    Reports travel back from workers with their ``telemetry`` attribute
    intact (it rides the instance ``__dict__`` through pickling), so a
    :func:`run_many` batch reduces to a single fleet-wide counter block:
    ``runs`` counts the replications, every other field sums.  Returns
    ``None`` when no report carried telemetry.
    """
    return merge_telemetry(
        [getattr(report, "telemetry", None) for report in reports]
    )
