"""Parallel execution of independent simulation runs.

The paper's performance study -- and any Monte-Carlo use of this repo --
needs many *independent* replications: the same scenario under different
seeds, or different scenarios side by side.  Each run is one process-sized
unit of work, so the natural speedup is process-level fan-out.

:func:`run_many` is an ordered, fail-fast map of :func:`run_spec` over a
list of :class:`RunSpec`: reports come back in input order, at most
``processes`` runs are in flight on spawned workers, and the first
:class:`RunFailedError` is raised.  Determinism holds in both senses:

* each run's result depends only on its spec (scenario + config), never
  on scheduling, pool size, or which worker picked it up -- which is
  also why a run in flight when a worker died can simply run again;
* :func:`replication_seeds` derives per-replication master seeds from a
  single experiment seed through the same SHA-256 construction
  :class:`~repro.des.random_streams.RandomStreams` uses for named
  streams, so replication *k* of an experiment is the same run no matter
  how many replications surround it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence

from repro.des.random_streams import RandomStreams
from repro.obs.telemetry import RunTelemetry, merge_telemetry
from repro.sim.network_sim import ScenarioConfig
from repro.sim.scenarios import build_scenario
from repro.sim.stats import SimulationReport


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run: a named scenario plus its config.

    Specs are plain picklable data -- the scenario is rebuilt inside the
    worker process -- so a spec is also a complete, storable description
    of how to reproduce the run.  That includes its trace: a traced spec
    names its own trace file in ``config.trace``, so specs of one sweep
    that trace to disk each need a path of their own.
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


def run_spec(spec: RunSpec) -> SimulationReport:
    """Build and run one spec to completion (the worker-side function).

    Any failure is re-raised as :class:`RunFailedError` identifying the
    spec, chained to the original exception (visible when the run
    executes in this process; chaining doesn't survive the pool's pickle
    round-trip, so the full traceback text also rides in ``cause``).
    """
    try:
        return build_scenario(spec.scenario, config=spec.config).run()
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
    specs: Sequence[RunSpec], processes: Optional[int] = None
) -> List[SimulationReport]:
    """Run every spec and return the reports in input order.

    At most ``processes`` runs are in flight (``None``: one per CPU).
    With ``processes == 1``, or fewer than two specs, every spec runs in
    this process.  Otherwise workers are *spawned*, so a calling script
    needs an ``if __name__ == "__main__":`` guard.

    The first failed run raises its :class:`RunFailedError`.  A dead
    worker breaks the pool, which cannot say which run killed it, so
    each run then in flight runs again alone on a one-worker pool: the
    one that kills its worker alone is raised, the others keep their
    reports, and the sweep goes on on a fresh pool.
    """
    specs = list(specs)
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    processes = min(processes or os.cpu_count() or 1, len(specs))
    if processes <= 1:
        return [run_spec(spec) for spec in specs]
    reports: List[Optional[SimulationReport]] = [None] * len(specs)
    waiting: Deque[int] = deque(range(len(specs)))
    while waiting:
        for index in _run_until_a_worker_dies(specs, waiting, reports,
                                              processes):
            reports[index] = _run_alone(specs[index])
    return reports


def _spawn_pool(processes: int) -> ProcessPoolExecutor:
    context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(processes, mp_context=context)


def _run_until_a_worker_dies(
    specs: List[RunSpec], waiting: Deque[int],
    reports: List[Optional[SimulationReport]], processes: int,
) -> List[int]:
    """Run ``waiting`` on one pool, filling ``reports``, until it is
    empty or a worker dies; return the indices then in flight."""
    with _spawn_pool(processes) as pool:
        running: Dict[Future, int] = {}
        while waiting or running:
            while waiting and len(running) < processes:
                index = waiting.popleft()
                running[pool.submit(run_spec, specs[index])] = index
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            if any(isinstance(future.exception(), BrokenProcessPool)
                   for future in done):
                # A broken pool fails every future it still holds.
                done, _ = wait(running)
            in_flight = []
            for future in done:
                index = running.pop(future)
                try:
                    reports[index] = future.result()
                except BrokenProcessPool:
                    in_flight.append(index)
            if in_flight:
                return sorted(in_flight)
    return []


def _run_alone(spec: RunSpec) -> SimulationReport:
    """Run one spec on a one-worker pool; a dead worker is its fault."""
    with _spawn_pool(1) as pool:
        try:
            return pool.submit(run_spec, spec).result()
        except BrokenProcessPool as exc:
            raise RunFailedError(
                spec.scenario, spec.config.seed,
                f"BrokenProcessPool: worker process died while running "
                f"this spec alone ({exc})", repr(spec),
            ) from exc


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
