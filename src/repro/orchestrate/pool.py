"""Task execution: cache lookups plus process-pool fan-out.

Every task is an independent simulation — its configuration carries its own
root seed, and :func:`repro.gnutella.simulation.simulate` derives every
RNG stream from that seed — so executing tasks in parallel produces results
bit-identical to a serial run. The only ordering this module imposes is on
*bookkeeping*: records come back in task order regardless of completion
order, which is what makes two manifests from ``jobs=1`` and ``jobs=8``
comparable byte for byte (modulo timing).

Failure policy: ``on_error="raise"`` propagates the first worker exception;
``on_error="record"`` captures it on the task's record so sibling figures of
an ``all`` run still complete (the CLI exit code reflects the failure).
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.export import canonical_json, result_to_jsonable
from repro.errors import ConfigurationError
from repro.experiments.common import SimRequest
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.simulation import SimulationResult, simulate
from repro.obs.registry import MetricsRegistry, bind_simulation_metrics
from repro.orchestrate.cache import ResultCache, task_key

__all__ = [
    "GridRun",
    "ProgressFn",
    "SimTask",
    "TaskRecord",
    "requests_to_tasks",
    "result_digest",
    "run_requests",
    "run_tasks",
    "task_metrics_snapshot",
]

#: Progress callback signature: ``(record, done_count, total_count)``.
ProgressFn = Callable[["TaskRecord", int, int], None]


@dataclass(frozen=True, slots=True)
class SimTask:
    """One content-unique simulation of a grid.

    ``task_id`` is the human label (``fig1/smoke/seed=0/static``); ``key``
    is the content address from :func:`repro.orchestrate.cache.task_key`.
    """

    task_id: str
    key: str
    config: GnutellaConfig
    engine: str = "fast"


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """What happened to one task: provenance for the run manifest."""

    task_id: str
    key: str
    engine: str
    cache_hit: bool
    elapsed_s: float
    result_digest: str = ""
    event_digest: str | None = None
    error: str | None = None
    #: Wall-clock phase timings from the worker (``repro.obs`` PhaseTimers
    #: ``as_dict()``); ``None`` for cache hits and failures. Volatile — the
    #: manifest's ``stable_view`` strips it like ``elapsed_s``.
    phases: dict | None = None
    #: Convergence diagnostics (:mod:`repro.obs.convergence` report dict)
    #: from the result. Deterministic — unlike ``phases``, it stays in the
    #: manifest's ``stable_view``.
    convergence: dict | None = None
    #: Per-task :class:`~repro.obs.registry.MetricsRegistry` snapshot,
    #: produced in the worker process (or rebuilt from the cached result on
    #: a hit). ``None`` on failure. The manifest folds these into one
    #: cross-process aggregate via ``repro.obs.telemetry.merge_snapshots``.
    metrics: dict | None = None


@dataclass(frozen=True)
class GridRun:
    """A completed grid: per-task records plus the results keyed by content."""

    records: tuple[TaskRecord, ...]
    results: dict[str, SimulationResult] = field(repr=False)
    wall_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        """How many tasks were served from the cache."""
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def executed(self) -> int:
        """How many simulations actually ran."""
        return sum(1 for r in self.records if not r.cache_hit and r.error is None)

    @property
    def errors(self) -> dict[str, str]:
        """Failed task keys mapped to their error descriptions."""
        return {r.key: r.error for r in self.records if r.error is not None}


def result_digest(result: SimulationResult) -> str:
    """A SHA-256 digest of everything a result reports.

    Covers the full configuration, the headline metrics, and the complete
    hourly hit/message/query series (the summary alone would be too lossy a
    determinism check). Stable across processes and hosts for identical
    runs — the serial-vs-parallel equality the determinism tests assert.
    """
    metrics = result.metrics
    payload = {
        "result": result_to_jsonable(result),
        "hits_hourly": metrics.hits_series(0)[1].tolist(),
        "messages_hourly": metrics.messages_series(0)[1].tolist(),
        "queries_hourly": metrics.queries.series(skip=0)[1].tolist(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def requests_to_tasks(
    requests: Sequence[SimRequest], prefix: str = ""
) -> tuple[tuple[SimTask, ...], dict[str, str]]:
    """Deduplicate figure requests into content-unique tasks.

    Returns ``(tasks, request_key -> content_key)``. Requests whose configs
    digest identically collapse onto one task (first occurrence wins the
    ``task_id``), which is how e.g. Figure 1's TTL-2 pair and Figure 3(a)'s
    ``hops=2`` column become a single simulation.
    """
    tasks: dict[str, SimTask] = {}
    mapping: dict[str, str] = {}
    for request in requests:
        if request.key in mapping:
            raise ConfigurationError(f"duplicate request key {request.key!r}")
        key = task_key(request.config, request.engine)
        mapping[request.key] = key
        if key not in tasks:
            task_id = f"{prefix}{request.key}" if prefix else request.key
            tasks[key] = SimTask(task_id, key, request.config, request.engine)
    return tuple(tasks.values()), mapping


def task_metrics_snapshot(result: SimulationResult) -> dict:
    """A registry snapshot of one result's metrics, built where the task ran.

    Binds the result's :class:`~repro.gnutella.metrics.SimulationMetrics`
    into a throwaway :class:`~repro.obs.registry.MetricsRegistry` and
    snapshots it immediately — a plain-dict, picklable emission each worker
    process ships home so the parent can fold every task into one aggregate
    (``repro.obs.telemetry.merge_snapshots``) without holding live metric
    objects across process boundaries. Deterministic for a given result, so
    serial and parallel runs emit identical snapshots.
    """
    registry = MetricsRegistry()
    bind_simulation_metrics(registry, result.metrics)
    return registry.snapshot()


def _execute(
    config: GnutellaConfig, engine: str, hash_events: bool
) -> tuple[SimulationResult, str | None, float, dict, dict]:
    """Worker body: run one simulation, timed and phase-profiled (in the child)."""
    started = time.perf_counter()
    run = simulate(config, engine, hash_events=hash_events)
    elapsed = time.perf_counter() - started
    return run.result, run.event_digest, elapsed, run.phases, task_metrics_snapshot(run.result)


def run_tasks(
    tasks: Sequence[SimTask],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    hash_events: bool = False,
    progress: ProgressFn | None = None,
    on_error: str = "raise",
) -> GridRun:
    """Execute ``tasks``: cache lookups first, then fan out the misses.

    ``jobs=1`` executes inline (no pool, no pickling) — the reference serial
    path the parallel one must match bit for bit. Results and records come
    back in task order regardless of ``jobs``.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if on_error not in ("raise", "record"):
        raise ConfigurationError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    if len({task.key for task in tasks}) != len(tasks):
        raise ConfigurationError("task keys must be unique; dedupe first")
    started = time.perf_counter()
    results: dict[str, SimulationResult] = {}
    records: dict[str, TaskRecord] = {}
    done = 0

    def note(record: TaskRecord) -> None:
        nonlocal done
        records[record.key] = record
        done += 1
        if progress is not None:
            progress(record, done, len(tasks))

    misses: list[SimTask] = []
    for task in tasks:
        cached = cache.get(task.key) if cache is not None else None
        if cached is None:
            misses.append(task)
            continue
        results[task.key] = cached
        note(
            TaskRecord(
                task_id=task.task_id,
                key=task.key,
                engine=task.engine,
                cache_hit=True,
                elapsed_s=0.0,
                result_digest=result_digest(cached),
                convergence=getattr(cached, "convergence", None),
                metrics=task_metrics_snapshot(cached),
            )
        )

    def complete(
        task: SimTask,
        outcome: tuple[SimulationResult, str | None, float, dict, dict],
    ) -> None:
        result, event_digest, elapsed, phases, metrics_snapshot = outcome
        digest = result_digest(result)
        results[task.key] = result
        if cache is not None:
            cache.put(
                task.key,
                result,
                {
                    "task_id": task.task_id,
                    "engine": task.engine,
                    "scheme": result.scheme,
                    "seed": task.config.seed,
                    "n_users": task.config.n_users,
                    "horizon_s": task.config.horizon,
                    "result_digest": digest,
                    "event_digest": event_digest,
                    "elapsed_s": elapsed,
                },
            )
        note(
            TaskRecord(
                task_id=task.task_id,
                key=task.key,
                engine=task.engine,
                cache_hit=False,
                elapsed_s=elapsed,
                result_digest=digest,
                event_digest=event_digest,
                phases=phases,
                convergence=result.convergence,
                metrics=metrics_snapshot,
            )
        )

    def fail(task: SimTask, exc: BaseException) -> None:
        if on_error == "raise":
            raise exc
        note(
            TaskRecord(
                task_id=task.task_id,
                key=task.key,
                engine=task.engine,
                cache_hit=False,
                elapsed_s=0.0,
                error=f"{type(exc).__name__}: {exc}",
            )
        )

    if misses and (jobs == 1 or len(misses) == 1):
        for task in misses:
            try:
                outcome = _execute(task.config, task.engine, hash_events)
            except Exception as exc:
                fail(task, exc)
            else:
                complete(task, outcome)
    elif misses:
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as executor:
            pending: dict[
                Future[tuple[SimulationResult, str | None, float, dict, dict]],
                SimTask,
            ]
            pending = {
                executor.submit(_execute, task.config, task.engine, hash_events): task
                for task in misses
            }
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    task = pending.pop(future)
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        fail(task, exc)
                    else:
                        complete(task, outcome)

    ordered = tuple(records[task.key] for task in tasks)
    return GridRun(
        records=ordered, results=results, wall_s=time.perf_counter() - started
    )


def run_requests(
    requests: Sequence[SimRequest],
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    hash_events: bool = False,
    progress: ProgressFn | None = None,
) -> dict[str, SimulationResult]:
    """Execute figure-level requests and map results back to request keys.

    The convenience entry for callers that just want ``{request.key:
    result}`` — e.g. :func:`repro.experiments.multiseed.run` delegating its
    seed loop. Duplicate content (same config + engine under different
    request keys) executes once.
    """
    tasks, mapping = requests_to_tasks(requests)
    run = run_tasks(
        tasks,
        jobs=jobs,
        cache=cache,
        hash_events=hash_events,
        progress=progress,
        on_error="raise",
    )
    return {request_key: run.results[key] for request_key, key in mapping.items()}
