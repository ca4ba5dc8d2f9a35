"""Parallel experiment orchestration with content-addressed result caching.

The figure runners in :mod:`repro.experiments` declare *what* to simulate
(each module's ``plan()`` returns :class:`~repro.experiments.common.SimRequest`
rows) separately from *how to present it* (``assemble()``). This package is
the execution layer between the two:

* :mod:`.grid` expands a declarative (figure × preset × seed × overrides)
  grid into figure jobs and deduplicates their simulation tasks by content —
  e.g. Figure 1's TTL-2 pair is the same task as Figure 3(a)'s ``hops=2``
  column, so ``all`` at one seed runs 12 unique simulations instead of 18;
* :mod:`.cache` stores each :class:`~repro.gnutella.simulation.SimulationResult`
  on disk under a SHA-256 key of the canonicalized configuration + engine +
  code fingerprint, so re-runs and interrupted grids resume from cache;
* :mod:`.pool` fans cache misses out over a ``ProcessPoolExecutor`` — task
  results are bit-identical to a serial run because every simulation seeds
  its own :class:`~repro.rng.RngStreams` from its config;
* :mod:`.manifest` records what ran (tasks, digests, timings, cache hits)
  as a JSON document next to the results;
* :mod:`.cli` is the ``repro-experiments`` entry point (also
  ``python -m repro.experiments``), the one parser for every figure run.
"""

from repro.orchestrate.cache import ResultCache, code_fingerprint, task_key
from repro.orchestrate.grid import (
    FIGURES,
    FigureJob,
    FigureOutcome,
    GridOutcome,
    expand_grid,
    grid_tasks,
    plan_figure,
    run_grid,
)
from repro.orchestrate.manifest import build_manifest, stable_view, write_manifest
from repro.orchestrate.pool import (
    GridRun,
    SimTask,
    TaskRecord,
    result_digest,
    run_requests,
    run_tasks,
)
from repro.orchestrate.progress import ProgressPrinter

__all__ = [
    "FIGURES",
    "FigureJob",
    "FigureOutcome",
    "GridOutcome",
    "GridRun",
    "ProgressPrinter",
    "ResultCache",
    "SimTask",
    "TaskRecord",
    "build_manifest",
    "code_fingerprint",
    "expand_grid",
    "grid_tasks",
    "plan_figure",
    "result_digest",
    "run_grid",
    "run_requests",
    "run_tasks",
    "stable_view",
    "task_key",
    "write_manifest",
]
