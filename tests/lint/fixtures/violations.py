"""Intentionally hazardous code: the repro-lint acceptance fixture.

Every line tagged ``# expect: CODE`` must be reported by the linter with that
code at that line; the tests in ``tests/lint`` assert the exact code/line
set, and the CLI test asserts the non-zero exit.  This file is never
imported by the test suite — it exists purely as lint input (and is excluded
from ruff/mypy in ``pyproject.toml``).
"""

import itertools
import os
import random
import time

import numpy as np

from repro.sim.events import mark_observer


def stdlib_draw():
    return random.random()  # expect: R001


def numpy_global_draw():
    return np.random.rand(3)  # expect: R001


def unseeded_generator():
    return np.random.default_rng()  # expect: R001


def seeded_generator_is_fine(seed: int):
    return np.random.default_rng(seed)


def wall_clock_stamp():
    return time.time()  # expect: R002


def wall_clock_perf():
    return time.perf_counter()  # expect: R002


def schedule_from_set(pending: set[int]) -> list[int]:
    out = []
    for task in pending:  # expect: R003
        out.append(task)
    return out


def sorted_iteration_is_fine(pending: set[int]) -> list[int]:
    return [task for task in sorted(pending)]


def same_instant(event_time: float, issued_at: float) -> bool:
    return event_time == issued_at  # expect: R004


def ordering_is_fine(event_time: float, issued_at: float) -> bool:
    return event_time <= issued_at


def collect(results=[]):  # expect: R005
    results.append(1)
    return results


class ProtocolState:
    neighbors = []  # expect: R005

    def __init__(self) -> None:
        self.links: list[int] = []


@mark_observer
def impure_probe(engine):
    engine.tick_count += 1  # expect: R006


@mark_observer
def pure_probe_is_fine(engine):
    return len(engine.peers)


_QUERY_IDS = itertools.count()


def simulate_task(spec):
    return next(_QUERY_IDS)  # expect: R007


def flush(sim, waiting: set):
    for peer in waiting:  # expect: R008
        sim.schedule(0.0, peer)


def worker_count():
    return int(os.environ.get("REPRO_WORKERS", "1"))  # expect: R010


def unstable_total(loads: set):
    total = 0.0
    for load in loads:  # expect: R011
        total += load
    return total


_DELAY_CACHE = {}


def delay_for(pair, compute):
    if pair not in _DELAY_CACHE:
        _DELAY_CACHE[pair] = compute(pair)  # expect: R007 R012
    return _DELAY_CACHE[pair]


def suppressed_draw():
    # The justification comment rides along with the suppression:
    return random.random()  # repro-lint: disable=R001 -- fixture: exercising suppression syntax
