"""Scheduled callbacks and the time-ordered event queue.

The queue is a binary heap of ``(time, sequence, callback)`` tuples. The
monotonically increasing sequence number makes ordering total and
deterministic: two callbacks scheduled for the same time fire in scheduling
order, which is what keeps same-seed runs bit-for-bit reproducible. It is also
unique, so ``heapq``'s tuple comparison — done in C — is always decided before
it could reach the callback.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SchedulingError

__all__ = [
    "EventQueue",
    "OBSERVER_ATTR",
    "ScheduledCallback",
    "is_observer",
    "mark_observer",
    "observer_registry",
]

#: Attribute marking a callback as *pure observation* (see :func:`mark_observer`).
OBSERVER_ATTR = "__repro_observer__"

#: Every callable ever passed through :func:`mark_observer`, weakly held so
#: closure observers (e.g. the sanitizer's consistency probe) can be
#: garbage-collected with their run.  Exposed — as qualified names only, for
#: determinism — through :func:`observer_registry`; the static observer-
#: purity rule (repro-lint R006) cross-checks its findings against the same
#: registration sites.
_OBSERVER_REGISTRY: "weakref.WeakSet[Callable[..., Any]]" = weakref.WeakSet()


def observer_registry() -> tuple[str, ...]:
    """Qualified names of all currently-live registered observers, sorted.

    Returns names rather than the callables themselves: a ``WeakSet``
    iterates in an arbitrary, GC-dependent order, and handing that order to
    callers would be a determinism hazard of exactly the kind the observer
    contract exists to prevent.
    """
    names = {
        getattr(fn, "__qualname__", None) or type(fn).__qualname__
        for fn in _OBSERVER_REGISTRY
    }
    return tuple(sorted(names))


def mark_observer(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Declare ``fn`` a pure-observation callback (usable as a decorator).

    An observer callback reads simulation state but never mutates it, draws
    no RNG, and schedules nothing except its own re-arming — attaching or
    removing it cannot change what the simulation computes. The event-stream
    hasher (:mod:`repro.lint.sanitize`) therefore excludes observer events
    from digests, exactly like cancelled entries: they are not part of the
    observable behaviour two runs must agree on. That exclusion is what lets
    periodic probes and topology snapshotters keep traced/snapshotted and
    plain runs bit-identical.

    Mark the *function* (or the method on its class); bound methods forward
    attribute reads to the underlying function, so per-instance marking is
    never needed.
    """
    setattr(fn, OBSERVER_ATTR, True)
    # The registry is observational only (never read by simulation logic),
    # so registering from inside a pool worker cannot diverge behaviour.
    _OBSERVER_REGISTRY.add(fn)
    return fn


def is_observer(fn: Callable[..., Any]) -> bool:
    """Whether ``fn`` was marked with :func:`mark_observer`."""
    return bool(getattr(fn, OBSERVER_ATTR, False))


@dataclass(slots=True)
class ScheduledCallback:
    """A callback registered with the kernel, with cancellation support.

    Returned by :meth:`repro.sim.kernel.Simulator.schedule`. Cancelling does
    not remove the heap entry (that would be O(n)); the kernel simply skips
    cancelled entries when they surface.
    """

    time: float
    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Prevent the callback from firing. Safe to call more than once."""
        self.cancelled = True


class EventQueue:
    """A deterministic time/FIFO-ordered heap of callbacks."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledCallback]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: ScheduledCallback) -> None:
        """Insert ``callback`` to fire at ``time``."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, callback))

    def peek_time(self) -> float:
        """Time of the earliest entry (cancelled entries included)."""
        if not self._heap:
            raise SchedulingError("event queue is empty")
        return self._heap[0][0]

    def pop(self) -> tuple[float, ScheduledCallback]:
        """Remove and return the earliest ``(time, callback)`` pair."""
        if not self._heap:
            raise SchedulingError("event queue is empty")
        time, _, callback = heapq.heappop(self._heap)
        return time, callback
