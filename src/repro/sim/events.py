"""Events and the time-ordered event queue.

The queue is a binary heap of ``(time, priority, sequence, payload)`` tuples.
The monotonically increasing sequence number makes ordering total and
deterministic: two events scheduled for the same time and priority fire in
scheduling order, which is what keeps same-seed runs bit-for-bit reproducible.
It is also unique, so ``heapq``'s tuple comparison — done in C — is always
decided before it could reach the payload.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.kernel import Simulator

__all__ = [
    "Event",
    "EventQueue",
    "OBSERVER_ATTR",
    "ScheduledCallback",
    "is_observer",
    "mark_observer",
    "observer_registry",
    "NORMAL",
    "HIGH",
    "LOW",
]

#: Priority levels. Lower value fires first among events at the same time.
HIGH = 0
NORMAL = 1
LOW = 2

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


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point its callbacks are
    scheduled to run at the current simulation time.

    Attributes
    ----------
    value:
        The payload passed to :meth:`succeed`, or the exception passed to
        :meth:`fail`. ``None`` while pending.
    """

    __slots__ = ("_sim", "callbacks", "_triggered", "_dispatched", "_ok", "value")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        #: Callables invoked with this event once it triggers.
        self.callbacks: list[Callable[[Event], None]] = []
        self._triggered = False
        self._dispatched = False
        self._ok: bool | None = None
        self.value: Any = None

    @property
    def sim(self) -> "Simulator":
        """The kernel this event belongs to."""
        return self._sim

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded. Only meaningful once triggered."""
        if self._ok is None:
            raise SchedulingError("event has not been triggered yet")
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have ``exc`` thrown into them.
        """
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() expects an exception instance, got {exc!r}")
        self._trigger(ok=False, value=exc)
        return self

    def _trigger(self, *, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SchedulingError("event has already been triggered")
        self._triggered = True
        self._ok = ok
        self.value = value
        self._sim.schedule(0.0, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatched = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event triggers.

        Callbacks added while the trigger dispatch is still pending join the
        normal callback list (preserving registration order); callbacks added
        after dispatch are scheduled to run immediately at the current time.
        """
        if self._dispatched:
            self._sim.schedule(0.0, cb, self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self._triggered else ("ok" if self._ok else "failed")
        return f"<Event {state} at t={self._sim.now:.6g}>"


class EventQueue:
    """A deterministic time/priority/FIFO-ordered heap of callbacks."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, ScheduledCallback]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, callback: ScheduledCallback, priority: int = NORMAL) -> None:
        """Insert ``callback`` to fire at ``time``."""
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, callback))

    def peek_time(self) -> float:
        """Time of the earliest entry (cancelled entries included)."""
        if not self._heap:
            raise SchedulingError("event queue is empty")
        return self._heap[0][0]

    def pop(self) -> tuple[float, ScheduledCallback]:
        """Remove and return the earliest ``(time, callback)`` pair."""
        if not self._heap:
            raise SchedulingError("event queue is empty")
        time, _, _, callback = heapq.heappop(self._heap)
        return time, callback
