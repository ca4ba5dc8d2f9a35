"""The simulation kernel: clock, scheduler, and run loop.

One callback kernel: every engine, the server and the experiments drive it
through :meth:`Simulator.schedule`, :meth:`Simulator.schedule_at` and
:meth:`Simulator.run`, and each event is a plain ``fn(*args)`` call popped from
an :class:`~repro.sim.events.EventQueue`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import EventQueue, ScheduledCallback

__all__ = ["Simulator"]


class Simulator:
    """A discrete-event simulation kernel.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock, in seconds.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._events_executed = 0

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (cancelled ones excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of queued entries, including cancelled ones not yet skipped."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledCallback:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a handle whose :meth:`~repro.sim.events.ScheduledCallback.cancel`
        prevents the call. ``delay`` must be non-negative and finite.
        """
        if delay < 0 or math.isnan(delay) or math.isinf(delay):
            raise SchedulingError(f"delay must be finite and non-negative, got {delay!r}")
        handle = ScheduledCallback(self._now + delay, fn, args)
        self._queue.push(handle.time, handle)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledCallback:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``.

        The callback fires at ``time`` itself: going through a relative delay
        would store ``now + (time - now)``, which can round to the next float.
        """
        if math.isnan(time) or math.isinf(time):
            raise SchedulingError(f"time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule into the past (now={self._now!r}, requested={time!r})"
            )
        handle = ScheduledCallback(time, fn, args)
        self._queue.push(time, handle)
        return handle

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        """Run until the queue drains, or until the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, and no callback due after ``until``
        runs — also not one that surfaces from behind a cancelled entry.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from within a callback")
        if until is not None and until < self._now:
            raise SchedulingError(f"until={until!r} is in the past (now={self._now!r})")
        self._running = True
        try:
            # One entry per iteration: a cancelled entry is dropped and the
            # loop comes round to the ``until`` test again, so the entry
            # behind it never runs unchecked. Through the queue's public
            # interface — the event-stream hasher stands in for it.
            queue = self._queue
            peek_time, pop = queue.peek_time, queue.pop
            limit = math.inf if until is None else until
            while queue:
                if peek_time() > limit:
                    break
                time, handle = pop()
                if handle.cancelled:
                    continue
                self._now = time
                self._events_executed += 1
                handle.fn(*handle.args)
        finally:
            self._running = False
        if until is not None:
            self._now = max(self._now, until)
