"""The simulation kernel: clock, scheduler, and run loop.

The kernel is callback-based at the bottom (fast path used by the hot
Gnutella engines) with generator-based :class:`~repro.sim.process.Process`
coroutines layered on top (used by the detailed message-level engine and the
queueing primitives).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, Iterable

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import NORMAL, Event, EventQueue, ScheduledCallback

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
        self._stopped = False
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
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> ScheduledCallback:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a handle whose :meth:`~repro.sim.events.ScheduledCallback.cancel`
        prevents the call. ``delay`` must be non-negative and finite.
        """
        if delay < 0 or math.isnan(delay) or math.isinf(delay):
            raise SchedulingError(f"delay must be finite and non-negative, got {delay!r}")
        handle = ScheduledCallback(self._now + delay, fn, args)
        self._queue.push(handle.time, handle, priority)
        return handle

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = NORMAL,
    ) -> ScheduledCallback:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule into the past (now={self._now!r}, requested={time!r})"
            )
        return self.schedule(time - self._now, fn, *args, priority=priority)

    def event(self) -> Event:
        """Create a new pending :class:`~repro.sim.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Return an event that succeeds ``delay`` seconds from now."""
        ev = Event(self)
        self.schedule(delay, ev.succeed, value)
        return ev

    def process(self, generator: Generator[Any, Any, Any]) -> "Any":
        """Start a coroutine process on this kernel.

        Accepts a generator (typically from calling a generator function) and
        returns the started :class:`~repro.sim.process.Process`.
        """
        from repro.sim.process import Process  # local import: avoids cycle

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Return an event that succeeds once every given event has succeeded.

        The payload is the list of individual payloads in input order. If any
        constituent fails, the combined event fails with that exception (the
        first failure wins).
        """
        events = list(events)
        combined = Event(self)
        remaining = len(events)
        values: list[Any] = [None] * len(events)
        if remaining == 0:
            combined.succeed([])
            return combined

        def make_cb(index: int) -> Callable[[Event], None]:
            def on_done(ev: Event) -> None:
                nonlocal remaining
                if combined.triggered:
                    return
                if not ev.ok:
                    combined.fail(ev.value)
                    return
                values[index] = ev.value
                remaining -= 1
                if remaining == 0:
                    combined.succeed(list(values))

            return on_done

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return combined

    def any_of(self, events: Iterable[Event]) -> Event:
        """Return an event that mirrors the first of ``events`` to trigger."""
        events = list(events)
        if not events:
            raise SimulationError("any_of() requires at least one event")
        combined = Event(self)

        def on_done(ev: Event) -> None:
            if combined.triggered:
                return
            if ev.ok:
                combined.succeed(ev.value)
            else:
                combined.fail(ev.value)

        for ev in events:
            ev.add_callback(on_done)
        return combined

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def step(self) -> float | None:
        """Execute the single earliest pending callback; return its time.

        Cancelled entries are discarded silently. Returns ``None`` if the
        queue held only cancelled entries (nothing was executed). Raises
        :class:`SchedulingError` if the queue is completely empty.
        """
        if not self._queue:
            raise SchedulingError("event queue is empty")
        while self._queue:
            time, handle = self._queue.pop()
            if handle.cancelled:
                continue
            self._now = time
            self._events_executed += 1
            handle.fn(*handle.args)
            return time
        return None

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains, or until the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, matching SimPy semantics, and no
        callback due after ``until`` runs — also not one that surfaces from
        behind a cancelled entry.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from within a callback")
        if until is not None and until < self._now:
            raise SchedulingError(f"until={until!r} is in the past (now={self._now!r})")
        self._running = True
        self._stopped = False
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
                if self._stopped:
                    break
        finally:
            self._running = False
        if until is not None and not self._stopped:
            self._now = max(self._now, until)

    def stop(self) -> None:
        """Stop the run loop after the current callback returns.

        Intended to be called from inside a callback (e.g. a termination
        condition probe).
        """
        self._stopped = True
