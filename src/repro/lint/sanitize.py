"""Runtime sanitizer: event-stream hashing and periodic invariant assertions.

Static rules cannot prove a run *was* deterministic; this module checks it at
runtime, cheaply enough to leave on in tests:

* :func:`attach_hasher` wraps a :class:`~repro.sim.kernel.Simulator` so every
  executed event folds into a SHA-256 digest.  Two same-seed runs must
  produce the same digest — the determinism regression guard in
  ``tests/lint/test_sanitize.py`` asserts exactly that.
* :func:`install_consistency_checks` schedules periodic Section 3.1
  assertions (``j in Out(i) => i in In(j)``, and ``Out == In`` under the
  symmetric relation) into a Gnutella engine, reusing
  :mod:`repro.core.consistency`.

Both hooks are opt-in: pass ``hash_events=True`` / ``sanitize=True`` to
:func:`repro.gnutella.simulation.simulate`, the one run body behind
:func:`~repro.gnutella.simulation.run_simulation`, :func:`run_hashed` and
every orchestrated figure task. The environment variable
``REPRO_SANITIZE=1`` forces the consistency checks on for all of them.
"""

from __future__ import annotations

import hashlib
import os
from typing import TYPE_CHECKING, Any

from repro.core.consistency import state_inconsistencies, symmetric_violations
from repro.errors import SanitizerError
from repro.sim.events import EventQueue, ScheduledCallback, is_observer, mark_observer
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gnutella.fast import FastGnutellaEngine
    from repro.gnutella.simulation import SimulationResult

__all__ = [
    "EventStreamHasher",
    "attach_hasher",
    "install_consistency_checks",
    "run_hashed",
    "sanitizer_env_enabled",
    "stable_repr",
]

#: Default spacing of the periodic consistency probe, in simulated seconds.
DEFAULT_CHECK_INTERVAL = 3600.0


def sanitizer_env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests sanitizing every run."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in {"1", "true", "on", "yes"}


def stable_repr(obj: Any) -> str:
    """A process-stable rendering of an event payload.

    Numbers, strings, and containers thereof render by value (floats via
    ``hex()`` so the digest captures every bit); arbitrary objects render as
    their type name only — object ``repr``\\ s embed memory addresses, which
    would make the digest differ between identical runs.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (tuple, list)):
        inner = ",".join(stable_repr(item) for item in obj)
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, (set, frozenset)):
        inner = ",".join(sorted(stable_repr(item) for item in obj))
        return f"{{{inner}}}"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{k}:{v}"
            for k, v in sorted((stable_repr(k), stable_repr(v)) for k, v in obj.items())
        )
        return f"{{{inner}}}"
    return f"<{type(obj).__qualname__}>"


class EventStreamHasher:
    """Folds every executed simulator event into one SHA-256 digest.

    The digest covers, per event: the firing time (bit-exact), the callback's
    qualified name, and a stable rendering of its arguments.  Cancelled
    entries are excluded — they never execute, so they are not part of the
    observable behaviour two runs must agree on.  So are *observer* events
    (:func:`repro.sim.events.mark_observer`): periodic probes, topology
    snapshotters and this module's own consistency checks only read state,
    so attaching them must not move the digest — that exclusion is what the
    snapshotted-vs-plain digest-equality tests rely on.
    """

    __slots__ = ("_digest", "events_hashed")

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        #: Number of executed events folded in so far.
        self.events_hashed = 0

    def record(self, time: float, handle: ScheduledCallback) -> None:
        """Fold one executed event into the digest."""
        fn = handle.fn
        name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
        entry = f"{time.hex()}|{name}|{stable_repr(handle.args)}\n"
        self._digest.update(entry.encode("utf-8"))
        self.events_hashed += 1

    def hexdigest(self) -> str:
        """Digest of the event stream executed so far."""
        return self._digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventStreamHasher(events={self.events_hashed}, sha256={self.hexdigest()[:12]}...)"


class _RecordingQueue:
    """An :class:`EventQueue` proxy feeding popped entries to a hasher.

    The kernel pops *every* surfaced entry (including cancelled ones, which
    it then skips); the proxy mirrors that contract and records only entries
    that will actually execute — minus pure-observation callbacks, which are
    behaviourally inert by contract.
    """

    __slots__ = ("_inner", "_hasher")

    def __init__(self, inner: EventQueue, hasher: EventStreamHasher) -> None:
        self._inner = inner
        self._hasher = hasher

    def __len__(self) -> int:
        return len(self._inner)

    def __bool__(self) -> bool:
        return bool(self._inner)

    def push(self, time: float, callback: ScheduledCallback) -> None:
        self._inner.push(time, callback)

    def peek_time(self) -> float:
        return self._inner.peek_time()

    def pop(self) -> tuple[float, ScheduledCallback]:
        time, handle = self._inner.pop()
        if not handle.cancelled and not is_observer(handle.fn):
            self._hasher.record(time, handle)
        return time, handle


def attach_hasher(sim: Simulator) -> EventStreamHasher:
    """Instrument ``sim`` so its executed event stream is hashed.

    Must be called before :meth:`~repro.sim.kernel.Simulator.run`; events
    executed earlier are not part of the digest.  Returns the hasher, whose
    :meth:`~EventStreamHasher.hexdigest` is stable across processes for
    same-seed runs.
    """
    hasher = EventStreamHasher()
    sim._queue = _RecordingQueue(sim._queue, hasher)  # type: ignore[assignment]
    return hasher


def install_consistency_checks(
    engine: "FastGnutellaEngine",
    every: float = DEFAULT_CHECK_INTERVAL,
    *,
    symmetric: bool = True,
) -> None:
    """Schedule periodic Section 3.1 invariant assertions into ``engine``.

    Every ``every`` simulated seconds (until the horizon) the full peer
    population is snapshotted and checked with
    :func:`repro.core.consistency.state_inconsistencies`; with
    ``symmetric=True`` (the Gnutella case: neighbor relations are mutual)
    :func:`~repro.core.consistency.symmetric_violations` must also be empty.
    A violation raises :class:`~repro.errors.SanitizerError` from inside the
    run, pinpointing the first simulated instant the invariant broke.
    """
    if every <= 0:
        raise SanitizerError(f"check interval must be positive, got {every!r}")
    sim = engine.sim
    horizon = engine.config.horizon

    # The probe only asserts; marking it an observer keeps sanitized and
    # unsanitized event-stream digests of the same config identical.
    @mark_observer
    def probe() -> None:
        states = {p.node: p.neighbors for p in engine.peers}
        bad = state_inconsistencies(states)
        if bad:
            raise SanitizerError(
                f"consistency violated at t={sim.now:.3f}: "
                f"{len(bad)} dangling edge(s), first {bad[0]}"
            )
        if symmetric:
            asymmetric = symmetric_violations(states)
            if asymmetric:
                raise SanitizerError(
                    f"symmetry violated at t={sim.now:.3f}: Out != In at "
                    f"node(s) {asymmetric[:5]}"
                )
        if sim.now + every <= horizon:
            sim.schedule(every, probe)

    sim.schedule(min(every, horizon), probe)


def run_hashed(
    config: Any, engine: str = "fast", *, sanitize: bool = True
) -> tuple["SimulationResult", str]:
    """Run a Gnutella simulation with the event stream hashed.

    Returns ``(result, hexdigest)``.  Two calls with an identical ``config``
    must return identical digests; anything else is a determinism bug.
    """
    from repro.gnutella.simulation import simulate

    run = simulate(config, engine, hash_events=True, sanitize=sanitize)
    assert run.event_digest is not None
    return run.result, run.event_digest
