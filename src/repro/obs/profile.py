"""Wall-clock phase timers: where does real time go?

Simulated time is the paper's subject; *wall* time is the reproduction's
cost. :class:`PhaseTimers` accumulates named wall-clock phases — engine
setup / run / teardown, each orchestrator task — and renders them as a
JSON-ready dict for run manifests.

Phases are taken *around* the engine, never inside it: nothing is attached
to the kernel or the flood search, so timing changes no simulated event,
draws no RNG, and cannot move an event-stream digest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = ["PhaseTimers"]


class PhaseTimers:
    """Named wall-clock accumulators with a context-manager interface.

    Example
    -------
    >>> timers = PhaseTimers()
    >>> with timers.phase("engine.setup"):
    ...     pass
    >>> timers.add("engine.run", 0.25)
    >>> sorted(timers.as_dict())
    ['engine.run', 'engine.setup']
    """

    __slots__ = ("_seconds", "_counts")

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold ``seconds`` of wall time into phase ``name``."""
        if seconds < 0:
            raise ValueError(f"phase seconds must be >= 0, got {seconds!r}")
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._counts[name] = self._counts.get(name, 0) + 1

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block into phase ``name`` (exceptions included)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def seconds(self, name: str) -> float:
        """Total wall seconds accumulated under ``name`` (0.0 if never hit)."""
        return self._seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        """How many times phase ``name`` was entered."""
        return self._counts.get(name, 0)

    @property
    def total_seconds(self) -> float:
        """Sum over all phases (phases may nest, so this can exceed wall)."""
        return sum(self._seconds.values())

    def merge(self, other: "PhaseTimers | Mapping[str, Any]") -> None:
        """Fold another timer set (or an :meth:`as_dict` rendering) in."""
        if isinstance(other, PhaseTimers):
            for name, secs in other._seconds.items():
                self._seconds[name] = self._seconds.get(name, 0.0) + secs
                self._counts[name] = self._counts.get(name, 0) + other._counts[name]
            return
        for name, entry in other.items():
            self._seconds[name] = self._seconds.get(name, 0.0) + float(entry["seconds"])
            self._counts[name] = self._counts.get(name, 0) + int(entry["count"])

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """``{phase: {"seconds": s, "count": n}}``, sorted by phase name."""
        return {
            name: {"seconds": self._seconds[name], "count": self._counts[name]}
            for name in sorted(self._seconds)
        }

    def __len__(self) -> int:
        return len(self._seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={self._seconds[name]:.3f}s/{self._counts[name]}"
            for name in sorted(self._seconds)
        )
        return f"PhaseTimers({inner})"
