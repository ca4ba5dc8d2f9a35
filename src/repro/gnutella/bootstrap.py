"""The specialized bootstrap ("host cache") server.

Section 4: "Gnutella defines that when a node logs in, it first contacts a
specialized server and retrieves a number of addresses of other nodes that
are currently online. The neighborhood list is then selected from these
nodes."

The server tracks who is online and hands out uniformly random candidates.
It is infrastructure, not a repository — it never sees queries or content.
"""

from __future__ import annotations

from typing import Iterable

from repro.rng import Draws
from repro.types import NodeId

__all__ = ["BootstrapServer"]


class BootstrapServer:
    """Uniform random sampling over the currently online population.

    Maintains a dense array + index-map so sampling k candidates is O(k)
    and join/leave are O(1) (swap-remove), which matters with thousands of
    churn events.
    """

    def __init__(self) -> None:
        self._online: list[NodeId] = []
        self._pos: dict[NodeId, int] = {}

    def __len__(self) -> int:
        return len(self._online)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._pos

    def join(self, node: NodeId) -> None:
        """Register ``node`` as online (idempotent)."""
        if node in self._pos:
            return
        self._pos[node] = len(self._online)
        self._online.append(node)

    def leave(self, node: NodeId) -> None:
        """Deregister ``node`` (idempotent)."""
        pos = self._pos.pop(node, None)
        if pos is None:
            return
        last = self._online.pop()
        if last != node:
            self._online[pos] = last
            self._pos[last] = pos

    def sample(
        self,
        rng: Draws,
        k: int,
        exclude: Iterable[NodeId] = (),
    ) -> list[NodeId]:
        """Up to ``k`` distinct random online nodes, minus ``exclude``.

        Returns fewer than ``k`` when the online population is small. The
        order is random (callers try candidates in the returned order).
        """
        if k <= 0:
            return []
        # Only ever read, so a caller's ready-made set is used as it is.
        excluded = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        online, pos = self._online, self._pos
        pool_size = available = len(online)
        for e in excluded:
            if e in pos:
                available -= 1
        if available <= 0:
            return []
        want = min(k, available)
        # Rejection sampling over the dense array: cheap because exclusions
        # are tiny (the requester and its current neighbors). One scalar
        # draw per try; the engine's stream is a ``repro.rng.ScalarDraws``,
        # which serves numpy's exact values from raw-word blocks
        # (``tests/test_rng_draws.py`` holds the property).
        picks: list[NodeId] = []
        seen: set[NodeId] = set()
        # Cap iterations defensively; with want <= available this terminates
        # quickly in expectation.
        integers = rng.integers
        for _ in range(8 * (want + len(excluded) + 1)):
            candidate = online[integers(pool_size)]
            if candidate in excluded or candidate in seen:
                continue
            seen.add(candidate)
            picks.append(candidate)
            if len(picks) == want:
                break
        if len(picks) < want:
            # Fall back to an exact draw (rare: tiny pools, heavy exclusion).
            remaining = [n for n in online if n not in excluded and n not in seen]
            idx = rng.permutation(len(remaining))[: want - len(picks)]
            picks.extend(remaining[i] for i in idx)
        return picks

    def online_nodes(self) -> tuple[NodeId, ...]:
        """Snapshot of the online population (diagnostics)."""
        return tuple(self._online)
