"""Deterministic random-number management.

Every stochastic component in the library draws from a *named stream* derived
from a single root seed, so that

* the same seed reproduces the same simulation bit-for-bit, and
* adding draws to one component (e.g. the churn model) does not perturb the
  sequence seen by another (e.g. the query generator).

Streams are spawned with :class:`numpy.random.SeedSequence` using the stream
name hashed into the spawn key, which is the numpy-recommended way to derive
independent generators.

Example
-------
>>> streams = RngStreams(seed=7)
>>> churn_rng = streams.get("churn")
>>> query_rng = streams.get("queries")
>>> churn_rng is streams.get("churn")   # cached per name
True

The run loop's scalar draws go through :class:`ScalarDraws`, which serves
the same values from blocks of raw words at a fraction of numpy's per-call
cost:

>>> fast, slow = ScalarDraws(RngStreams(3).fresh("b")), RngStreams(3).fresh("b")
>>> [fast.integers(980), fast.random()] == [slow.integers(980), slow.random()]
True
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Protocol

import numpy as np

__all__ = ["Draws", "RngStreams", "ScalarDraws", "stream_key"]

#: Raw 64-bit words :class:`ScalarDraws` takes from its generator at a time.
BLOCK_WORDS = 256
_TWO32 = 1 << 32
_MASK32 = _TWO32 - 1
_DOUBLE_UNIT = 2.0**-53


def stream_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer key.

    Uses SHA-256 so the mapping is stable across Python processes (unlike
    :func:`hash`, which is salted per process for strings).
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed. Two :class:`RngStreams` built with the same seed hand out
        identical generators for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was built with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so draws interleave naturally within a component while remaining
        independent across components.
        """
        gen = self._cache.get(name)
        if gen is None:
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(stream_key(name),))
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, bypassing the cache.

        Useful for components that want a private generator whose consumption
        must not affect later :meth:`get` callers of the same name.
        """
        seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(stream_key(name),))
        return np.random.default_rng(seq)

    def child(self, name: str) -> "RngStreams":
        """Derive an independent sub-factory, e.g. one per simulation replica."""
        return RngStreams(seed=stream_key(name) ^ self._seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self._seed}, streams={sorted(self._cache)})"


class Draws(Protocol):
    """The scalar draws the run loop makes: a :class:`numpy.random.Generator`
    or the :class:`ScalarDraws` wrapped around one."""

    def integers(self, high: int, /) -> Any: ...

    def random(self) -> float: ...

    def permutation(self, n: int, /) -> np.ndarray: ...


class ScalarDraws:
    """Scalar ``integers(high)`` and ``random()`` bit-identical to numpy's,
    served from blocks of :data:`BLOCK_WORDS` raw PCG64 words.

    numpy spends 2-3 us of call overhead on one scalar draw; the run loop
    makes hundreds of thousands (a bootstrap try, a query's category and
    rank). Here a word costs a list pop.

    The values are numpy's exactly. ``random()`` is numpy's ``next_double``,
    ``(w >> 11) * 2**-53`` of the next word. A bounded ``integers`` with
    ``high`` below 2**32 is numpy's ``buffered_bounded_lemire_uint32``: it
    takes 32-bit halves, the low half of a fresh word first, and keeps the
    high half pending for the next 32-bit draw, as PCG64's ``has_uint32`` /
    ``uinteger`` do. A double takes a whole word and leaves that half
    pending. ``tests/test_rng_draws.py`` holds the property that compares
    every value, and the generator's state after :meth:`sync`, with numpy's.

    The wrapped generator runs up to one block ahead of the values served.
    :meth:`sync` puts it back at the logical position; ``permutation`` and
    ranges of 2**32 and above sync, let numpy draw, and re-read the pending
    half. There is deliberately no catch-all attribute forwarding: a draw
    this class does not model raises :class:`AttributeError` rather than
    silently consuming the stream out of order.
    """

    __slots__ = ("_gen", "_bitgen", "_words", "_block_state", "_half")

    def __init__(self, gen: np.random.Generator) -> None:
        bitgen = gen.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(
                f"ScalarDraws models PCG64 only, got {type(bitgen).__name__}"
            )
        self._gen = gen
        self._bitgen = bitgen
        #: Unserved words of the current block, last one next.
        self._words: list[int] = []
        #: The generator's state when the current block was drawn (None: no
        #: block outstanding, the generator is at the logical position).
        self._block_state: dict[str, Any] | None = None
        self._half: int | None = None
        self._read_half()

    def random(self) -> float:
        """numpy's ``Generator.random()``: one double from the next word."""
        try:
            word = self._words.pop()
        except IndexError:
            word = self._refill()
        return (word >> 11) * _DOUBLE_UNIT

    def integers(self, high: int) -> int:
        """numpy's ``Generator.integers(high)``: uniform over ``[0, high)``."""
        if not 1 < high < _TWO32:
            if high == 1:
                return 0  # numpy's zero-width range draws nothing
            return int(self._delegate(self._gen.integers, high))
        # ``_next32`` inlined for the first try: the call alone would cost a
        # sixth of this path, which runs once per bootstrap candidate.
        half = self._half
        if half is None:
            try:
                word = self._words.pop()
            except IndexError:
                word = self._refill()
            half = word & _MASK32
            self._half = word >> 32
        else:
            self._half = None
        m = half * high
        if m & _MASK32 < high:
            # Lemire's rejection: 2**32 mod high is the exact threshold.
            threshold = _TWO32 % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32

    def permutation(self, n: int) -> np.ndarray:
        """numpy's ``Generator.permutation(n)``, drawn by numpy itself."""
        return self._delegate(self._gen.permutation, n)

    def sync(self) -> None:
        """Put the wrapped generator at the logical position of the draws
        served so far, pending half included."""
        bitgen = self._bitgen
        if self._block_state is not None:
            bitgen.state = self._block_state
            bitgen.advance(BLOCK_WORDS - len(self._words))
            self._block_state = None
            self._words = []
        state = bitgen.state
        half = self._half
        state["has_uint32"], state["uinteger"] = (0, 0) if half is None else (1, half)
        bitgen.state = state

    def _delegate(self, draw: Callable[[int], Any], arg: int) -> Any:
        self.sync()
        value = draw(arg)
        self._read_half()
        return value

    def _read_half(self) -> None:
        state = self._bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> int:
        """Draw the next block and return its first word."""
        bitgen = self._bitgen
        self._block_state = bitgen.state
        words = bitgen.random_raw(BLOCK_WORDS).tolist()
        words.reverse()
        self._words = words
        return words.pop()

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        try:
            word = self._words.pop()
        except IndexError:
            word = self._refill()
        self._half = word >> 32
        return word & _MASK32
