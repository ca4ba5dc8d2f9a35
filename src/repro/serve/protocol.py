"""The newline-JSON wire protocol of the ``repro.serve`` front end.

One JSON object per line in both directions, UTF-8, ``\\n`` terminated.
Requests carry an ``op`` and a client-chosen ``id``; every response echoes
that ``id`` so clients may pipeline requests over one connection and match
replies out of order.

Request ops::

    {"op": "query", "id": 1, "item": 42}            # route through the overlay
    {"op": "query", "id": 2, "item": 7, "node": 3,  # explicit initiator +
     "timeout_ms": 250}                             # per-request deadline
    {"op": "ping", "id": 3}                         # liveness + sim clock
    {"op": "info", "id": 4}                         # world parameters
    {"op": "stats", "id": 5}                        # metrics-registry snapshot
    {"op": "metrics", "id": 6}                      # Prometheus text exposition

A ``query`` streams zero or more ``result`` lines (ranked by one-way
discovery delay) followed by exactly one terminal line: ``done`` on
success, ``error`` otherwise. The other ops answer with a single line.
Error codes are the closed set :data:`ERROR_CODES`; clients can switch on
them without parsing prose.

Both ends frame the byte stream with one :class:`LineSplitter`, which
enforces the :data:`MAX_LINE_BYTES` cap; decoding stays with the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "ERR_BAD_REQUEST",
    "ERR_INTERNAL",
    "ERR_NODE_OFFLINE",
    "ERR_OVERLOAD",
    "ERR_SHUTTING_DOWN",
    "ERR_TIMEOUT",
    "ERROR_CODES",
    "LineSplitter",
    "ProtocolError",
    "Request",
    "MAX_LINE_BYTES",
    "decode_line",
    "encode_line",
    "error_response",
    "parse_request",
]

#: Admission queue full — retry later, ideally with backoff.
ERR_OVERLOAD = "overload"
#: The per-request deadline expired before the query could run.
ERR_TIMEOUT = "timeout"
#: The requested initiator node is not currently online.
ERR_NODE_OFFLINE = "node_offline"
#: Malformed JSON, unknown op, or missing/invalid fields.
ERR_BAD_REQUEST = "bad_request"
#: The server is draining; no new queries are admitted.
ERR_SHUTTING_DOWN = "shutting_down"
#: Unexpected server-side failure.
ERR_INTERNAL = "internal"

ERROR_CODES = frozenset(
    {
        ERR_OVERLOAD,
        ERR_TIMEOUT,
        ERR_NODE_OFFLINE,
        ERR_BAD_REQUEST,
        ERR_SHUTTING_DOWN,
        ERR_INTERNAL,
    }
)

#: Most bytes a line may hold before its newline; a longer line is never
#: legitimate and closes the connection.
MAX_LINE_BYTES = 64 * 1024

_OPS = frozenset({"query", "ping", "info", "stats", "metrics"})

#: Built once: ``json.dumps`` with any keyword builds a new encoder per call.
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


class ProtocolError(ValueError):
    """A request line that cannot be honored (malformed or invalid)."""

    def __init__(self, message: str, req_id: Any = None) -> None:
        super().__init__(message)
        #: The offending request's ``id`` when one could be recovered,
        #: so the error response still correlates.
        self.req_id = req_id


@dataclass(frozen=True, slots=True)
class Request:
    """A validated request, ready for dispatch."""

    op: str
    req_id: Any
    item: int | None = None
    node: int | None = None
    timeout_ms: float | None = None


def encode_line(payload: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON with sorted keys + newline, UTF-8."""
    return (_encode(payload) + "\n").encode("utf-8")


class LineSplitter:
    """Incremental newline framing of one connection's byte stream.

    :meth:`feed` takes whatever bytes the transport delivered and returns
    every line they complete, in order and without its newline; an
    unterminated remainder waits for the next :meth:`feed`, or for
    :meth:`remainder` at end of stream. A line may hold up to
    :data:`MAX_LINE_BYTES` before its newline — the rule
    ``asyncio.StreamReader.readline`` applies with that limit. Once a line
    breaks it (its newline lies beyond the cap, or the remainder has
    outgrown the cap with no newline) ``overflowed`` is set: the lines
    before it are still returned, nothing from it on ever is, and the
    caller closes the connection.
    """

    __slots__ = ("overflowed", "_tail")

    def __init__(self) -> None:
        self.overflowed = False
        self._tail = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Every line ``data`` completes; sets ``overflowed`` on a long one."""
        tail = self._tail
        if self.overflowed:
            return []
        if b"\n" not in data:
            # Only the new bytes are scanned, so a line that trickles in
            # costs linear time in its length.
            tail += data
            if len(tail) > MAX_LINE_BYTES:
                self._overflow()
            return []
        if tail:
            tail += data
            data = bytes(tail)
            tail.clear()
        lines = data.split(b"\n")
        tail += lines.pop()
        if len(data) > MAX_LINE_BYTES:  # only then can one line be too long
            for index, line in enumerate(lines):
                if len(line) > MAX_LINE_BYTES:
                    self._overflow()
                    return lines[:index]
            if len(tail) > MAX_LINE_BYTES:
                self._overflow()
        return lines

    def remainder(self) -> bytes:
        """The unterminated last line at end of stream (may be empty)."""
        rest = bytes(self._tail)
        self._tail.clear()
        return rest

    def _overflow(self) -> None:
        self.overflowed = True
        self._tail.clear()


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a dict; :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"not valid UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    return payload


def parse_request(line: bytes | str) -> Request:
    """Decode and validate one request line.

    Raises :class:`ProtocolError` (carrying the request ``id`` when it was
    recoverable) on anything the server cannot act on.
    """
    payload = decode_line(line)
    req_id = payload.get("id")
    op = payload.get("op")
    if not isinstance(op, str) or op not in _OPS:
        raise ProtocolError(f"unknown op {op!r}", req_id)
    if req_id is None:
        raise ProtocolError("request is missing an 'id'", req_id)
    if op != "query":
        return Request(op=op, req_id=req_id)
    item = payload.get("item")
    if not isinstance(item, int) or isinstance(item, bool) or item < 0:
        raise ProtocolError(f"'item' must be a non-negative integer, got {item!r}", req_id)
    node = payload.get("node")
    if node is not None and (not isinstance(node, int) or isinstance(node, bool) or node < 0):
        raise ProtocolError(f"'node' must be a non-negative integer, got {node!r}", req_id)
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) or isinstance(timeout_ms, bool):
            raise ProtocolError(f"'timeout_ms' must be a number, got {timeout_ms!r}", req_id)
        if timeout_ms <= 0:
            raise ProtocolError(f"'timeout_ms' must be positive, got {timeout_ms!r}", req_id)
        timeout_ms = float(timeout_ms)
    return Request(op="query", req_id=req_id, item=item, node=node, timeout_ms=timeout_ms)


def error_response(req_id: Any, code: str, message: str) -> dict[str, Any]:
    """The terminal ``error`` line for a failed request."""
    assert code in ERROR_CODES, code
    return {"id": req_id, "type": "error", "error": code, "message": message}
