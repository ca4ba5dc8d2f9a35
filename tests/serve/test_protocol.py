"""Wire-protocol parsing, validation, encoding and line framing."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    ERR_OVERLOAD,
    ERROR_CODES,
    MAX_LINE_BYTES,
    LineSplitter,
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    parse_request,
)


def reference_encode_line(payload) -> bytes:
    """The encoder body before the prebuilt module-level encoder."""
    return (json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


class TestEncodeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(), _json_values, max_size=8))
    def test_byte_equal_to_json_dumps(self, payload):
        assert encode_line(payload) == reference_encode_line(payload)

    def test_reply_shapes_byte_equal(self):
        for payload in (
            {"id": 7, "type": "result", "rank": 0, "responder": 12, "hops": 1,
             "delay_ms": 555.0},
            {"id": "x", "type": "done", "status": "ok", "node": 3, "item": 42,
             "results": 0, "messages": 13, "nodes_contacted": 9, "sim_time": 7200.0,
             "queue_ms": 0.1, "latency_ms": 0.4, "trace_id": "t-0000002a"},
            error_response(None, ERR_OVERLOAD, "queue full é"),
            {"nan": float("nan"), "inf": float("-inf")},
        ):
            assert encode_line(payload) == reference_encode_line(payload)


def _whole_stream(stream: bytes) -> tuple[list[bytes], bool, bytes]:
    """Oracle: frame the whole stream at once.

    The lines before the first one longer than the cap (an unterminated
    remainder counts too), whether such a line exists, and the remainder.
    """
    *lines, rest = stream.split(b"\n")
    for index, line in enumerate(lines):
        if len(line) > MAX_LINE_BYTES:
            return lines[:index], True, b""
    if len(rest) > MAX_LINE_BYTES:
        return lines, True, b""
    return lines, False, rest


#: Line lengths: short ones, and the cap's neighbourhood on both sides.
_lengths = st.integers(min_value=0, max_value=6) | st.integers(
    min_value=MAX_LINE_BYTES - 2, max_value=MAX_LINE_BYTES + 2
)


def _line(length: int, fill: int) -> bytes:
    return bytes([fill]) * length


class TestLineSplitter:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(_lengths, st.sampled_from(b"a{ \r\xff")), max_size=8),
        _lengths,
        st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=24),
    )
    def test_any_chunking_yields_the_whole_stream_lines(self, lines, tail, cuts):
        stream = b"".join(_line(n, fill) + b"\n" for n, fill in lines) + _line(tail, 98)
        bounds = sorted({int(c * len(stream)) for c in cuts} | {0, len(stream)})
        splitter = LineSplitter()
        got = []
        for start, stop in zip(bounds, bounds[1:]):
            got.extend(splitter.feed(stream[start:stop]))
        expected, overflowed, rest = _whole_stream(stream)
        assert got == expected
        assert splitter.overflowed is overflowed
        assert splitter.remainder() == rest

    def test_cap_counts_the_bytes_before_the_newline(self):
        splitter = LineSplitter()
        line = b"x" * MAX_LINE_BYTES
        assert splitter.feed(line + b"\n") == [line]
        assert not splitter.overflowed
        assert splitter.feed(b"ok\n" + line + b"y\nlost\n") == [b"ok"]
        assert splitter.overflowed
        assert splitter.feed(b"after\n") == []

    def test_unterminated_growth_past_the_cap_overflows_early(self):
        splitter = LineSplitter()
        assert splitter.feed(b"x" * MAX_LINE_BYTES) == []
        assert not splitter.overflowed
        assert splitter.feed(b"x") == []
        assert splitter.overflowed
        assert splitter.remainder() == b""


class TestEncodeDecode:
    def test_roundtrip(self):
        payload = {"op": "query", "id": 7, "item": 3}
        assert decode_line(encode_line(payload)) == payload

    def test_encode_is_one_newline_terminated_line(self):
        line = encode_line({"op": "ping", "id": 0})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_garbage_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{not json\n")

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_invalid_utf8_raises(self):
        with pytest.raises(ProtocolError):
            decode_line(b"\xff\xfe\n")


class TestParseRequest:
    def test_query_full(self):
        request = parse_request(
            b'{"op": "query", "id": 9, "item": 4, "node": 2, "timeout_ms": 50}'
        )
        assert request.op == "query"
        assert request.req_id == 9
        assert request.item == 4
        assert request.node == 2
        assert request.timeout_ms == 50.0

    def test_query_minimal(self):
        request = parse_request(b'{"op": "query", "id": "abc", "item": 0}')
        assert request.node is None
        assert request.timeout_ms is None

    @pytest.mark.parametrize(
        "line",
        [
            b'{"op": "nope", "id": 1}',
            b'{"op": "query", "item": 1}',  # missing id
            b'{"op": "query", "id": 1}',  # missing item
            b'{"op": "query", "id": 1, "item": -1}',
            b'{"op": "query", "id": 1, "item": true}',
            b'{"op": "query", "id": 1, "item": 1, "node": -2}',
            b'{"op": "query", "id": 1, "item": 1, "timeout_ms": 0}',
            b'{"op": "query", "id": 1, "item": 1, "timeout_ms": "fast"}',
        ],
    )
    def test_invalid_requests_raise(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_error_carries_recovered_id(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "bogus", "id": 42}')
        assert excinfo.value.req_id == 42

    def test_non_query_ops_parse(self):
        for op in ("ping", "info", "stats"):
            request = parse_request(encode_line({"op": op, "id": 1}))
            assert request.op == op


class TestErrorResponse:
    def test_shape(self):
        response = error_response(3, ERR_OVERLOAD, "queue full")
        assert response == {
            "id": 3,
            "type": "error",
            "error": "overload",
            "message": "queue full",
        }

    def test_codes_are_a_closed_set(self):
        assert "overload" in ERROR_CODES
        assert "timeout" in ERROR_CODES
        assert len(ERROR_CODES) == 6
