"""Span arithmetic: self time = duration - children, unattributed = wall - sum of self."""

import json

import pytest

from benchmarks.e2e.spans import TAG, Patches, SpanLog, analyse


def _log(*entries):
    """A hand-written log; names are registered in order of first use."""
    log = SpanLog()
    for entry in entries:
        log.events.append(log.span_id(entry) if isinstance(entry, str) else entry)
    return log


def test_nested_self_times_and_the_unattributed_remainder():
    #  run      0 ............................ 10
    #    a        1 ........ 5
    #      b        2 .. 3
    #      b            3.5 . 4.5
    #    c                      6 ... 9
    log = _log("run", 0.0, "a", 1.0, "b", 2.0, 3.0, "b", 3.5, 4.5, 5.0, "c", 6.0, 9.0, 10.0)
    result = analyse(log)
    assert result["spans"] == 5
    assert result["n"] == {"run": 1, "a": 1, "b": 2, "c": 1}
    assert result["total_s"] == {"run": 10.0, "a": 4.0, "b": 2.0, "c": 3.0}
    assert result["self_s"]["b"] == 2.0
    assert result["self_s"]["a"] == 4.0 - 2.0
    assert result["self_s"]["c"] == 3.0
    # The root's self time is exactly what no layer accounts for ...
    wall = 10.0
    layers = sum(v for name, v in result["self_s"].items() if name != "run")
    assert result["self_s"]["run"] == wall - layers == 3.0
    # ... so self times plus nothing else add up to the wall time.
    assert sum(result["self_s"].values()) == wall


def test_analysis_can_start_and_stop_inside_the_log():
    log = _log("warm", 0.0, 1.0, "run", 2.0, "a", 2.5, 3.0, 4.0, "late", 5.0, 6.0)
    result = analyse(log, start=3, stop=9)
    assert result["n"] == {"warm": 0, "run": 1, "a": 1, "late": 0}
    assert result["self_s"]["run"] == 1.5


def test_unbalanced_log_is_an_error():
    with pytest.raises(ValueError, match="never ended"):
        analyse(_log("run", 0.0, "a", 1.0, 2.0))


def test_spans_file_carries_parents_and_request_ids(tmp_path):
    # One request, as the server and client see it: the codec spans read the
    # wire id (TAG); serve_query and telemetry get it from the encode spans
    # they run back to back with; search inherits its parent's.
    log = _log(
        "run", 0.0,
        "serve.client_codec", 1.0, TAG, 7, 1.1,
        "serve.decode", 2.0, TAG, 7, 2.1,
        "core.serve_query", 3.0, "core.search", 3.1, 3.4, 3.5,
        "serve.encode_done", 4.0, TAG, 7, 4.1,
        "obs.telemetry", 5.0, 5.1,
        "serve.client_codec", 6.0, TAG, 7, 6.1,
        10.0,
    )  # fmt: skip
    path = tmp_path / "out" / "spans.jsonl"
    analyse(log, spans_path=path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row[0] for row in rows] == [
        "run",
        "serve.client_codec",
        "serve.decode",
        "core.serve_query",
        "core.search",
        "serve.encode_done",
        "obs.telemetry",
        "serve.client_codec",
    ]
    assert rows[0][1:4] == [0.0, 10.0, -1]
    assert [row[3] for row in rows[1:]] == [0, 0, 0, 3, 0, 0, 0]
    assert [row[4] for row in rows] == [None, 7, 7, 7, 7, 7, 7, 7]


def test_patches_restore_module_class_and_instance_attributes():
    class Slotted:
        __slots__ = ()

        def method(self):
            return "original"

    class Plain:
        def method(self):
            return "original"

    original = Slotted.method
    plain = Plain()
    patches = Patches()
    patches.set(Slotted, "method", lambda self: "patched")
    patches.set(plain, "method", lambda: "patched")
    assert Slotted().method() == plain.method() == "patched"
    patches.restore()
    assert Slotted.method is original
    assert "method" not in vars(plain) and plain.method() == "original"
