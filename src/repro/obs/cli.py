"""``repro-trace``: record, summarize, and convert simulation traces.

Usage::

    repro-trace record --preset smoke --seed 0 --out trace.jsonl \
        --chrome trace.json            # run traced, export both formats
    repro-trace record --preset smoke --record-dir runs/smoke \
        --topology-interval 3600       # full record directory for repro-report
    repro-trace summarize trace.jsonl  # headline counts as JSON
    repro-trace convert trace.jsonl --out trace.json   # JSONL -> Chrome

``record`` runs one simulation with a live tracer attached, hashes its
event stream (the digest is reported so recordings double as
determinism evidence), and writes the JSONL trace and optionally the
Chrome trace-event JSON (open it in chrome://tracing or Perfetto).
All human-readable output goes to stdout as one JSON document, so the
command composes with ``jq``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.chrome import validate_chrome, write_chrome
from repro.obs.trace import read_jsonl

__all__ = ["main"]


def summarize_events(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """The :meth:`~repro.obs.trace.Tracer.summary` shape over event dicts."""
    per_cat: dict[str, int] = {}
    per_name: dict[str, int] = {}
    spans = 0
    total = 0
    for ev in events:
        total += 1
        cat = str(ev.get("cat", ""))
        per_cat[cat] = per_cat.get(cat, 0) + 1
        key = f"{cat}/{ev.get('name', '')}"
        per_name[key] = per_name.get(key, 0) + 1
        if ev.get("ph") == "X":
            spans += 1
    return {
        "events": total,
        "spans": spans,
        "by_category": dict(sorted(per_cat.items())),
        "by_name": dict(sorted(per_name.items())),
    }


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.experiments.common import preset_config
    from repro.obs.record import record_run

    config = preset_config(args.preset, seed=args.seed)
    config = config.as_static() if args.scheme == "static" else config.as_dynamic()
    recorded = record_run(
        config,
        args.engine,
        record_dir=args.record_dir,
        hash_events=not args.no_digest,
        topology_interval=args.topology_interval,
        telemetry_port=args.telemetry_port,
        access_log=args.access_log,
        access_log_sample=args.access_log_sample,
    )
    report: dict[str, Any] = recorded.summary()
    if args.record_dir is not None:
        report["record_dir"] = str(args.record_dir)
    else:
        report["jsonl"] = str(recorded.tracer.write_jsonl(args.out))
        if args.chrome is not None:
            report["chrome"] = str(write_chrome(recorded.tracer.events, args.chrome))
        if args.metrics:
            report["metrics"] = recorded.registry.snapshot()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _read_jsonl_lenient(path: Path) -> tuple[list[dict[str, Any]], list[str]]:
    """Every parseable event line, plus human-readable notes on the rest.

    A trace cut off mid-write (crashed run, full disk, ctrl-C) ends in a
    truncated line; earlier tooling raised on it and hid the thousands of
    valid events before it. Malformed lines are skipped with a note instead
    — JSONL is prefix-valid, so everything up to the damage is real data.
    """
    events: list[dict[str, Any]] = []
    notes: list[str] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                notes.append(
                    f"line {lineno}: malformed JSON skipped (truncated trace?)"
                )
                continue
            if isinstance(payload, dict):
                events.append(payload)
            else:
                notes.append(f"line {lineno}: not a JSON object; skipped")
    return events, notes


def _cmd_summarize(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    if not path.is_file():
        print(f"repro-trace: error: no such trace: {path}", file=sys.stderr)
        return 1
    notes: list[str] = []
    if path.suffix == ".json":
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(
                f"repro-trace: error: {path} is not valid JSON ({exc.msg}); "
                "for a JSONL trace use the .jsonl extension",
                file=sys.stderr,
            )
            return 1
        events = document.get("traceEvents", [])
        events = [ev for ev in events if ev.get("ph") != "M"]
    else:
        events, notes = _read_jsonl_lenient(path)
    summary = summarize_events(events)
    if notes:
        summary["skipped_lines"] = len(notes)
        for note in notes:
            print(f"repro-trace: warning: {note}", file=sys.stderr)
    if not events:
        print(
            f"repro-trace: note: {path} holds no events "
            "(empty or fully truncated trace)",
            file=sys.stderr,
        )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    events = read_jsonl(args.trace)
    if not events:
        print(f"repro-trace: error: {args.trace} holds no events", file=sys.stderr)
        return 1
    path = write_chrome(events, args.out)
    document = json.loads(path.read_text(encoding="utf-8"))
    errors = validate_chrome(document)
    if errors:
        for error in errors:
            print(f"repro-trace: invalid chrome trace: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"chrome": str(path), "events": len(events)}, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Record, summarize, and convert simulation traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="run one traced simulation")
    record.add_argument("--preset", default="smoke", help="world-size preset")
    record.add_argument("--seed", type=int, default=0, help="root seed")
    record.add_argument(
        "--engine",
        default="fast",
        choices=("fast", "fast-reference", "detailed"),
        help="engine to trace (default: fast)",
    )
    record.add_argument(
        "--scheme",
        default="dynamic",
        choices=("static", "dynamic"),
        help="link-management scheme (default: dynamic)",
    )
    record.add_argument(
        "--out",
        default="repro-trace.jsonl",
        help="JSONL trace output path (default: repro-trace.jsonl)",
    )
    record.add_argument(
        "--chrome",
        default=None,
        help="also write Chrome trace-event JSON to this path",
    )
    record.add_argument(
        "--metrics",
        action="store_true",
        help="include the metrics-registry snapshot in the report",
    )
    record.add_argument(
        "--no-digest",
        action="store_true",
        help="skip event-stream hashing (slightly faster)",
    )
    record.add_argument(
        "--record-dir",
        default=None,
        help="write a full record directory (trace.jsonl / topology.jsonl / "
        "metrics.json / summary.json) here instead of a lone trace — the "
        "input format of repro-report",
    )
    record.add_argument(
        "--topology-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also snapshot the overlay every SECONDS of simulated time "
        "(e.g. 3600 for hourly)",
    )
    record.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live Prometheus exposition on this HTTP port while the "
        "run executes (0 = ephemeral; scrape /metrics or point repro-top "
        "--url at it)",
    )
    record.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="write sampled structured access-log lines derived from query "
        "spans (with --record-dir, relative paths land inside it)",
    )
    record.add_argument(
        "--access-log-sample",
        type=float,
        default=1.0,
        help="deterministic hash-based access-log sampling rate (default 1.0)",
    )
    record.set_defaults(func=_cmd_record)

    summarize = sub.add_parser("summarize", help="headline counts of a trace")
    summarize.add_argument("trace", help="JSONL trace (or .json Chrome trace)")
    summarize.set_defaults(func=_cmd_summarize)

    convert = sub.add_parser("convert", help="JSONL -> Chrome trace-event JSON")
    convert.add_argument("trace", help="JSONL trace path")
    convert.add_argument(
        "--out", default="repro-trace.json", help="Chrome JSON output path"
    )
    convert.set_defaults(func=_cmd_convert)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
