"""``repro-report``: one self-contained HTML report per run.

Takes either a *record directory* (the ``trace.jsonl`` / ``topology.jsonl``
/ ``metrics.json`` / ``summary.json`` layout written by
:func:`repro.obs.record.record_run` with ``record_dir`` set) or an
orchestrate run-manifest JSON, and renders a single HTML file with
**inline SVG charts and no external assets** — no scripts, no
stylesheets, no fonts, no URLs — so the file can be archived next to the
run artifacts and opened anywhere, forever (CI greps the output for
``http://``/``https://`` to keep it that way).

A record-directory report shows recall-vs-time, query traffic, the
reconfiguration rate with the detected convergence point marked, the
overlay's degree distributions and churn/consistency/reachability series
(when topology snapshots were recorded), wall-clock phase totals, and the
headline numbers including **time-to-convergence**. A manifest report shows
the per-task convergence and digest table plus aggregate phase totals.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["main", "render_report", "write_report"]

#: Chart palette (series are cycled through these).
_COLORS = ("#2563eb", "#dc2626", "#059669", "#7c3aed", "#d97706")

_CSS = """
body { font-family: sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1f2937; background: #ffffff; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #e5e7eb; padding-bottom: .4rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
.cards { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.card { border: 1px solid #e5e7eb; border-radius: .4rem; padding: .6rem 1rem;
        min-width: 9rem; }
.card .label { font-size: .75rem; color: #6b7280; text-transform: uppercase; }
.card .value { font-size: 1.2rem; font-weight: bold; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { border: 1px solid #e5e7eb; padding: .3rem .7rem; font-size: .85rem;
         text-align: left; }
th { background: #f9fafb; }
svg { margin: .4rem 0; }
.footnote { color: #6b7280; font-size: .8rem; margin-top: 2rem; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _fmt(value: Any) -> str:
    """Compact human formatting for card/table values."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e9:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


# ----------------------------------------------------------------------
# Inline SVG charts (no external assets; xmlns omitted on purpose —
# inline SVG in HTML needs none, and the self-containment gate greps
# for "http")
# ----------------------------------------------------------------------
def _y_ticks(y_max: float, n: int = 4) -> list[float]:
    if y_max <= 0:
        return [0.0]
    return [y_max * i / n for i in range(n + 1)]


def _svg_line_chart(
    title: str,
    x: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    width: int = 640,
    height: int = 240,
    x_label: str = "hour",
    markers: Sequence[tuple[float, str]] = (),
) -> str:
    """A multi-series line chart; ``markers`` draw labelled vertical lines."""
    left, right, top, bottom = 56, 16, 28, 34
    plot_w, plot_h = width - left - right, height - top - bottom
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    parts.append(
        f'<text x="{left}" y="16" font-size="13" font-weight="bold">{_esc(title)}</text>'
    )
    xs = [float(v) for v in x]
    if not xs or all(len(vals) == 0 for _name, vals in series):
        parts.append(
            f'<text x="{width // 2}" y="{height // 2}" font-size="12" '
            f'text-anchor="middle" fill="#6b7280">no data</text></svg>'
        )
        return "".join(parts)
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    y_max = max((max(vals, default=0.0) for _name, vals in series), default=0.0)
    y_max = y_max * 1.05 or 1.0

    def px(xv: float) -> float:
        return left + (xv - x_min) / x_span * plot_w

    def py(yv: float) -> float:
        return top + plot_h - (yv / y_max) * plot_h

    # Axes and y gridlines/labels.
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="#9ca3af"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#9ca3af"/>'
    )
    for tick in _y_ticks(y_max):
        yp = py(tick)
        parts.append(
            f'<line x1="{left}" y1="{yp:.1f}" x2="{left + plot_w}" y2="{yp:.1f}" '
            f'stroke="#f3f4f6"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{yp + 4:.1f}" font-size="10" '
            f'text-anchor="end" fill="#6b7280">{_fmt(tick)}</text>'
        )
    for xv in (x_min, x_max):
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - 14}" font-size="10" '
            f'text-anchor="middle" fill="#6b7280">{_fmt(xv)}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 2}" font-size="10" '
        f'text-anchor="middle" fill="#6b7280">{_esc(x_label)}</text>'
    )
    # Series polylines + legend.
    legend_x = left + 8
    for idx, (name, vals) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(
            f"{px(xv):.1f},{py(float(yv)):.1f}" for xv, yv in zip(xs, vals)
        )
        if pts:
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
        parts.append(
            f'<rect x="{legend_x}" y="{top - 6}" width="10" height="3" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{top - 2}" font-size="10" '
            f'fill="#374151">{_esc(name)}</text>'
        )
        legend_x += 20 + 7 * len(name)
    # Vertical markers (e.g. the convergence point).
    for xv, label in markers:
        if not x_min <= xv <= x_max:
            continue
        xp = px(xv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{top}" x2="{xp:.1f}" y2="{top + plot_h}" '
            f'stroke="#111827" stroke-dasharray="4,3"/>'
        )
        parts.append(
            f'<text x="{xp + 4:.1f}" y="{top + 12}" font-size="10" '
            f'fill="#111827">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_bar_chart(
    title: str,
    labels: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    width: int = 640,
    height: int = 240,
    x_label: str = "",
) -> str:
    """Grouped vertical bars — one group per label, one bar per series."""
    left, right, top, bottom = 56, 16, 28, 34
    plot_w, plot_h = width - left - right, height - top - bottom
    parts = [f'<svg width="{width}" height="{height}" role="img">']
    parts.append(
        f'<text x="{left}" y="16" font-size="13" font-weight="bold">{_esc(title)}</text>'
    )
    if not labels or not series:
        parts.append(
            f'<text x="{width // 2}" y="{height // 2}" font-size="12" '
            f'text-anchor="middle" fill="#6b7280">no data</text></svg>'
        )
        return "".join(parts)
    y_max = max((max(vals, default=0.0) for _name, vals in series), default=0.0)
    y_max = y_max * 1.05 or 1.0
    n_groups, n_series = len(labels), len(series)
    group_w = plot_w / n_groups
    bar_w = max(2.0, group_w * 0.8 / n_series)
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="#9ca3af"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="#9ca3af"/>'
    )
    for tick in _y_ticks(y_max):
        yp = top + plot_h - (tick / y_max) * plot_h
        parts.append(
            f'<text x="{left - 6}" y="{yp + 4:.1f}" font-size="10" '
            f'text-anchor="end" fill="#6b7280">{_fmt(tick)}</text>'
        )
    legend_x = left + 8
    for idx, (name, _vals) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        parts.append(
            f'<rect x="{legend_x}" y="{top - 9}" width="10" height="6" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{top - 2}" font-size="10" '
            f'fill="#374151">{_esc(name)}</text>'
        )
        legend_x += 20 + 7 * len(name)
    for g, label in enumerate(labels):
        gx = left + g * group_w
        for s, (_name, vals) in enumerate(series):
            val = float(vals[g]) if g < len(vals) else 0.0
            bar_h = (val / y_max) * plot_h
            bx = gx + group_w * 0.1 + s * bar_w
            parts.append(
                f'<rect x="{bx:.1f}" y="{top + plot_h - bar_h:.1f}" '
                f'width="{bar_w:.1f}" height="{bar_h:.1f}" '
                f'fill="{_COLORS[s % len(_COLORS)]}"/>'
            )
        parts.append(
            f'<text x="{gx + group_w / 2:.1f}" y="{height - 14}" font-size="10" '
            f'text-anchor="middle" fill="#6b7280">{_esc(label)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{left + plot_w / 2:.1f}" y="{height - 2}" font-size="10" '
            f'text-anchor="middle" fill="#6b7280">{_esc(x_label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# HTML fragments
# ----------------------------------------------------------------------
def _cards(items: Sequence[tuple[str, Any]]) -> str:
    cells = "".join(
        f'<div class="card"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(_fmt(value))}</div></div>'
        for label, value in items
    )
    return f'<div class="cards">{cells}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_fmt(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>{body}</table>"


def _phase_rows(phases: Mapping[str, Any]) -> list[list[Any]]:
    rows = []
    for name in sorted(phases):
        entry = phases[name]
        rows.append([name, f"{float(entry['seconds']):.3f}", entry["count"]])
    return rows


def _telemetry_rows(aggregate: Mapping[str, Any]) -> list[list[Any]]:
    """Flatten a merged registry snapshot into ``[metric, kind, value]`` rows.

    Renders the scalar-ish kinds (counters, gauges, computed values, Welford
    summaries, histogram totals); series-shaped entries (buckets,
    timeseries) reduce to their totals/lengths — the report is a digest, not
    a re-plot of every instrument.
    """
    rows: list[list[Any]] = []
    for name in sorted(aggregate):
        entry = aggregate[name]
        kind = entry.get("type")
        if kind in ("counter", "gauge"):
            for label, value in sorted(entry.get("values", {}).items()):
                rows.append([f"{name}{{{label}}}" if label else name, kind, value])
        elif kind == "value":
            rows.append([name, "value", entry.get("value")])
        elif kind == "welford":
            rows.append(
                [
                    name,
                    "welford",
                    f"n={entry.get('count')} mean={_fmt(entry.get('mean'))} "
                    f"max={_fmt(entry.get('max'))}",
                ]
            )
        elif kind == "histogram":
            for label, series in sorted(entry.get("values", {}).items()):
                rows.append(
                    [
                        f"{name}{{{label}}}" if label else name,
                        "histogram",
                        f"n={series.get('count')} sum={_fmt(series.get('sum'))} "
                        f"mean={_fmt(series.get('mean'))}",
                    ]
                )
        elif kind == "buckets":
            rows.append([name, "buckets", f"total={sum(entry.get('counts', []))}"])
        elif kind == "timeseries":
            rows.append([name, "timeseries", f"points={len(entry.get('values', []))}"])
    return rows


def _convergence_text(convergence: Mapping[str, Any] | None) -> str:
    if not convergence:
        return "not measured"
    if convergence.get("converged"):
        return f"{_fmt(convergence.get('time'))} h"
    return "did not converge"


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{body}"
        '<p class="footnote">Generated by repro-report. Self-contained: '
        "inline SVG only, no external assets.</p></body></html>\n"
    )


# ----------------------------------------------------------------------
# Record-directory report
# ----------------------------------------------------------------------
def _load_topology(path: Path) -> list[dict[str, Any]]:
    snapshots: list[dict[str, Any]] = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                snapshots.append(json.loads(line))
    return snapshots


def _render_record(record_dir: Path) -> str:
    summary_path = record_dir / "summary.json"
    if not summary_path.is_file():
        raise ConfigurationError(
            f"{record_dir} is not a record directory (no summary.json); "
            "produce one with repro-trace record --record-dir"
        )
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    run = summary.get("run", {})
    convergence = summary.get("convergence")
    series = summary.get("series", {})
    hours = series.get("hours", [])
    markers: list[tuple[float, str]] = []
    if convergence and convergence.get("converged"):
        markers.append((float(convergence["time"]), "converged"))

    body: list[str] = []
    body.append(
        _cards(
            [
                ("scheme", run.get("scheme")),
                ("engine", summary.get("engine")),
                ("queries", run.get("total_queries")),
                ("hits", run.get("total_hits")),
                ("hit rate", run.get("hit_rate")),
                ("reconfigurations", run.get("reconfigurations")),
                ("time to convergence", _convergence_text(convergence)),
            ]
        )
    )
    if convergence:
        body.append(
            "<p>Convergence detector: threshold "
            f"{_esc(_fmt(convergence.get('threshold')))} reconfigurations/hour "
            f"(peak {_esc(_fmt(convergence.get('peak')))}), window "
            f"{_esc(_fmt(convergence.get('window')))} intervals — "
            f"<strong>{_esc(_convergence_text(convergence))}</strong>.</p>"
        )
    body.append("<h2>Recall over time</h2>")
    body.append(
        _svg_line_chart(
            "recall (hits / queries per hour)",
            hours,
            [("recall", series.get("recall", []))],
            markers=markers,
        )
    )
    body.append("<h2>Traffic</h2>")
    body.append(
        _svg_line_chart(
            "query messages per hour",
            hours,
            [("messages", series.get("messages", []))],
        )
    )
    body.append("<h2>Reconfiguration rate</h2>")
    body.append(
        _svg_line_chart(
            "reconfigurations per hour",
            hours,
            [("reconfigurations", series.get("reconfigs", []))],
            markers=markers,
        )
    )

    topology_path = record_dir / "topology.jsonl"
    if topology_path.is_file():
        snapshots = _load_topology(topology_path)
        if snapshots:
            body.append("<h2>Overlay topology</h2>")
            times_h = [float(s["time"]) / 3600.0 for s in snapshots]
            body.append(
                _svg_line_chart(
                    "neighbor churn / consistency / reachability",
                    times_h,
                    [
                        ("churn", [float(s["churn"]) for s in snapshots]),
                        (
                            "consistency",
                            [float(s["consistency_ratio"]) for s in snapshots],
                        ),
                        (
                            "reachability",
                            [float(s["reachability"]) for s in snapshots],
                        ),
                    ],
                    markers=markers,
                )
            )
            last = snapshots[-1]
            out_dist = {int(k): int(v) for k, v in last["out_degree_distribution"].items()}
            in_dist = {int(k): int(v) for k, v in last["in_degree_distribution"].items()}
            degrees = sorted(set(out_dist) | set(in_dist))
            body.append(
                _svg_bar_chart(
                    f"degree distribution at t={_fmt(float(last['time']) / 3600.0)} h",
                    [str(d) for d in degrees],
                    [
                        ("out-degree", [out_dist.get(d, 0) for d in degrees]),
                        ("in-degree", [in_dist.get(d, 0) for d in degrees]),
                    ],
                    x_label="degree",
                )
            )
            body.append(
                _table(
                    ["snapshot", "online", "edges", "gini(in)", "top-5 share", "churn"],
                    [
                        [
                            f"t={_fmt(float(s['time']) / 3600.0)}h",
                            s["n_online"],
                            s["n_edges"],
                            s["in_degree_gini"],
                            s["in_degree_top5_share"],
                            s["churn"],
                        ]
                        for s in snapshots[-5:]
                    ],
                )
            )

    phases = summary.get("phases") or {}
    if phases:
        body.append("<h2>Wall-clock phases</h2>")
        body.append(_table(["phase", "seconds", "count"], _phase_rows(phases)))
    trace = summary.get("trace") or {}
    if trace:
        body.append("<h2>Trace</h2>")
        body.append(
            _table(
                ["category", "events"],
                sorted((trace.get("by_category") or {}).items()),
            )
        )
    telemetry = summary.get("telemetry") or {}
    if telemetry.get("access_log") or telemetry.get("port") is not None:
        body.append("<h2>Live telemetry</h2>")
        body.append(
            _cards(
                [
                    ("exposition port", telemetry.get("port")),
                    ("access log", telemetry.get("access_log")),
                    ("access-log lines", telemetry.get("access_log_lines")),
                ]
            )
        )
    digest = summary.get("event_digest")
    if digest:
        body.append(f"<p>Event-stream digest: <code>{_esc(digest)}</code></p>")
    scheme = run.get("scheme", "run")
    return _page(f"repro run report — {scheme}", "".join(body))


# ----------------------------------------------------------------------
# Manifest report
# ----------------------------------------------------------------------
def _render_manifest(manifest: Mapping[str, Any]) -> str:
    tasks = manifest.get("tasks", [])
    cache = manifest.get("cache", {})
    body: list[str] = []
    body.append(
        _cards(
            [
                ("tasks", len(tasks)),
                ("cache hits", cache.get("hits")),
                ("executed", cache.get("executed")),
                ("errors", cache.get("errors")),
                ("jobs", manifest.get("jobs")),
                ("version", manifest.get("version")),
            ]
        )
    )
    body.append("<h2>Tasks</h2>")
    rows = []
    for task in tasks:
        convergence = task.get("convergence")
        rows.append(
            [
                task.get("task_id"),
                task.get("engine"),
                task.get("cache_hit"),
                _convergence_text(convergence),
                (task.get("result_digest") or "")[:12],
                task.get("error") or "",
            ]
        )
    body.append(
        _table(
            ["task", "engine", "cached", "convergence", "digest", "error"], rows
        )
    )
    phases = (manifest.get("obs") or {}).get("phases") or {}
    if phases:
        body.append("<h2>Aggregate wall-clock phases</h2>")
        body.append(_table(["phase", "seconds", "count"], _phase_rows(phases)))
    telemetry = (manifest.get("obs") or {}).get("telemetry") or {}
    if telemetry:
        body.append("<h2>Aggregate telemetry (all tasks merged)</h2>")
        body.append(_table(["metric", "kind", "value"], _telemetry_rows(telemetry)))
    grid = manifest.get("grid") or {}
    if grid:
        body.append("<h2>Grid</h2>")
        body.append(_table(["key", "value"], sorted(grid.items())))
    return _page("repro grid report", "".join(body))


# ----------------------------------------------------------------------
# Serving report (repro-loadgen output)
# ----------------------------------------------------------------------
def _serving_trial_body(report: Mapping[str, Any]) -> list[str]:
    """Cards + latency-tail bars for one loadgen trial."""
    latency = report.get("latency") or {}
    body: list[str] = []
    body.append(
        _cards(
            [
                ("mode", report.get("mode")),
                ("connections", report.get("connections")),
                ("requests", report.get("requests")),
                ("achieved qps", f"{float(report.get('achieved_qps') or 0.0):.1f}"),
                ("offered qps", report.get("offered_qps")),
                ("errors", report.get("error_count")),
                ("dropped", report.get("dropped")),
                ("hit fraction", f"{float(report.get('hit_fraction') or 0.0):.3f}"),
            ]
        )
    )
    labels = ["p50", "p95", "p99", "p99.9", "mean", "max"]
    values = [
        float(latency.get(key) or 0.0)
        for key in ("p50_ms", "p95_ms", "p99_ms", "p999_ms", "mean_ms", "max_ms")
    ]
    body.append(
        _svg_bar_chart(
            "Latency tail (ms)", labels, [("latency ms", values)], x_label="percentile"
        )
    )
    if report.get("errors"):
        body.append("<h2>Errors</h2>")
        body.append(
            _table(["code", "count"], sorted(dict(report["errors"]).items()))
        )
    return body


def _render_serving(report: Mapping[str, Any]) -> str:
    """The serving panel: one trial, or a saturation sweep with its knee."""
    schema = str(report.get("schema", ""))
    body: list[str] = []
    if schema.startswith("repro.serve/sweep"):
        steps = [dict(step) for step in report.get("steps", [])]
        body.append(
            _cards(
                [
                    ("sweep steps", len(steps)),
                    ("knee qps", report.get("knee_qps")),
                    ("degraded at qps", report.get("degraded_at_qps")),
                ]
            )
        )
        offered = [float(step.get("offered_qps") or 0.0) for step in steps]
        achieved = [float(step.get("achieved_qps") or 0.0) for step in steps]
        p99 = [float((step.get("latency") or {}).get("p99_ms") or 0.0) for step in steps]
        markers: list[tuple[float, str]] = []
        if report.get("knee_qps") is not None:
            markers.append((float(report["knee_qps"]), "knee"))
        body.append(
            _svg_line_chart(
                "Offered vs achieved QPS",
                offered,
                [("offered", offered), ("achieved", achieved)],
                x_label="offered qps",
                markers=markers,
            )
        )
        body.append(
            _svg_line_chart(
                "p99 latency (ms) vs offered QPS",
                offered,
                [("p99 ms", p99)],
                x_label="offered qps",
                markers=markers,
            )
        )
        body.append("<h2>Steps</h2>")
        rows = [
            [
                f"{float(step.get('offered_qps') or 0.0):.0f}",
                f"{float(step.get('achieved_qps') or 0.0):.0f}",
                f"{float((step.get('latency') or {}).get('p50_ms') or 0.0):.2f}",
                f"{float((step.get('latency') or {}).get('p99_ms') or 0.0):.2f}",
                step.get("error_count"),
                step.get("dropped"),
            ]
            for step in steps
        ]
        body.append(
            _table(
                ["offered qps", "achieved qps", "p50 ms", "p99 ms", "errors", "dropped"],
                rows,
            )
        )
        if steps:
            body.append("<h2>Last step detail</h2>")
            body.extend(_serving_trial_body(steps[-1]))
        return _page("repro serving report — saturation sweep", "".join(body))
    body.extend(_serving_trial_body(report))
    return _page(f"repro serving report — {report.get('mode', 'trial')} loop", "".join(body))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def render_report(source: str | Path) -> str:
    """Render ``source`` — record directory, manifest, or loadgen report."""
    path = Path(source)
    if path.is_dir():
        return _render_record(path)
    if path.is_file():
        document = json.loads(path.read_text(encoding="utf-8"))
        schema = str(document.get("schema", ""))
        if schema.startswith("repro.serve/"):
            return _render_serving(document)
        if not schema.startswith("repro.orchestrate/manifest"):
            raise ConfigurationError(
                f"{path} is not an orchestrate manifest or serving report "
                "(missing schema tag)"
            )
        return _render_manifest(document)
    raise ConfigurationError(f"no such record directory or manifest: {path}")


def write_report(source: str | Path, out: str | Path) -> Path:
    """Render ``source`` and write the HTML to ``out``."""
    target = Path(out)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_report(source), encoding="utf-8")
    return target


def _default_out(source: Path) -> Path:
    if source.is_dir():
        return source / "report.html"
    return source.with_suffix(".report.html")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description=(
            "Render one self-contained HTML report from a record directory "
            "(repro-trace record --record-dir) or an orchestrate manifest."
        ),
    )
    parser.add_argument(
        "source", help="record directory or run-manifest JSON path"
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output HTML path (default: report.html in the record dir, "
        "or <manifest>.report.html)",
    )
    args = parser.parse_args(argv)
    source = Path(args.source)
    out = Path(args.out) if args.out is not None else _default_out(source)
    try:
        path = write_report(source, out)
    except (ConfigurationError, json.JSONDecodeError, OSError) as exc:
        print(f"repro-report: error: {exc}", file=sys.stderr)
        return 1
    kind = "record" if source.is_dir() else "manifest"
    print(
        json.dumps(
            {"report": str(path), "source": str(source), "kind": kind},
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
