"""``repro-bench compare``: regression gate between two bench snapshots.

Diffs the ``kernels`` block of two ``BENCH_<rev>.json`` files (the
performance trajectory ``repro-bench`` writes) metric by metric and fails —
non-zero exit — when any timing regressed by more than the threshold
(default 15%). CI runs it against the committed baseline snapshot so a
slowdown shows up in the pull request that caused it, not months later in
the trajectory plot.

Direction is inferred from the metric name: ``*seconds*`` and
``*us_per_query*`` are lower-is-better timings; ``*per_sec*`` and
``*speedup*`` are higher-is-better throughputs. Anything else
(``n_users``, ``queries``, ``max_hops`` ...) is a workload *parameter*:
never judged, but a parameter mismatch makes that kernel incomparable and
its timings are skipped with a note — comparing a 300-user flood to a
600-user flood would be noise, not signal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigurationError

__all__ = ["ComparisonReport", "MetricDelta", "compare_snapshots", "main"]

#: Default maximum tolerated slowdown (fraction of the old value).
DEFAULT_THRESHOLD = 0.15

#: Metric-name fragments marking lower-is-better timings (``rss`` covers the
#: scale tiers' ``peak_rss_mb`` memory column).
_LOWER_BETTER = ("seconds", "us_per_query", "rss")
#: Metric-name fragments marking higher-is-better throughputs.
_HIGHER_BETTER = ("per_sec", "speedup")


def _direction(metric: str) -> str | None:
    """``"lower"`` / ``"higher"`` for judged metrics, ``None`` for parameters."""
    for fragment in _HIGHER_BETTER:
        if fragment in metric:
            return "higher"
    for fragment in _LOWER_BETTER:
        if fragment in metric:
            return "lower"
    return None


@dataclass(frozen=True, slots=True)
class MetricDelta:
    """One judged metric: old vs new and the verdict."""

    kernel: str
    metric: str
    direction: str
    old: float
    new: float
    #: ``new / old`` — above 1.0 means the value grew.
    ratio: float
    regressed: bool

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering for the comparison report."""
        return {
            "kernel": self.kernel,
            "metric": self.metric,
            "direction": self.direction,
            "old": self.old,
            "new": self.new,
            "ratio": self.ratio,
            "regressed": self.regressed,
        }


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """Everything ``compare_snapshots`` decided, ready for JSON output."""

    old_rev: str
    new_rev: str
    threshold: float
    deltas: tuple[MetricDelta, ...]
    #: Human-readable notes on what could not be compared and why.
    skipped: tuple[str, ...]
    #: Set when the snapshots carry host provenance and it differs —
    #: timings are judged anyway, but the verdicts deserve suspicion.
    host_warning: str | None = None

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        """The deltas that crossed the threshold in the bad direction."""
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        """True when nothing regressed."""
        return not self.regressions

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (the CLI's stdout document)."""
        return {
            "old_rev": self.old_rev,
            "new_rev": self.new_rev,
            "threshold": self.threshold,
            "ok": self.ok,
            "regressions": [d.as_dict() for d in self.regressions],
            "deltas": [d.as_dict() for d in self.deltas],
            "skipped": list(self.skipped),
            "host_warning": self.host_warning,
        }


def _kernel_params(metrics: Mapping[str, Any]) -> dict[str, float]:
    """The non-judged metrics of one kernel (its workload parameters)."""
    return {
        name: float(value)
        for name, value in metrics.items()
        if _direction(name) is None and isinstance(value, (int, float))
    }


def _compare_block(
    old_block: Mapping[str, Any],
    new_block: Mapping[str, Any],
    *,
    kind: str,
    prefix: str,
    threshold: float,
    deltas: list[MetricDelta],
    skipped: list[str],
) -> None:
    """Judge one ``{name: {metric: value}}`` block, appending in place."""
    for name in sorted(old_block):
        label = f"{prefix}{name}"
        if name not in new_block:
            skipped.append(f"{kind} {name!r} missing from new snapshot")
            continue
        old_metrics, new_metrics = old_block[name], new_block[name]
        if _kernel_params(old_metrics) != _kernel_params(new_metrics):
            skipped.append(
                f"{kind} {name!r} workload parameters differ; timings not comparable"
            )
            continue
        for metric in sorted(old_metrics):
            direction = _direction(metric)
            if direction is None:
                continue
            if metric not in new_metrics:
                skipped.append(f"metric {label}.{metric} missing from new snapshot")
                continue
            old_val = float(old_metrics[metric])
            new_val = float(new_metrics[metric])
            if old_val <= 1e-12:
                skipped.append(f"metric {label}.{metric} has a zero baseline")
                continue
            ratio = new_val / old_val
            if direction == "lower":
                regressed = ratio > 1.0 + threshold
            else:
                regressed = ratio < 1.0 - threshold
            deltas.append(
                MetricDelta(label, metric, direction, old_val, new_val, ratio, regressed)
            )
    for name in sorted(new_block):
        if name not in old_block:
            skipped.append(f"{kind} {name!r} is new (no baseline)")


def _host_warning(
    old: Mapping[str, Any], new: Mapping[str, Any]
) -> str | None:
    """A warning string when both snapshots name hosts and they differ.

    Snapshots without a ``host`` block (pre-provenance history) compare
    silently, exactly as before; the warning needs evidence on both sides.
    """
    old_host = old.get("host") or {}
    new_host = new.get("host") or {}
    if not old_host or not new_host:
        return None
    differing = [
        key
        for key in ("cpu", "cores", "platform")
        if old_host.get(key) != new_host.get(key)
    ]
    if not differing:
        return None
    detail = "; ".join(
        f"{key}: {old_host.get(key)!r} vs {new_host.get(key)!r}" for key in differing
    )
    return (
        "snapshots were produced on different hosts — timings judged "
        f"anyway, treat verdicts with care ({detail})"
    )


def compare_snapshots(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> ComparisonReport:
    """Judge ``new``'s kernel timings against ``old``'s.

    A lower-is-better metric regresses when ``new > old * (1 + threshold)``;
    a higher-is-better one when ``new < old * (1 - threshold)``. Kernels
    missing from either snapshot, metrics with a near-zero baseline, and
    kernels whose workload parameters differ are skipped (with a note), not
    judged. Blocks other than ``kernels``, ``serving`` and ``scale`` (an
    old snapshot's ``profile`` block, say) are ignored.
    """
    if not 0 <= threshold:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    deltas: list[MetricDelta] = []
    skipped: list[str] = []
    _compare_block(
        old.get("kernels") or {},
        new.get("kernels") or {},
        kind="kernel",
        prefix="",
        threshold=threshold,
        deltas=deltas,
        skipped=skipped,
    )
    # The serving section (repro.bench.serving) uses the same shape and the
    # same direction vocabulary; judge it under a "serving:" namespace so
    # the report distinguishes a slow kernel from a slow front end.
    _compare_block(
        old.get("serving") or {},
        new.get("serving") or {},
        kind="serving section",
        prefix="serving:",
        threshold=threshold,
        deltas=deltas,
        skipped=skipped,
    )
    # Scale tiers (repro.bench.scale): same vocabulary again, judged under
    # "scale:". Deterministic outcome fields (events, queries, hits,
    # digest_match) double as parameters — they only differ between
    # snapshots when behaviour changed, in which case timings should indeed
    # be skipped as incomparable.
    _compare_block(
        old.get("scale") or {},
        new.get("scale") or {},
        kind="scale tier",
        prefix="scale:",
        threshold=threshold,
        deltas=deltas,
        skipped=skipped,
    )
    return ComparisonReport(
        old_rev=str(old.get("rev", "unknown")),
        new_rev=str(new.get("rev", "unknown")),
        threshold=threshold,
        deltas=tuple(deltas),
        skipped=tuple(skipped),
        host_warning=_host_warning(old, new),
    )


def _load(path: str | Path) -> dict[str, Any]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if "kernels" not in document:
        raise ConfigurationError(
            f"{path} is not a repro-bench snapshot (no 'kernels' block)"
        )
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench compare",
        description=(
            "Compare kernel timings of two BENCH_<rev>.json snapshots; "
            "exit non-zero when anything regressed past the threshold."
        ),
    )
    parser.add_argument("old", help="baseline BENCH_<rev>.json")
    parser.add_argument("new", help="candidate BENCH_<rev>.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="tolerated fractional slowdown (default: 0.15 = 15%%)",
    )
    args = parser.parse_args(argv)
    try:
        report = compare_snapshots(
            _load(args.old), _load(args.new), threshold=args.threshold
        )
    except (ConfigurationError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"repro-bench compare: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if report.host_warning:
        print(
            f"repro-bench compare: WARNING: {report.host_warning}",
            file=sys.stderr,
        )
    for delta in report.regressions:
        limit = (
            1.0 + report.threshold if delta.direction == "lower" else 1.0 - report.threshold
        )
        print(
            f"repro-bench compare: REGRESSION {delta.kernel}.{delta.metric}: "
            f"{delta.old:.4g} -> {delta.new:.4g} "
            f"({delta.ratio:.2f}x, allowed {limit:.2f}x)",
            file=sys.stderr,
        )
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
