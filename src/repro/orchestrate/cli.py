"""Command-line entry point: regenerate the paper's figures over a grid.

Usage::

    repro-experiments fig1 --preset scaled --seed 0
    repro-experiments fig1,fig3b --preset smoke --seed 0-3 --jobs 4
    repro-experiments all --preset paper --jobs 8 \\
        --cache-dir .repro-cache --manifest runs/paper.json
    python -m repro.experiments replicate --seed 0 --replicates 10

One parser for every figure run: a (figure x preset x seed x overrides)
grid expanded into simulation tasks, deduplicated by content, fanned out
over ``--jobs`` worker processes and memoized in a content-addressed
result cache, with an optional JSON run manifest.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.analysis.export import write_json
from repro.errors import ConfigurationError
from repro.orchestrate.cache import ResultCache
from repro.orchestrate.grid import FIGURES, GridOutcome, expand_grid, run_grid
from repro.orchestrate.manifest import build_manifest, write_manifest
from repro.orchestrate.progress import ProgressPrinter

__all__ = [
    "build_parser",
    "default_cache_dir",
    "main",
    "parse_figures",
    "parse_overrides",
    "parse_seeds",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` under the cwd."""
    return Path(os.environ.get(CACHE_DIR_ENV) or ".repro-cache")


def parse_figures(spec: str) -> tuple[str, ...]:
    """``"fig1,fig3b"`` → figure names; ``"all"`` → every paper figure.

    ``all`` is the four paper figures; ``replicate`` stays opt-in.
    """
    if spec == "all":
        return tuple(name for name in FIGURES if name != "replicate")
    figures = tuple(part.strip() for part in spec.split(",") if part.strip())
    for figure in figures:
        if figure not in FIGURES:
            raise ConfigurationError(
                f"unknown figure {figure!r}; choose from {FIGURES} or 'all'"
            )
    if not figures:
        raise ConfigurationError("no figures requested")
    return figures


def parse_seeds(spec: str) -> tuple[int, ...]:
    """``"0,5,7"`` and/or ranges ``"0-3"`` → an ordered seed tuple."""
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            if dash and lo:  # "a-b" range (a leading '-' is a negative seed)
                start, stop = int(lo), int(hi)
                if stop < start:
                    raise ConfigurationError(f"empty seed range {part!r}")
                seeds.extend(range(start, stop + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise ConfigurationError(f"malformed seed {part!r}") from None
    if not seeds:
        raise ConfigurationError(f"no seeds in {spec!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"duplicate seeds in {spec!r}")
    return tuple(seeds)


def parse_overrides(pairs: Sequence[str]) -> dict[str, Any]:
    """``["horizon=14400", "benefit=hit-count"]`` → typed config overrides.

    Values parse as Python literals where possible (ints, floats, booleans,
    ``None``) and fall back to plain strings (strategy/benefit names).
    """
    overrides: dict[str, Any] = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        if not eq or not name:
            raise ConfigurationError(f"overrides take the form key=value, got {pair!r}")
        try:
            value: Any = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw
        overrides[name] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of Bakiras et al., 'A General "
            "Framework for Searching in Distributed Data Repositories' "
            "(IPDPS 2003): expand a (figure x preset x seed x overrides) grid "
            "into simulation tasks, run them in parallel with content-addressed "
            "result caching, and optionally write a run manifest."
        ),
    )
    parser.add_argument(
        "figures",
        help="comma-separated figure names (fig1,fig2,fig3a,fig3b,replicate) "
        "or 'all' (every paper figure; excludes replicate)",
    )
    parser.add_argument(
        "--preset",
        default="scaled",
        help="world size: paper, scaled (default), smoke",
    )
    parser.add_argument(
        "--seed",
        default="0",
        help="root seeds: one seed, a comma list and/or ranges, e.g. '0', "
        "'0,1' or '0-3' (default 0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cache misses (default 1 = run inline)",
    )
    parser.add_argument(
        "--replicates",
        type=int,
        default=5,
        metavar="N",
        help="seeds per 'replicate' job (default 5)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="GnutellaConfig override applied to every task (repeatable)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=f"result cache location (default ${CACHE_DIR_ENV} or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    parser.add_argument(
        "--hash-events",
        action="store_true",
        help="also record each task's kernel event-stream SHA-256 "
        "(repro.lint.sanitize) in the manifest",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="write the JSON run manifest to PATH",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write each figure's result as JSON (a '-<figure>' suffix is "
        "added when the grid holds more than one job)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress figure reports and progress lines",
    )
    return parser


def grid_metadata(args: argparse.Namespace, overrides: Mapping[str, Any]) -> dict[str, Any]:
    """The manifest's ``grid`` block for this invocation."""
    return {
        "figures": list(parse_figures(args.figures)),
        "preset": args.preset,
        "seeds": list(parse_seeds(args.seed)),
        "replicates": args.replicates,
        "overrides": dict(overrides),
    }


def _json_target(base: str, label: str, multiple: bool) -> str:
    """Derive a per-figure export path from the shared ``--json`` base."""
    if not multiple:
        return base
    suffix = label.replace("/", "-").replace("=", "")
    stem, dot, ext = base.rpartition(".")
    return f"{stem}-{suffix}.{ext}" if dot else f"{base}-{suffix}"


def report_outcome(
    outcome: GridOutcome, args: argparse.Namespace
) -> bool:
    """Print reports / exports for every figure; True if any failed."""
    failed = False
    multiple = len(outcome.figures) > 1
    for figure in outcome.figures:
        if figure.error is not None:
            print(f"[{figure.job.label} FAILED: {figure.error}]", file=sys.stderr)
            failed = True
            continue
        if not args.quiet:
            figure.job.print_report(figure.result)
            print()
        if args.json:
            target = _json_target(args.json, figure.job.label, multiple)
            written = write_json(figure.result, target)
            if not args.quiet:
                print(f"[json written to {written}]")
    return failed


def main(argv: Sequence[str] | None = None) -> int:
    """Run the requested grid; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        figures = parse_figures(args.figures)
        seeds = parse_seeds(args.seed)
        overrides = parse_overrides(args.overrides)
        jobs = expand_grid(
            figures,
            args.preset,
            seeds,
            replicates=args.replicates,
            overrides=overrides or None,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache: ResultCache | None = None
    cache_dir: str | None = None
    if not args.no_cache:
        cache_dir = str(args.cache_dir if args.cache_dir else default_cache_dir())
        cache = ResultCache(cache_dir)
    progress = ProgressPrinter(enabled=not args.quiet)
    outcome = run_grid(
        jobs,
        jobs=args.jobs,
        cache=cache,
        hash_events=args.hash_events,
        progress=progress,
        on_error="record",
    )
    run = outcome.run
    progress.summary(run.cache_hits, run.executed, len(run.errors), run.wall_s)
    failed = report_outcome(outcome, args)
    if args.manifest:
        manifest = build_manifest(
            grid=grid_metadata(args, overrides),
            jobs=args.jobs,
            records=list(run.records),
            cache_dir=cache_dir,
            wall_s=run.wall_s,
            cache_stats=cache.stats() if cache is not None else None,
        )
        written = write_manifest(manifest, args.manifest)
        if not args.quiet:
            print(f"[manifest written to {written}]")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
