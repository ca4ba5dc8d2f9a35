"""``repro-bench``: run the canonical benchmarks, write ``BENCH_<rev>.json``.

Usage::

    repro-bench --smoke            # CI mode: smoke preset, digest gate fatal
    repro-bench --preset scaled    # bigger figure runs, same trajectory
    repro-bench --skip-figures     # kernels + digest gate only
    repro-bench compare OLD NEW    # regression gate between two snapshots

The snapshot lands in the current directory (or ``--output-dir``) as
``BENCH_<rev>.json`` where ``<rev>`` is the short git revision, so a series
of snapshots committed over time forms the repository's performance
trajectory. Exit status is non-zero when the fast-path digest differs from
the reference digest — the gate CI enforces.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.bench.host import host_provenance
from repro.bench.kernels import run_kernels
from repro.bench.macro import digest_gate, figure_smoke

__all__ = ["main"]


def _git_rev() -> str:
    """Short revision of the current checkout, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if rev else "unknown"


def _log(message: str) -> None:
    print(f"[repro-bench] {message}", flush=True)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch bolted in front of the legacy flag interface, so
    # "repro-bench --smoke" keeps working unchanged next to "repro-bench
    # compare OLD NEW".
    if argv and argv[0] == "compare":
        from repro.bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the canonical macro benchmarks and write BENCH_<rev>.json.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: force the smoke preset (fast, full trajectory).",
    )
    parser.add_argument(
        "--preset",
        default="smoke",
        help="world-size preset for the figure runs and digest gate (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    parser.add_argument(
        "--skip-figures",
        action="store_true",
        help="skip the figure-scale smoke runs (kernels + digest gate only)",
    )
    parser.add_argument(
        "--skip-serving",
        action="store_true",
        help="skip the closed-loop serving trial (repro.serve front end)",
    )
    parser.add_argument(
        "--scale",
        action="store_true",
        help="run the large-population scale tiers (see repro.bench.scale)",
    )
    parser.add_argument(
        "--scale-tiers",
        type=int,
        nargs="+",
        metavar="N_USERS",
        help="tier populations for --scale (default: 10000 50000)",
    )
    parser.add_argument(
        "--scale-digest-max",
        type=int,
        default=None,
        metavar="N_USERS",
        help=(
            "largest tier that also runs the fast-vs-reference digest gate "
            "(default: 10000; the reference engine is a constant factor slower)"
        ),
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path("."),
        help="directory the BENCH_<rev>.json snapshot is written to (default: cwd)",
    )
    args = parser.parse_args(argv)
    preset = "smoke" if args.smoke else args.preset

    rev = _git_rev()
    snapshot: dict[str, Any] = {
        "schema": 1,
        "rev": rev,
        "preset": preset,
        "seed": args.seed,
        "python": platform.python_version(),
        "generated_unix": time.time(),
        # Host provenance: compare warns on cross-host judgements.
        "host": host_provenance(),
    }

    _log(f"revision {rev}, preset {preset!r}, seed {args.seed}")
    kernels = run_kernels(log=_log)
    snapshot["kernels"] = kernels.as_dict()
    flood = kernels.flood_search
    _log(
        "flood search: fast path "
        f"{flood['fastpath_us_per_query']:.2f} us/query vs reference "
        f"{flood['reference_us_per_query']:.2f} us/query "
        f"({flood['speedup']:.2f}x)"
    )

    if not args.skip_figures:
        _log(f"figure 1 smoke run at preset {preset!r} ...")
        figure = figure_smoke(preset=preset, seed=args.seed)
        snapshot["figures"] = {"figure1": figure.as_dict()}
        _log(
            f"figure 1: {figure.seconds:.1f}s, hits static={figure.static_hits} "
            f"dynamic={figure.dynamic_hits}"
        )

    if not args.skip_serving:
        from repro.bench.serving import serving_smoke

        _log(f"serving closed-loop trial at preset {preset!r} ...")
        serving = serving_smoke(preset=preset, seed=args.seed, log=_log)
        snapshot["serving"] = serving.as_dict()

    scale_ok = True
    if args.scale:
        from repro.bench.scale import (
            DEFAULT_DIGEST_MAX_USERS,
            DEFAULT_SCALE_TIERS,
            run_scale_tiers,
        )

        tiers = args.scale_tiers or list(DEFAULT_SCALE_TIERS)
        digest_max = (
            args.scale_digest_max
            if args.scale_digest_max is not None
            else DEFAULT_DIGEST_MAX_USERS
        )
        _log(f"scale tiers {tiers} (digest gate up to {digest_max} users) ...")
        reports = run_scale_tiers(
            tiers, seed=args.seed, digest_max_users=digest_max, log=_log
        )
        snapshot["scale"] = {name: r.as_dict() for name, r in reports.items()}
        scale_ok = all(r.digest_match is not False for r in reports.values())

    gate = digest_gate(preset=preset, seed=args.seed, log=_log)
    snapshot["digest_gate"] = gate.as_dict()

    args.output_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.output_dir / f"BENCH_{rev}.json"
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    _log(f"wrote {out_path}")

    if not gate.match:
        _log(
            "FAIL: fast-path digest differs from reference digest "
            f"({gate.fast_digest[:16]}... != {gate.reference_digest[:16]}...)"
        )
        return 1
    if not scale_ok:
        _log("FAIL: a scale tier's fast-path digest differs from its reference")
        return 1
    _log("digest gate: fast path and reference are bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
