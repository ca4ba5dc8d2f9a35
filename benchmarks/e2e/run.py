"""The benchmark's one command.

Driver form (``BENCHMARK.json``; the last stdout line is the result object)::

    python3 benchmarks/e2e/run.py --workload sim_paper --seed 0 --seconds 10 --trace 0

Everything at once — the four workloads untraced, then traced, every metric
printed by name with its unit, statistics compared between the passes::

    python3 benchmarks/e2e/run.py --seed 0          # or: python -m benchmarks.e2e

A/A self-check (two sets of untraced runs of the same code, against the bounds)::

    python3 benchmarks/e2e/run.py --aa
"""

# repro-lint: disable-file=R002 -- the benchmark is a wall-clock instrument

from __future__ import annotations

import time

_MAIN_AT = time.perf_counter()  # before the heavy imports: they are part of set-up

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: Runs per set of the A/A self-check, one seed each: the driver's own count.
AA_RUNS = 10
# The checkout's own source is what gets measured, never an installed copy.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.estimate import quartile_spread  # noqa: E402
from benchmarks.e2e.layers import end_to_end, output_problems, per_layer  # noqa: E402


def declared() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int, index: int) -> dict:
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--process", str(index),
        "--spawned-at", repr(time.perf_counter()),
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} process {index} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One complete run: the driver's result object plus ``stats`` and ``problems``."""
    processes = [_spawn(workload, seed, seconds, trace, 0)]
    if not trace:
        for index in range(1, processes[0]["setups"]):
            processes.append(_spawn(workload, seed, seconds, trace, index))
    spec = declared()
    if trace:
        values, listed = per_layer(processes[0]), spec["per_layer"]
    else:
        values, listed = end_to_end(processes), spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        odd = sorted(set(values) ^ {m["name"] for m in listed})
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {odd}")
    reps = [rep for process in processes for rep in process["reps"]]
    problems = output_problems(processes)
    return {
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
        "stats": reps[0]["stats"],
        "problems": problems,
        "host": processes[0]["host"],
    }


def _process_main(args: argparse.Namespace) -> int:
    """A spawned process of :func:`measure`: one world, timed repeatedly."""
    from benchmarks.e2e.child import run_process
    from benchmarks.e2e.workloads import spec_for

    phases = {"spawn": _MAIN_AT - args.spawned_at, "imports": time.perf_counter() - _MAIN_AT}
    spec = spec_for(args.workload, args.seed, args.seconds)
    print(json.dumps(run_process(spec, args.process, bool(args.trace), phases, OUT_DIR)))
    return 0


# ----------------------------------------------------------------------
# Everything at once, and the A/A self-check
# ----------------------------------------------------------------------
def _print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'ops_attempted':34s} {result['attempted']:>16d} count")
    print(f"  {'ops_failed':34s} {result['failed']:>16d} count")
    for problem in result["problems"]:
        print(f"  OUTPUT CHECK FAILED: {problem}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; non-zero on any failed check."""
    failed = False
    for index, workload in enumerate(w["name"] for w in declared()["workloads"]):
        plain = measure(workload, seed, seconds, 0)
        if index == 0:
            host = plain["host"]
            print(f"host: {host['cpu']}, {host['cores']} cores, {host['platform']}")
        print(f"\n== {workload} (seed {seed}, {seconds:g} budget seconds) — end to end")
        _print_metrics(plain)
        traced = measure(workload, seed, seconds, 1)
        print(f"-- {workload} — per layer (traced pass)")
        _print_metrics(traced)
        samples = traced["metrics"]["serve.req_samples"]["value"]
        if samples:
            print(f"  latency percentiles over {samples:d} requests per repetition")
        if plain["stats"] != traced["stats"]:
            print(
                "  OUTPUT CHECK FAILED: statistics differ between the passes: "
                f"{plain['stats']} vs {traced['stats']}"
            )
            failed = True
        failed = failed or not plain["correct"] or not traced["correct"]
    return 1 if failed else 0


def run_aa(seconds: float) -> int:
    """Two sets of untraced runs (seeds 1..AA_RUNS) of every workload, judged
    as the driver judges them: ``OVER`` (and a non-zero exit) where the two
    medians differ, either way, by more than the metric's bound or a set's
    quartile spread exceeds it; ``wide`` where a spread exceeds a third of the
    bound, the margin the bounds are meant to keep."""
    spec = declared()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows, any_over = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        sets: list[dict[str, list[float]]] = []
        for label in "AB":
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for seed in range(1, AA_RUNS + 1):
                result = measure(workload, seed, seconds, 0)
                if not result["correct"]:
                    raise RuntimeError(f"{workload} seed {seed}: {result['problems']}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                every = " ".join(f"{name}={values[name][-1]:.4f}" for name in bounds)
                print(f"run {workload} {label} seed={seed} {every}", flush=True)
            sets.append(values)
        for name, bound in bounds.items():
            first, second = (statistics.median(s[name]) for s in sets)
            shift = second / first - 1.0
            spreads = [quartile_spread(s[name]) for s in sets]
            if abs(shift) > bound or max(spreads) > bound:
                verdict, any_over = "OVER", True
            else:
                verdict = "wide" if max(spreads) > bound / 3 else "ok"
            rows.append(
                f"| {workload} | {name} | {first:.4g} | {second:.4g} | {shift:+.1%} "
                f"| {spreads[0]:.1%} | {spreads[1]:.1%} | {bound:.0%} | {verdict} |"
            )
    print("| workload | metric | median A | median B | B vs A | spread A | spread B | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    return int(any_over)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload and print the result object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measurement budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true", help="A/A self-check against the bounds")
    parser.add_argument("--process", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.process is not None:
        return _process_main(args)
    if args.aa:
        return run_aa(args.seconds)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.workload not in {w["name"] for w in declared()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in result["problems"]:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
