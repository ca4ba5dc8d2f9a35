"""From process reports to metrics: the gated end-to-end three, and the layers.

Pure arithmetic over the dicts :func:`benchmarks.e2e.child.run_process`
returns; no ``repro`` imports, so the parent process stays light.
"""

from __future__ import annotations

import statistics
from typing import Any

from benchmarks.e2e.estimate import slice_min_sum

__all__ = ["end_to_end", "output_problems", "per_layer"]

#: Span name -> metric stem, for spans reported as self seconds (+ ``_n``).
_SECONDS = (
    "workload.sample_item",
    "workload.next_interarrival",
    "core.search",
    "gnutella.reconfigure",
    "gnutella.fill_random",
    "gnutella.sever_all",
    "gnutella.fire_query",
    "gnutella.toggle",
    "gnutella.login",
    "gnutella.refill_evicted",
)
_SETUP_SPANS = (
    "workload.libraries",
    "workload.churn_schedule",
    "workload.catalog",
    "workload.query_model",
    "net.bandwidth",
    "net.delay_rows",
    "core.peer_arrays",
    "core.holder_index",
    "gnutella.setup_self",
)
_STATISTICS = ("queries", "hits", "messages", "reconfigurations", "logins", "logoffs")


def _reps(processes: list[dict]) -> list[dict]:
    return [rep for process in processes for rep in process["reps"]]


def output_problems(processes: list[dict]) -> list[str]:
    """Every failed output check across the run's processes and repetitions."""
    reps = _reps(processes)
    problems = [p for rep in reps for p in rep["problems"]]
    if any(rep["stats"] != reps[0]["stats"] for rep in reps):
        problems.append("simulated statistics differ between repetitions of one seed")
    if not processes[0]["digest_match"]:
        problems.append("smoke-preset fast and fast-reference event digests differ")
    return problems


def end_to_end(processes: list[dict]) -> dict[str, float]:
    """``setup_s``, ``run_s`` and ``peak_rss_mb`` of one untraced run.

    Set-up is the sum, over its phases, of the fastest process's phase (the
    last phase being what still comes between the build and the first
    repetition's clock: starting the server and warming it up); the run is the
    sum, over slices, of the fastest repetition's slice.
    """
    reps = _reps(processes)
    phases = [process["phases"] for process in processes]
    return {
        "setup_s": sum(min(p[name] for p in phases) for name in phases[0]),
        "run_s": slice_min_sum([rep["slices"] for rep in reps]),
        "peak_rss_mb": max(
            max(process["rss_mb"] for process in processes), max(rep["rss_mb"] for rep in reps)
        ),
    }


def per_layer(process: dict) -> dict[str, float]:
    """Every per-layer metric of one traced process (repetitions: untraced, traced, in turn)."""
    untraced, traced = process["reps"][0::2], process["reps"][1::2]
    # Layer seconds all come from the one traced repetition that ran cleanest,
    # so that they add up to that repetition's wall time.
    best = min(traced, key=lambda rep: sum(rep["slices"]))
    wall = sum(best["slices"])
    trace, setup = best["trace"], process["setup_trace"]
    self_s, total_s, calls, counts = trace["self_s"], trace["total_s"], trace["n"], trace["counts"]
    stats = best["stats"]
    untraced_s = slice_min_sum([rep["slices"] for rep in untraced])
    traced_s = slice_min_sum([rep["slices"] for rep in traced])
    serving = "serve" in best

    out: dict[str, float] = {}
    for name in _SETUP_SPANS:
        out[f"{name}_s"] = setup["self_s"].get(name, 0.0)
    out["net.delay_rows_lazy"] = process["delay_rows_lazy"]
    for name in _SECONDS:
        out[f"{name}_s"] = self_s.get(name, 0.0)
        out[f"{name}_n"] = calls.get(name, 0)
    out["gnutella.bootstrap_s"] = self_s.get("gnutella.bootstrap", 0.0)
    out["gnutella.record_query_s"] = self_s.get("gnutella.record_query", 0.0)
    searches = calls.get("core.search", 0)
    out["core.search_us_per_query"] = self_s.get("core.search", 0.0) / searches * 1e6 if searches else 0.0
    out["core.search_messages"] = counts["search_messages"]
    out["core.search_nodes_contacted"] = counts["search_nodes_contacted"]
    served = calls.get("core.serve_query", 0)
    out["core.serve_query_n"] = served
    out["core.serve_query_us"] = total_s.get("core.serve_query", 0.0) / served * 1e6 if served else 0.0
    for name in _STATISTICS:
        out[f"gnutella.{name}"] = stats[name]

    out["sim.run_s"] = total_s.get("sim.kernel_self", 0.0)
    out["sim.kernel_self_s"] = self_s.get("sim.kernel_self", 0.0)
    out["sim.events"] = stats["events"]
    out["sim.schedule_n"] = best["schedule_n"]
    out["sim.us_per_event"] = 0.0 if serving else untraced_s / stats["events"] * 1e6
    out["sim.warmup_advance_s"] = best.get("start_s", 0.0)

    out.update(_serving(best, untraced, untraced_s, self_s, calls) if serving else _NOT_SERVING)

    phases = process["phases"]
    setup_wall = sum(phases.values())
    attributed = (
        phases["imports"]
        + phases["warmup"]
        + sum(v for name, v in setup["self_s"].items() if name != "setup")
        + best.get("start_s", 0.0)
    )
    out["setup.imports_s"] = phases["imports"]
    out["setup.warmup_s"] = phases["warmup"]
    out["setup.build_s"] = phases["build"]
    out["setup.pretimed_s"] = phases["pretimed"]
    out["setup.unattributed_share"] = (setup_wall - attributed) / setup_wall
    out["run.untraced_s"] = untraced_s
    out["run.traced_s"] = traced_s
    out["run.unattributed_share"] = self_s["run"] / wall
    out["trace.overhead_share"] = traced_s / untraced_s - 1.0
    out["trace.gc_gen2_extra"] = statistics.median(r["gc_gen2"] for r in traced) - statistics.median(
        r["gc_gen2"] for r in untraced
    )
    out["trace.spans"] = trace["spans"]
    out["host.canary_before_ms"] = process["canary_before_ms"]
    out["host.canary_after_ms"] = process["canary_after_ms"]
    return out


_SERVE_NAMES = (
    "serve.rps",
    "serve.cpu_us_per_req",
    "serve.queue_wait_us",
    "serve.service_us",
    "serve.decode_us",
    "serve.encode_us",
    "serve.lines_per_req",
    "serve.client_codec_us",
    "serve.wire_loop_us",
    "serve.req_p50_us",
    "serve.req_p99_us",
    "serve.req_p999_us",
    "serve.req_max_us",
    "serve.req_samples",
    "serve.hit_fraction",
    "obs.telemetry_us_per_req",
)
_NOT_SERVING = dict.fromkeys(_SERVE_NAMES, 0.0)


def _serving(
    best: dict, untraced: list[dict], untraced_s: float, self_s: dict, calls: dict
) -> dict[str, float]:
    """The request path. Latencies and reply fields come from the untraced
    repetitions (their median); codec and telemetry costs from the traced one."""
    n = best["serve"]["samples"]

    def median(field: str) -> float:
        return statistics.median(rep["serve"][field] for rep in untraced)

    def per_request_us(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / n * 1e6

    lines = calls.get("serve.encode", 0) + calls.get("serve.encode_done", 0)
    # What the traced repetition's own mean latency leaves once every measured
    # piece is taken out: asyncio scheduling and the loopback socket.
    t = best["serve"]
    wire_loop = t["mean_us"] - (
        per_request_us("serve.client_codec", "serve.decode", "serve.encode_done", "obs.telemetry")
        + t["queue_wait_us"]
        + t["service_us"]
    )
    return {
        "serve.rps": n / untraced_s,
        "serve.cpu_us_per_req": statistics.median(rep["cpu_s"] for rep in untraced) / n * 1e6,
        "serve.queue_wait_us": median("queue_wait_us"),
        "serve.service_us": median("service_us"),
        "serve.decode_us": per_request_us("serve.decode"),
        "serve.encode_us": per_request_us("serve.encode", "serve.encode_done"),
        "serve.lines_per_req": lines / n,
        "serve.client_codec_us": per_request_us("serve.client_codec"),
        "serve.wire_loop_us": wire_loop,
        "serve.req_p50_us": median("p50_us"),
        "serve.req_p99_us": median("p99_us"),
        "serve.req_p999_us": median("p999_us"),
        "serve.req_max_us": max(rep["serve"]["max_us"] for rep in untraced),
        "serve.req_samples": n,
        "serve.hit_fraction": median("hit_fraction"),
        "obs.telemetry_us_per_req": per_request_us("obs.telemetry"),
    }
