"""150-peer runs of the workload functions: declared metric names, checks, clean-up."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.fastpath import FloodFastPath
from repro.experiments.common import preset_config
from repro.gnutella import fast, simulation
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.metrics import SimulationMetrics
from repro.gnutella.protocol import GnutellaProtocol
from repro.net.latency import LatencyModel
from repro.obs.registry import LabeledCounter, LabeledHistogram
from repro.obs.telemetry.rolling import RollingTelemetry
from repro.serve import loadgen, server
from repro.sim.kernel import Simulator
from repro.types import HOUR
from repro.workload.queries import QueryModel

from benchmarks.e2e.child import TRACED_FORKS, run_process
from benchmarks.e2e.layers import end_to_end, output_problems, per_layer
from benchmarks.e2e.spans import Patches, SpanLog, install_run, install_setup
from benchmarks.e2e.workloads import WORKLOADS, Spec, build_world, sim_repetition, spec_for

DECLARED = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
SMOKE = preset_config("smoke", 3)  # 150 peers
TINY = {
    "dynamic": Spec("tiny", replace(SMOKE, horizon=6 * HOUR, warmup_hours=0), 1, 2),
    "static": Spec(
        "tiny", replace(SMOKE.as_static(), max_hops=4, horizon=6 * HOUR, warmup_hours=0), 1, 2
    ),
    "serving": Spec("tiny", SMOKE, 1, 2, requests=600, warmup_requests=40, warmup_sim_s=HOUR),
}


def _phases():
    return {"spawn": 0.01, "imports": 0.2}


def test_benchmark_json_names_the_workloads_the_runner_builds():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for name in WORKLOADS:
        spec = spec_for(name, seed=5, seconds=DECLARED["run_seconds"])
        assert spec.config.seed == 5 and spec.serving == (name == "serve_frozen")
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert all(m["bound"] <= 0.10 for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_emits_exactly_the_declared_end_to_end_metrics(kind, tmp_path):
    spec = TINY[kind]
    process = run_process(spec, 0, False, _phases(), tmp_path)
    assert output_problems([process]) == []
    assert len(process["reps"]) == spec.forks
    values = end_to_end([process])
    assert set(values) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(v > 0 for v in values.values())
    for rep in process["reps"]:
        assert rep["failed"] == 0 and rep["attempted"] > 0
        assert rep["stats"] == process["reps"][0]["stats"]
    assert not list(tmp_path.iterdir()), "an untraced run writes no span files"


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_emits_exactly_the_declared_per_layer_metrics(kind, tmp_path):
    spec = TINY[kind]
    process = run_process(spec, 0, True, _phases(), tmp_path)
    assert output_problems([process]) == []
    values = per_layer(process)
    assert set(values) == {m["name"] for m in DECLARED["per_layer"]}
    untraced, traced = process["reps"][0::2], process["reps"][1::2]
    assert len(untraced) == len(traced) == TRACED_FORKS // 2
    # Tracing only observes: every repetition ends with the world in the same state.
    assert all(rep["stats"] == untraced[0]["stats"] for rep in process["reps"])
    # Self times plus the unattributed remainder are the traced wall time.
    best = min(traced, key=lambda rep: sum(rep["slices"]))
    self_s = best["trace"]["self_s"]
    assert sum(self_s.values()) == pytest.approx(sum(best["slices"]), rel=1e-3)
    assert values["run.unattributed_share"] == pytest.approx(
        self_s["run"] / sum(best["slices"]), rel=1e-9
    )
    assert len(list(tmp_path.glob("*.spans.jsonl"))) == len(traced)

    if kind == "serving":
        assert values["serve.req_samples"] == spec.requests
        assert values["core.serve_query_n"] == spec.requests
        assert values["serve.req_p50_us"] > 0
        assert values["serve.req_p999_us"] == 0  # 600 samples: 0.6 beyond p99.9
        assert values["serve.lines_per_req"] >= 1
        assert values["gnutella.fire_query_n"] == 0, "the world is frozen while serving"
        assert values["serve.service_us"] < values["serve.req_p50_us"]
    else:
        assert values["serve.req_samples"] == 0
        assert values["sim.events"] > 0 and values["sim.us_per_event"] > 0
        assert values["core.search_n"] == values["gnutella.queries"]
        assert values["core.search_messages"] == values["gnutella.messages"]
        assert (values["gnutella.reconfigure_n"] == 0) == (kind == "static")
        assert values["setup.unattributed_share"] < 0.10
        assert values["run.unattributed_share"] < 0.10


#: Every attribute the traced pass assigns over: (owner, name).
PATCHED = [
    (fast, "MusicCatalog"),
    (fast, "generate_libraries"),
    (fast, "QueryModel"),
    (fast, "BandwidthModel"),
    (fast, "PeerArrays"),
    (fast, "HolderIndex"),
    (fast, "SessionSchedule"),
    (simulation, "build_engine"),
    (server, "build_engine"),
    (server, "parse_request"),
    (server, "encode_line"),
    (loadgen, "encode_line"),
    (loadgen, "decode_line"),
    (LatencyModel, "delay_rows"),
    (QueryModel, "sample_item"),
    (QueryModel, "next_interarrival"),
    (FloodFastPath, "search"),
    (FastGnutellaEngine, "serve_query"),
    (GnutellaProtocol, "reconfigure"),
    (GnutellaProtocol, "fill_random"),
    (GnutellaProtocol, "sever_all"),
    (BootstrapServer, "join"),
    (BootstrapServer, "leave"),
    (BootstrapServer, "sample"),
    (SimulationMetrics, "record_query"),
    (Simulator, "run"),
    (FastGnutellaEngine, "_fire_query"),
    (FastGnutellaEngine, "_toggle"),
    (FastGnutellaEngine, "_login"),
    (FastGnutellaEngine, "_refill_evicted"),
    (LabeledCounter, "inc"),
    (LabeledHistogram, "observe"),
    (RollingTelemetry, "observe"),
]


def test_every_wrapper_is_removed_after_a_traced_pass():
    before = [vars(owner)[name] for owner, name in PATCHED]
    search = FloodFastPath.search

    log, patches = SpanLog(), Patches()
    install_setup(log, patches)
    install_run(log, patches)
    during = [vars(owner)[name] for owner, name in PATCHED]
    assert all(new is not old for new, old in zip(during, before)), "PATCHED lists a name nothing wraps"
    assert len(patches._undo) == len(PATCHED), "the traced pass wraps a name PATCHED does not list"
    patches.restore()
    assert [vars(owner)[name] for owner, name in PATCHED] == before

    # The real thing, in process rather than in a fork: build traced, run traced.
    install_setup(log, patches)
    world = build_world(TINY["dynamic"])
    patches.restore()
    report = sim_repetition(TINY["dynamic"], world, True, None)
    assert report["trace"]["n"]["core.search"] > 0
    assert FloodFastPath.search is search
    assert all(vars(owner)[name] is old for (owner, name), old in zip(PATCHED, before))
