"""Satellite contract: parallel execution is bit-identical to serial.

Runs the same small grid through the CLI twice — once with ``--jobs 1``
(the inline reference path) and once with ``--jobs 4`` (the process pool) —
into separate caches, then compares the manifests: every task's result
digest must match, and the stable views must be byte-identical. A third
invocation against the warm serial cache must execute zero simulations.
"""

import json

import pytest

from repro.orchestrate.cli import main
from repro.orchestrate.manifest import MANIFEST_SCHEMA, stable_view

from .conftest import TINY_ARGS

GRID = ["fig1", "--preset", "smoke", "--seed", "0,1", "--quiet"]


def run_grid_cli(tmp_path, name, jobs):
    """One CLI invocation into its own cache dir; returns the manifest."""
    manifest_path = tmp_path / f"{name}.json"
    code = main(
        [
            *GRID,
            *TINY_ARGS,
            "--jobs",
            str(jobs),
            "--cache-dir",
            str(tmp_path / f"cache-{name}"),
            "--manifest",
            str(manifest_path),
        ]
    )
    assert code == 0
    return json.loads(manifest_path.read_text())


@pytest.fixture(scope="module")
def serial_and_parallel(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("determinism")
    serial = run_grid_cli(tmp_path, "serial", jobs=1)
    parallel = run_grid_cli(tmp_path, "parallel", jobs=4)
    return tmp_path, serial, parallel


class TestSerialVsParallel:
    def test_manifest_schema(self, serial_and_parallel):
        _, serial, parallel = serial_and_parallel
        assert serial["schema"] == MANIFEST_SCHEMA
        assert parallel["jobs"] == 4

    def test_task_digests_identical(self, serial_and_parallel):
        _, serial, parallel = serial_and_parallel

        def digests(manifest):
            return [(t["task_id"], t["result_digest"]) for t in manifest["tasks"]]

        assert len(serial["tasks"]) == 4  # fig1 pair x 2 seeds
        assert digests(serial) == digests(parallel)
        assert all(t["result_digest"] for t in serial["tasks"])

    def test_stable_views_byte_identical(self, serial_and_parallel):
        _, serial, parallel = serial_and_parallel

        def canonical(manifest):
            return json.dumps(stable_view(manifest), sort_keys=True)

        assert canonical(serial) == canonical(parallel)

    def test_both_executed_everything(self, serial_and_parallel):
        _, serial, parallel = serial_and_parallel
        for manifest in (serial, parallel):
            assert manifest["cache"]["executed"] == 4
            assert manifest["cache"]["hits"] == 0
            assert manifest["cache"]["errors"] == 0

    def test_second_run_resumes_entirely_from_cache(self, serial_and_parallel):
        tmp_path, serial, _ = serial_and_parallel
        manifest_path = tmp_path / "resume.json"
        code = main(
            [
                *GRID,
                *TINY_ARGS,
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / "cache-serial"),  # the warm serial cache
                "--manifest",
                str(manifest_path),
            ]
        )
        assert code == 0
        resumed = json.loads(manifest_path.read_text())
        assert resumed["cache"]["executed"] == 0
        assert resumed["cache"]["hits"] == 4
        assert all(t["cache_hit"] for t in resumed["tasks"])
        # Cached results carry the same digests the cold run computed.
        assert [t["result_digest"] for t in resumed["tasks"]] == [
            t["result_digest"] for t in serial["tasks"]
        ]


class TestPhaseProfile:
    def test_executed_tasks_carry_phase_timings(self, serial_and_parallel):
        _, serial, _ = serial_and_parallel
        for task in serial["tasks"]:
            assert set(task["phases"]) == {
                "engine.setup",
                "engine.run",
                "engine.teardown",
            }
            assert task["phases"]["engine.run"]["seconds"] >= 0.0

    def test_obs_block_aggregates_across_tasks(self, serial_and_parallel):
        _, serial, _ = serial_and_parallel
        phases = serial["obs"]["phases"]
        assert phases["engine.run"]["count"] == len(serial["tasks"])
        total = sum(t["phases"]["engine.run"]["seconds"] for t in serial["tasks"])
        assert phases["engine.run"]["seconds"] == pytest.approx(total)

    def test_stable_view_strips_profiling(self, serial_and_parallel):
        _, serial, _ = serial_and_parallel
        view = stable_view(serial)
        assert "obs" not in view
        assert all("phases" not in t for t in view["tasks"])


class TestEventStreamDigests:
    def test_hash_events_stable_across_jobs(self, tmp_path):
        """The kernel event-stream digest (not just the result digest) is
        identical whether a task runs inline or in a pool worker."""
        args = [
            "fig1",
            "--preset",
            "smoke",
            "--seed",
            "0",
            "--quiet",
            "--hash-events",
            *TINY_ARGS,
        ]
        manifests = {}
        for jobs in (1, 2):
            path = tmp_path / f"events-{jobs}.json"
            code = main(
                [
                    *args,
                    "--jobs",
                    str(jobs),
                    "--cache-dir",
                    str(tmp_path / f"cache-{jobs}"),
                    "--manifest",
                    str(path),
                ]
            )
            assert code == 0
            manifests[jobs] = json.loads(path.read_text())
        serial = [(t["task_id"], t["event_digest"]) for t in manifests[1]["tasks"]]
        pooled = [(t["task_id"], t["event_digest"]) for t in manifests[2]["tasks"]]
        assert serial == pooled
        assert all(digest for _, digest in serial)
