"""Symbol-table / call-graph construction tests against the fixture tree."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.graph import (
    ProjectIndex,
    build_index,
    index_cache_key,
    load_cached_index,
    store_cached_index,
)
from repro.lint.model import ModuleContext

PROJECT = Path(__file__).parent / "fixtures" / "project"
SRC = Path(__file__).resolve().parents[2] / "src"


def tree_index(root: Path) -> ProjectIndex:
    contexts = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")
        contexts.append(
            ModuleContext(
                path=str(path), module=module, tree=ast.parse(path.read_text())
            )
        )
    return build_index(contexts)


def fixture_index() -> ProjectIndex:
    return tree_index(PROJECT)


def test_index_records_functions_classes_and_imports():
    index = fixture_index()
    fastpath = index.by_module("repro.fixcore.fastpath")
    assert fastpath is not None
    assert set(fastpath.functions) == {
        "FloodFastPath.__init__", "FloodFastPath.search",
    }
    assert fastpath.classes["FloodFastPath"]["search"] == "FloodFastPath.search"

    probes = index.by_module("repro.fixobs.probes")
    assert probes.imports["advance"] == "repro.fixobs.helpers.advance"
    assert probes.imports["mark_observer"] == "repro.sim.events.mark_observer"
    assert "repro.fixobs.helpers" in probes.imported_modules


def test_index_records_observers_and_entrypoints():
    index = fixture_index()
    probes = index.by_module("repro.fixobs.probes")
    assert {o.target for o in probes.observers} == {
        "clean_probe", "tainted_probe",
    }
    runner = index.by_module("repro.fixpool.runner")
    assert runner.entrypoints == ("simulate_task",)


def test_real_pool_entry_is_found_through_executor_submit():
    """R007 must still see the real pool worker: no function in the package
    carries the entry-point name, so the ``executor.submit`` call form is
    what finds it."""
    index = tree_index(SRC)
    pool = index.by_module("repro.orchestrate.pool")
    assert pool is not None
    assert pool.entrypoints == ("_execute",)
    named = [
        (record.module, qualname)
        for record in index.modules.values()
        for qualname, fn in record.functions.items()
        if fn.name == "simulate_task"
    ]
    assert named == []


def test_index_records_module_mutables_and_mutations():
    index = fixture_index()
    state = index.by_module("repro.fixpool.state")
    assert state.module_mutables == {"_RESULT_ROWS": "container"}
    (mutation,) = state.mutations
    assert mutation.name == "_RESULT_ROWS"
    assert mutation.scope == "record"
    assert mutation.kind == "mutcall"


def test_resolve_call_follows_imports_across_modules():
    index = fixture_index()
    probes = index.by_module("repro.fixobs.probes")
    resolved = index.resolve_call(probes, ("advance",))
    assert resolved is not None
    record, fn = resolved
    assert record.module == "repro.fixobs.helpers"
    assert fn.qualname == "advance"


def test_import_closure_reaches_indirect_modules():
    index = fixture_index()
    closure = index.import_closure(["repro.fixpool.runner"])
    assert "repro.fixpool.state" in closure
    # the closure is restricted to indexed modules: stdlib names never leak in
    assert all(m.startswith("repro.") for m in closure)


def test_method_index_groups_by_bare_method_name():
    index = fixture_index()
    methods = index.method_index()
    assert any(
        fn.qualname == "FloodFastPath.search" for _, fn in methods["search"]
    )


def test_index_payload_round_trip():
    index = fixture_index()
    clone = ProjectIndex.from_payload(index.as_payload())
    assert sorted(clone.modules) == sorted(index.modules)
    for path, record in index.modules.items():
        assert clone.modules[path].as_dict() == record.as_dict()


def test_disk_cache_round_trip(tmp_path):
    index = fixture_index()
    sources = [
        (str(p), p.read_text()) for p in sorted(PROJECT.rglob("*.py"))
    ]
    key = index_cache_key(sources)
    assert load_cached_index(tmp_path, key) is None
    store_cached_index(tmp_path, key, index)
    cached = load_cached_index(tmp_path, key)
    assert cached is not None
    assert sorted(cached.modules) == sorted(index.modules)
    # any source change must change the key
    changed = [(p, s + "\n# touched\n") for p, s in sources]
    assert index_cache_key(changed) != key
