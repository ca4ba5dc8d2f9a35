"""Project-wide symbol table and call graph for repro-lint.

:class:`ProjectIndex` is the whole-program layer the R006+ rules run on.
It is built once per lint invocation from every parsed module, records only
plain serializable data (no ASTs), and can therefore be cached on disk
between runs keyed on a hash of the source set (``--symtab-cache``).

Per module it records:

* the import table (local name -> dotted target) and the set of imported
  module names (for worker import-closure computation, R007);
* every function and method as a :class:`FunctionRecord` carrying its
  :class:`~repro.lint.dataflow.FunctionEffects` summary — including nested
  ``def``\\ s, which matter because observers are often registered as
  closures;
* module-level mutable bindings (containers, ``itertools.count`` counters,
  ``None``-initialised lazy slots) and every function-scope mutation of
  them (R007/R012);
* observer registration sites: ``@mark_observer`` decorators and
  ``mark_observer(fn)`` calls (R006);
* process-pool worker entry points: functions named ``simulate_task`` and
  the callables handed to ``executor.submit`` (R007).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from .dataflow import (
    Chain,
    FunctionEffects,
    MUTATOR_METHODS,
    attr_chain,
    collect_effects,
)

__all__ = [
    "FunctionRecord",
    "ModuleRecord",
    "MutationSite",
    "ObserverSite",
    "ProjectIndex",
    "build_index",
    "index_cache_key",
    "load_cached_index",
    "store_cached_index",
]

INDEX_FORMAT_VERSION = 1

#: Module-level expressions treated as mutable bindings.
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)
_COUNTER_CALLS = frozenset({"count"})


@dataclass(frozen=True, slots=True)
class FunctionRecord:
    """One function/method/nested function, with its effect summary."""

    qualname: str
    name: str
    module: str | None
    path: str
    line: int
    col: int
    is_method: bool
    class_name: str | None
    decorators: tuple[Chain, ...]
    effects: FunctionEffects

    def as_dict(self) -> dict[str, Any]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "is_method": self.is_method,
            "class_name": self.class_name,
            "decorators": [list(d) for d in self.decorators],
            "effects": self.effects.as_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FunctionRecord":
        return cls(
            qualname=d["qualname"],
            name=d["name"],
            module=d["module"],
            path=d["path"],
            line=d["line"],
            col=d["col"],
            is_method=d["is_method"],
            class_name=d["class_name"],
            decorators=tuple(tuple(x) for x in d["decorators"]),
            effects=FunctionEffects.from_dict(d["effects"]),
        )


@dataclass(frozen=True, slots=True)
class MutationSite:
    """A function-scope mutation of a module-level mutable binding."""

    name: str
    kind: str  # "mutcall" | "subscript" | "global-assign" | "counter-advance"
    scope: str  # qualname of the enclosing function, or "<lambda>"
    line: int
    col: int

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "scope": self.scope,
                "line": self.line, "col": self.col}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MutationSite":
        return cls(d["name"], d["kind"], d["scope"], d["line"], d["col"])


@dataclass(frozen=True, slots=True)
class ObserverSite:
    """One observer registration (decorator or ``mark_observer(fn)`` call)."""

    target: str  # qualname of the registered function within its module
    line: int

    def as_dict(self) -> dict[str, Any]:
        return {"target": self.target, "line": self.line}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ObserverSite":
        return cls(d["target"], d["line"])


@dataclass(slots=True)
class ModuleRecord:
    """Everything the project rules need to know about one module."""

    path: str
    module: str | None
    imports: dict[str, str] = field(default_factory=dict)
    imported_modules: frozenset[str] = frozenset()
    functions: dict[str, FunctionRecord] = field(default_factory=dict)
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    #: name -> kind ("container" | "counter" | "none") for module-level
    #: mutable bindings.
    module_mutables: dict[str, str] = field(default_factory=dict)
    mutations: tuple[MutationSite, ...] = ()
    observers: tuple[ObserverSite, ...] = ()
    entrypoints: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "imports": dict(sorted(self.imports.items())),
            "imported_modules": sorted(self.imported_modules),
            "functions": {k: v.as_dict() for k, v in sorted(self.functions.items())},
            "classes": {k: dict(sorted(v.items())) for k, v in sorted(self.classes.items())},
            "module_mutables": dict(sorted(self.module_mutables.items())),
            "mutations": [m.as_dict() for m in self.mutations],
            "observers": [o.as_dict() for o in self.observers],
            "entrypoints": list(self.entrypoints),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ModuleRecord":
        return cls(
            path=d["path"],
            module=d["module"],
            imports=dict(d["imports"]),
            imported_modules=frozenset(d["imported_modules"]),
            functions={k: FunctionRecord.from_dict(v) for k, v in d["functions"].items()},
            classes={k: dict(v) for k, v in d["classes"].items()},
            module_mutables=dict(d["module_mutables"]),
            mutations=tuple(MutationSite.from_dict(m) for m in d["mutations"]),
            observers=tuple(ObserverSite.from_dict(o) for o in d["observers"]),
            entrypoints=tuple(d["entrypoints"]),
        )


class _ModuleScanner:
    """Builds one :class:`ModuleRecord` from a parsed module."""

    def __init__(self, path: str, module: str | None, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.record = ModuleRecord(path=path, module=module)

    def scan(self) -> ModuleRecord:
        self._scan_imports()
        self._scan_module_mutables()
        self._scan_scopes()
        self._scan_observers_and_entrypoints()
        return self.record

    # -- imports -----------------------------------------------------------
    def _scan_imports(self) -> None:
        imports: dict[str, str] = {}
        modules: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    modules.add(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level and self.module:
                    # Resolve relative imports against the current module.
                    parts = self.module.split(".")
                    anchor = parts[: len(parts) - node.level]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                if not base:
                    continue
                modules.add(base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    modules.add(f"{base}.{alias.name}")
                    imports[alias.asname or alias.name] = f"{base}.{alias.name}"
        self.record.imports = imports
        self.record.imported_modules = frozenset(modules)

    # -- module-level mutables ---------------------------------------------
    def _mutable_kind(self, value: ast.AST) -> str | None:
        if isinstance(value, (ast.Dict, ast.List, ast.Set,
                              ast.DictComp, ast.ListComp, ast.SetComp)):
            return "container"
        if isinstance(value, ast.Constant) and value.value is None:
            return "none"
        if isinstance(value, ast.Call):
            chain = attr_chain(value.func)
            if chain is None:
                return None
            if chain[-1] in _MUTABLE_CALLS:
                return "container"
            if chain[-1] in _COUNTER_CALLS:
                return "counter"
        return None

    def _scan_module_mutables(self) -> None:
        mutables: dict[str, str] = {}
        for stmt in self.tree.body:
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            kind = self._mutable_kind(value)
            if kind is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    mutables[target.id] = kind
        self.record.module_mutables = mutables

    # -- function scopes ----------------------------------------------------
    def _scan_scopes(self) -> None:
        functions: dict[str, FunctionRecord] = {}
        classes: dict[str, dict[str, str]] = {}
        mutations: list[MutationSite] = []

        def walk(body: Sequence[ast.stmt], prefix: str,
                 class_name: str | None) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{stmt.name}" if prefix else stmt.name
                    effects = collect_effects(stmt)
                    functions[qualname] = FunctionRecord(
                        qualname=qualname,
                        name=stmt.name,
                        module=self.module,
                        path=self.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        is_method=class_name is not None,
                        class_name=class_name,
                        decorators=tuple(
                            c for c in (attr_chain(_decorator_base(d))
                                        for d in stmt.decorator_list)
                            if c is not None
                        ),
                        effects=effects,
                    )
                    if class_name is not None:
                        classes.setdefault(class_name, {})[stmt.name] = qualname
                    mutations.extend(
                        self._scope_mutations(stmt, qualname, effects)
                    )
                    walk(stmt.body, f"{qualname}.", None)
                elif isinstance(stmt, ast.ClassDef):
                    classes.setdefault(stmt.name, {})
                    mutations.extend(self._class_body_lambda_mutations(stmt))
                    walk(stmt.body, f"{stmt.name}.", stmt.name)

        walk(self.tree.body, "", None)
        self.record.functions = functions
        self.record.classes = classes
        self.record.mutations = tuple(mutations)

    def _scope_mutations(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                         qualname: str,
                         effects: FunctionEffects) -> list[MutationSite]:
        """Mutations of module-level mutables inside one function body."""
        mutables = self.record.module_mutables
        shadowed = (set(effects.params) | set(effects.locals)
                    | set(effects.aliases)) - set(effects.globals_declared)
        out: list[MutationSite] = []
        for w in effects.writes:
            name = w.chain[0]
            if name not in mutables or name in shadowed:
                continue
            if w.kind == "global":
                out.append(MutationSite(name, "global-assign", qualname,
                                        w.line, w.col))
            elif len(w.chain) == 1 and w.kind in ("augassign", "subscript"):
                out.append(MutationSite(name, "subscript", qualname,
                                        w.line, w.col))
            elif w.kind == "subscript":
                out.append(MutationSite(name, "subscript", qualname,
                                        w.line, w.col))
        for c in effects.calls:
            root = c.chain[0]
            if len(c.chain) == 2 and root in mutables and root not in shadowed:
                if c.chain[1] in MUTATOR_METHODS:
                    out.append(MutationSite(root, "mutcall", qualname,
                                            c.line, c.col))
            elif (c.chain == ("next",) and c.args
                  and c.args[0] is not None and len(c.args[0]) == 1
                  and c.args[0][0] in mutables
                  and mutables[c.args[0][0]] == "counter"
                  and c.args[0][0] not in shadowed):
                out.append(MutationSite(c.args[0][0], "counter-advance",
                                        qualname, c.line, c.col))
        return out

    def _class_body_lambda_mutations(self,
                                     cls: ast.ClassDef) -> list[MutationSite]:
        """Catch ``field(default_factory=lambda: next(_counter))`` et al."""
        mutables = self.record.module_mutables
        out: list[MutationSite] = []
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Lambda):
                    continue
                effects = collect_effects(node)
                shadowed = set(effects.params)
                for c in effects.calls:
                    if (c.chain == ("next",) and c.args
                            and c.args[0] is not None and len(c.args[0]) == 1
                            and c.args[0][0] in mutables
                            and mutables[c.args[0][0]] == "counter"
                            and c.args[0][0] not in shadowed):
                        out.append(MutationSite(c.args[0][0],
                                                "counter-advance", "<lambda>",
                                                c.line, c.col))
                    elif (len(c.chain) == 2 and c.chain[0] in mutables
                          and c.chain[0] not in shadowed
                          and c.chain[1] in MUTATOR_METHODS):
                        out.append(MutationSite(c.chain[0], "mutcall",
                                                "<lambda>", c.line, c.col))
        return out

    # -- observers / entry points -------------------------------------------
    def _scan_observers_and_entrypoints(self) -> None:
        observers: list[ObserverSite] = []
        entrypoints: list[str] = []

        for qualname, record in self.record.functions.items():
            if any(d[-1] == "mark_observer" for d in record.decorators):
                observers.append(ObserverSite(qualname, record.line))
            if record.name == "simulate_task":
                entrypoints.append(qualname)

        # Call forms: mark_observer(fn) and executor.submit(fn, ...).
        for qualname, record in self.record.functions.items():
            for call in record.effects.calls:
                tail = call.chain[-1]
                if tail == "mark_observer":
                    target = self._resolve_local_target(call.args, qualname)
                    if target is not None:
                        observers.append(ObserverSite(target, call.line))
                elif tail == "submit" and len(call.chain) >= 2:
                    target = self._resolve_local_target(call.args, qualname)
                    if target is not None and target not in entrypoints:
                        entrypoints.append(target)

        self.record.observers = tuple(
            dict.fromkeys(observers)  # preserve order, drop duplicates
        )
        self.record.entrypoints = tuple(entrypoints)

    def _resolve_local_target(self, args: tuple[Chain | None, ...],
                              scope: str) -> str | None:
        """Resolve a single-name first argument to a function qualname."""
        if not args or args[0] is None or len(args[0]) != 1:
            return None
        name = args[0][0]
        nested = f"{scope}.{name}"
        if nested in self.record.functions:
            return nested
        if name in self.record.functions:
            return name
        return None


def _decorator_base(node: ast.AST) -> ast.AST:
    return node.func if isinstance(node, ast.Call) else node


@dataclass(slots=True)
class ProjectIndex:
    """The whole-program view: every module record plus lookup tables."""

    modules: dict[str, ModuleRecord] = field(default_factory=dict)  # by path

    # -- lookups ------------------------------------------------------------
    def by_module(self, dotted: str) -> ModuleRecord | None:
        for record in self.modules.values():
            if record.module == dotted:
                return record
        return None

    def method_index(self) -> dict[str, list[tuple[ModuleRecord, FunctionRecord]]]:
        """Method name -> every (module, record) defining it (for CHA)."""
        out: dict[str, list[tuple[ModuleRecord, FunctionRecord]]] = {}
        for record in sorted(self.modules.values(), key=lambda r: r.path):
            for fn in record.functions.values():
                if fn.is_method:
                    out.setdefault(fn.name, []).append((record, fn))
        return out

    def resolve_call(self, module: ModuleRecord,
                     chain: Chain) -> tuple[ModuleRecord, FunctionRecord] | None:
        """Resolve a call chain to a function record, if unambiguous.

        Handles: module-local functions, ``from x import f`` names, and
        ``mod.f`` through an imported module alias.  Method calls are the
        caller's job (they need receiver typing).
        """
        if len(chain) == 1:
            name = chain[0]
            if name in module.functions:
                return module, module.functions[name]
            dotted = module.imports.get(name)
            if dotted and "." in dotted:
                target_mod, _, fn_name = dotted.rpartition(".")
                target = self.by_module(target_mod) or self.by_module(dotted)
                if target is not None:
                    record = target.functions.get(fn_name)
                    if record is not None:
                        return target, record
            return None
        # mod.f() / pkg.mod.f()
        root = module.imports.get(chain[0])
        if root is None:
            return None
        dotted = root + "." + ".".join(chain[1:-1]) if len(chain) > 2 else root
        target = self.by_module(dotted)
        if target is None:
            return None
        record = target.functions.get(chain[-1])
        if record is None:
            return None
        return target, record

    def import_closure(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure of module imports, restricted to the index.

        ``roots`` and the result are dotted module names present in the
        index.  Imported names that match no indexed module are ignored
        (stdlib, third-party).
        """
        present = {r.module for r in self.modules.values() if r.module}
        closure: set[str] = set()
        stack = [m for m in roots if m in present]
        while stack:
            mod = stack.pop()
            if mod in closure:
                continue
            closure.add(mod)
            record = self.by_module(mod)
            if record is None:
                continue
            for name in record.imported_modules:
                if name in present and name not in closure:
                    stack.append(name)
        return closure

    # -- (de)serialization ---------------------------------------------------
    def as_payload(self) -> dict[str, Any]:
        return {
            "version": INDEX_FORMAT_VERSION,
            "modules": {path: rec.as_dict()
                        for path, rec in sorted(self.modules.items())},
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ProjectIndex":
        if payload.get("version") != INDEX_FORMAT_VERSION:
            raise ValueError("incompatible symbol-table cache version")
        return cls(modules={path: ModuleRecord.from_dict(rec)
                            for path, rec in payload["modules"].items()})


def build_index(contexts: Iterable[Any]) -> ProjectIndex:
    """Build the index from parsed ``ModuleContext`` objects."""
    index = ProjectIndex()
    for ctx in contexts:
        record = _ModuleScanner(str(ctx.path), ctx.module, ctx.tree).scan()
        index.modules[str(ctx.path)] = record
    return index


# -- symbol-table disk cache -------------------------------------------------
def index_cache_key(sources: Iterable[tuple[str, str]]) -> str:
    """Stable key over the (path, source) set feeding the index."""
    digest = hashlib.sha256()
    digest.update(f"v{INDEX_FORMAT_VERSION}".encode())
    for path, source in sorted(sources):
        digest.update(b"\x00")
        digest.update(path.encode())
        digest.update(b"\x01")
        digest.update(hashlib.sha256(source.encode()).digest())
    return digest.hexdigest()


def load_cached_index(cache_dir: Path, key: str) -> ProjectIndex | None:
    path = Path(cache_dir) / f"symtab-{key}.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        return ProjectIndex.from_payload(payload)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store_cached_index(cache_dir: Path, key: str, index: ProjectIndex) -> None:
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"symtab-{key}.json"
        path.write_text(json.dumps(index.as_payload(), sort_keys=True),
                        encoding="utf-8")
    except OSError:
        pass  # the cache is best-effort; linting proceeds without it
