"""Whole-program rules: observer purity, worker-global state, parity audit.

These rules run on the :class:`~repro.lint.graph.ProjectIndex` built from
*every* module in the lint invocation, so they can see across files: an
observer in ``obs/topology.py`` calling a helper in ``net/topology.py`` is
checked through that call edge; a counter in ``net/message.py`` is tied to
the pool worker entry in ``orchestrate/pool.py`` that makes it hazardous.

They register in :data:`PROJECT_RULES`, separate from the per-module
:data:`~repro.lint.rules.RULES` registry, because their lifecycle differs:
one instance runs once over the whole index instead of once per module.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import ClassVar, Iterator

from .dataflow import (
    Chain,
    DRAW_METHODS,
    MUTATOR_METHODS,
    SCHEDULE_METHODS,
    is_rng_chain,
)
from .graph import FunctionRecord, ModuleRecord, ProjectIndex
from .model import Finding

__all__ = [
    "ENGINE_ATTRS",
    "PROJECT_RULES",
    "ProjectRule",
    "TELEMETRY_SINK_NAMES",
    "all_project_rules",
    "register_project",
]

#: Attribute names that denote simulation-engine state.  A chain that passes
#: through one of these (``self.engine.peers``, ``sim.queue``) is *engine
#: state*: observers may read it but never write it.
ENGINE_ATTRS = frozenset(
    {"engine", "sim", "peers", "protocol", "transport", "kernel", "simulator"}
)

#: Parameter/variable names that denote telemetry *sinks*: registries,
#: tracers, rolling windows, access loggers, exporters.  Observer callbacks
#: are handed these precisely so they can write observations into them —
#: a telemetry sink is observer-owned state, not engine state, so writes and
#: mutating calls on it are the observer doing its job.  (A chain that walks
#: from a sink back into :data:`ENGINE_ATTRS` — ``registry.engine.peers`` —
#: still classifies as engine state.)
TELEMETRY_SINK_NAMES = frozenset(
    {"registry", "tracer", "rolling", "access_log", "accesslog",
     "logger", "exporter", "sidecar", "snapshotter"}
)

#: Method tails that mutate an engine-state receiver when called on it.
_ENGINE_MUTATOR_TAILS = MUTATOR_METHODS | frozenset(
    {"stop", "push", "cancel", "succeed", "fail", "send", "emit", "step",
     "run", "reconfigure", "record_query"}
)

# Receiver-root classifications.
_ENGINE = "engine"
_OBSERVER = "observer"
_LOCAL = "local"
_GLOBAL = "global"
_UNKNOWN = "unknown"

_MAX_CALL_DEPTH = 8


class ProjectRule:
    """Base class: one instance analyses the whole project index."""

    code: ClassVar[str]
    name: ClassVar[str]
    rationale: ClassVar[str]

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        raise NotImplementedError

    def report(self, path: str, line: int, col: int, message: str) -> None:
        self.findings.append(
            Finding(code=self.code, message=message, path=path,
                    line=line, col=col)
        )


PROJECT_RULES: dict[str, type[ProjectRule]] = {}


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding ``cls`` to :data:`PROJECT_RULES`."""
    if cls.code in PROJECT_RULES:
        raise ValueError(f"duplicate project rule code {cls.code!r}")
    PROJECT_RULES[cls.code] = cls
    return cls


def all_project_rules() -> Iterator[type[ProjectRule]]:
    """Registered project rules in code order."""
    for code in sorted(PROJECT_RULES):
        yield PROJECT_RULES[code]


# ---------------------------------------------------------------------------
# R006 — observer purity
# ---------------------------------------------------------------------------
@register_project
class ObserverPurityRule(ProjectRule):
    """Observer callbacks must have an empty engine-state write-set.

    The event-stream hasher excludes ``mark_observer`` callbacks from
    digests on the *contract* that attaching them cannot change what the
    simulation computes.  This rule proves the contract: every function
    registered through ``mark_observer`` (decorator or call form) — and
    every function it calls, transitively through the call graph — may write
    only its own state, draw no RNG, and schedule nothing but its own
    re-arming.

    Example::

        @mark_observer
        def probe(engine):
            engine.peers[0].neighbors.clear()   # R006: engine write

    Fix::

        @mark_observer
        def probe(engine):
            self.samples.append(len(engine.peers))   # observer-own state
    """

    code = "R006"
    name = "observer-purity"
    rationale = "digest-excluded observers must not mutate engine state"

    def run(self) -> list[Finding]:
        for _, module in sorted(self.index.modules.items()):
            for site in module.observers:
                record = module.functions.get(site.target)
                if record is None:
                    continue
                env = self._top_env(record)
                self._check(module, record, env, observer=record,
                            depth=0, visited=set())
        return self.findings

    @staticmethod
    def _top_env(record: FunctionRecord) -> dict[str, str]:
        """Initial root classification for the observer's own parameters.

        ``self`` is the observer's own object, and telemetry-sink parameters
        (:data:`TELEMETRY_SINK_NAMES` — the registry/tracer/logger handles a
        telemetry callback exists to feed) are observer-owned; every other
        parameter is conservatively treated as engine state (observers are
        handed engine or simulator handles, never data they own).
        """
        env: dict[str, str] = {}
        params = record.effects.params
        for i, p in enumerate(params):
            if i == 0 and (record.is_method or p == "self"):
                env[p] = _OBSERVER
            elif p in TELEMETRY_SINK_NAMES:
                env[p] = _OBSERVER
            else:
                env[p] = _ENGINE
        return env

    def _classify(self, chain: Chain, module: ModuleRecord,
                  record: FunctionRecord,
                  env: dict[str, str]) -> tuple[str, Chain]:
        chain = record.effects.resolve(chain)
        root = chain[0]
        cls = env.get(root)
        if cls == _OBSERVER:
            if any(seg in ENGINE_ATTRS for seg in chain[1:]):
                return _ENGINE, chain
            return _OBSERVER, chain
        if cls is not None:
            return cls, chain
        if root in record.effects.locals:
            return _LOCAL, chain
        if root in module.module_mutables:
            return _GLOBAL, chain
        if root in ENGINE_ATTRS:
            # Free variable named like engine state: closure observers
            # (``def probe(): ... engine.peers ...``) capture these.
            return _ENGINE, chain
        if root in TELEMETRY_SINK_NAMES:
            # Free variable named like a telemetry sink: closure exporters
            # (``lambda: render_prometheus(registry.snapshot())``) capture
            # the sink they feed — observer-owned, not engine state.
            if any(seg in ENGINE_ATTRS for seg in chain[1:]):
                return _ENGINE, chain
            return _OBSERVER, chain
        return _UNKNOWN, chain

    def _via(self, record: FunctionRecord, observer: FunctionRecord) -> str:
        if record.qualname == observer.qualname and record.path == observer.path:
            return f"observer '{observer.qualname}'"
        return (f"observer '{observer.qualname}' "
                f"(via '{record.qualname}')")

    def _check(self, module: ModuleRecord, record: FunctionRecord,
               env: dict[str, str], observer: FunctionRecord,
               depth: int, visited: set) -> None:
        key = (record.path, record.qualname,
               tuple(sorted(env.items())))
        if key in visited or depth > _MAX_CALL_DEPTH:
            return
        visited.add(key)

        for w in record.effects.writes:
            cls, chain = self._classify(w.chain, module, record, env)
            if w.kind == "global" or cls == _GLOBAL:
                self.report(
                    record.path, w.line, w.col,
                    f"{self._via(record, observer)} writes module-global "
                    f"state '{'.'.join(chain)}'; observers must be read-only "
                    "outside their own object",
                )
            elif cls == _ENGINE:
                self.report(
                    record.path, w.line, w.col,
                    f"{self._via(record, observer)} writes engine state "
                    f"'{'.'.join(chain)}'; digest exclusion assumes observers "
                    "never mutate what the simulation computes",
                )

        for c in record.effects.calls:
            chain = record.effects.resolve(c.chain)
            tail = chain[-1]
            recv = chain[:-1]
            recv_cls = self._classify(recv, module, record, env)[0] if recv else None

            if tail in SCHEDULE_METHODS and recv_cls in (_ENGINE, _UNKNOWN):
                if not self._callback_ok(c.args, module, record, env, observer):
                    self.report(
                        record.path, c.line, c.col,
                        f"{self._via(record, observer)} schedules a non-"
                        "observer callback; observers may only re-arm "
                        "themselves (or another marked observer)",
                    )
                continue
            if recv and recv_cls in (_ENGINE, _GLOBAL) and tail in _ENGINE_MUTATOR_TAILS:
                self.report(
                    record.path, c.line, c.col,
                    f"{self._via(record, observer)} calls mutating method "
                    f"'{'.'.join(chain)}' on {'engine' if recv_cls == _ENGINE else 'module-global'} "
                    "state; observers must be read-only",
                )
                continue
            if recv and is_rng_chain(recv) and tail in DRAW_METHODS:
                self.report(
                    record.path, c.line, c.col,
                    f"{self._via(record, observer)} draws from RNG "
                    f"'{'.'.join(recv)}'; observer draws shift every "
                    "downstream sequence between observed and plain runs",
                )
                continue

            self._recurse(module, record, env, observer, depth, visited,
                          chain, recv, recv_cls, c.args)

    def _recurse(self, module: ModuleRecord, record: FunctionRecord,
                 env: dict[str, str], observer: FunctionRecord,
                 depth: int, visited: set, chain: Chain,
                 recv: Chain, recv_cls: str | None,
                 args: tuple[Chain | None, ...]) -> None:
        target: tuple[ModuleRecord, FunctionRecord] | None = None
        self_cls: str | None = None
        if not recv:
            # Plain function call: nested sibling first, then imports.
            nested = f"{record.qualname}.{chain[0]}" if len(chain) == 1 else None
            if nested and nested in module.functions:
                target = (module, module.functions[nested])
            else:
                target = self.index.resolve_call(module, chain)
        elif recv_cls in (_OBSERVER, _ENGINE):
            # Method call: resolve by class when the receiver is ``self``,
            # falling back to unique-name class-hierarchy analysis.
            method = chain[-1]
            if (recv_cls == _OBSERVER and len(recv) == 1
                    and record.class_name is not None):
                qual = module.classes.get(record.class_name, {}).get(method)
                if qual is not None:
                    target = (module, module.functions[qual])
            if target is None:
                candidates = self.index.method_index().get(method, [])
                if len(candidates) == 1:
                    target = candidates[0]
            self_cls = recv_cls
        if target is None:
            return
        tmod, trec = target
        tparams = trec.effects.params
        env2: dict[str, str] = {}
        offset = 0
        if trec.is_method and tparams:
            env2[tparams[0]] = self_cls or _UNKNOWN
            offset = 1
        for i, arg in enumerate(args):
            if arg is None or i + offset >= len(tparams):
                continue
            cls, _ = self._classify(arg, module, record, env)
            if cls in (_ENGINE, _OBSERVER, _GLOBAL):
                env2[tparams[i + offset]] = cls
        self._check(tmod, trec, env2, observer, depth + 1, visited)

    def _callback_ok(self, args: tuple[Chain | None, ...],
                     module: ModuleRecord, record: FunctionRecord,
                     env: dict[str, str],
                     observer: FunctionRecord) -> bool:
        """Whether a ``schedule(delay, fn, ...)`` call re-arms an observer."""
        if len(args) < 2:
            return True
        cb = args[1]
        if cb is None:
            return True  # lambda / computed callback: not statically checkable
        cls, chain = self._classify(cb, module, record, env)
        if cls == _OBSERVER:
            return True
        if len(chain) == 1:
            name = chain[0]
            if name == observer.name:
                return True
            for site in module.observers:
                target = module.functions.get(site.target)
                if target is not None and target.name == name:
                    return True
        return False


# ---------------------------------------------------------------------------
# R007 — process-global mutable state reachable from pool workers
# ---------------------------------------------------------------------------
@register_project
class WorkerGlobalStateRule(ProjectRule):
    """Module-global mutable state mutated in code a pool worker can reach.

    ``orchestrate/pool.py`` fans simulations out to ``ProcessPoolExecutor``
    workers.  Any module-level counter/dict/list mutated inside the worker's
    import closure is *process-global*: each worker advances its own copy,
    so sequences (like query ids) depend on which tasks shared a worker —
    the exact bug class of the process-global ``Message`` query-id counter.

    Example::

        _ids = itertools.count()

        def simulate_task(config):
            return next(_ids)        # R007: per-worker divergent sequence

    Fix::

        def simulate_task(config):
            ids = itertools.count() # task-local (or engine-local) counter
            return next(ids)
    """

    code = "R007"
    name = "worker-global-state"
    rationale = "module state mutated under a pool worker is process-global"

    def run(self) -> list[Finding]:
        entry_paths: dict[str, str] = {}
        root_modules: list[str] = []
        for _, module in sorted(self.index.modules.items()):
            for qual in module.entrypoints:
                # Label by dotted module (or bare filename): the label lands
                # in the finding message, and messages are baseline keys — an
                # invocation-root-dependent path would break baseline matching
                # between relative and absolute invocations.
                anchor = module.module or PurePath(module.path).name
                entry_paths.setdefault(module.path, f"{anchor}:{qual}")
                if module.module:
                    root_modules.append(module.module)
        if not entry_paths:
            return []
        entry_label = sorted(entry_paths.values())[0]
        closure = self.index.import_closure(root_modules)
        reachable = set(entry_paths)
        for path, record in self.index.modules.items():
            if record.module and record.module in closure:
                reachable.add(path)
        for path in sorted(reachable):
            record = self.index.modules[path]
            for m in record.mutations:
                self.report(
                    path, m.line, m.col,
                    f"module-level mutable '{m.name}' is mutated in "
                    f"'{m.scope}' ({m.kind}) and the module is reachable "
                    f"from process-pool worker entry '{entry_label}'; this "
                    "state is process-global — per-worker copies diverge. "
                    "Move it into engine/task state",
                )
        return self.findings


# ---------------------------------------------------------------------------
# R009 — fastpath/reference parity audit
# ---------------------------------------------------------------------------
@register_project
class FastpathParityRule(ProjectRule):
    """Parameter parity between ``generic_search`` and ``FloodFastPath``.

    The fast path is only sound because it answers *exactly* the same
    question as the reference ``generic_search`` for the configurations that
    engage it.  Every reference parameter must either have a fast-path
    counterpart or a recorded rationale in the parity contract below; a
    parameter on either side that is neither shared nor explained is a
    silent divergence risk.

    Example::

        # core/fastpath.py grows a knob the reference has never heard of:
        def search(self, initiator, item, boost_factor): ...   # R009

    Fix::

        Mirror the parameter on the other side, or add it to the contract
        tables in ``repro/lint/program.py`` with a one-line rationale.
    """

    code = "R009"
    name = "fastpath-parity"
    rationale = "unexplained fastpath/reference parameter drift diverges results"

    #: Reference-side parameters with no direct fast-path twin, and why
    #: that is sound.
    _REFERENCE_ONLY: ClassVar[dict[str, str]] = {
        "view": "decomposed into the fast path's adjacency/holdings/"
                "delay_rows snapshot arrays",
        "termination": "served by max_hops: the fast path implements plain "
                       "TTL flood termination only, and engines guard "
                       "engagement on that",
        "selection": "the fast path serves SelectAll flooding only; engines "
                     "fall back to generic_search for any other policy",
        "stats": "stats tables only feed history-based selection policies, "
                 "which never engage the fast path",
        "rng": "SelectAll flooding draws no randomness; sampling policies "
               "never engage the fast path",
        "forward_from_holders": "the fast path implements the False "
                                "(case-study) semantics; engines guard "
                                "engagement on that",
    }

    #: Fast-path-side parameters with no direct reference twin.
    _FASTPATH_ONLY: ClassVar[dict[str, str]] = {
        "adjacency": "flat-array decomposition of the reference NetworkView",
        "holdings": "flat-array decomposition of the reference NetworkView",
        "delay_rows": "flat-array decomposition of the reference NetworkView",
        "max_hops": "carries the reference 'termination' TTL bound",
    }

    def run(self) -> list[Finding]:
        for path, fast in sorted(self.index.modules.items()):
            if not path.endswith("fastpath.py"):
                continue
            sibling = path[: -len("fastpath.py")] + "search.py"
            ref = self.index.modules.get(sibling)
            if ref is None:
                continue
            ref_fn = ref.functions.get("generic_search")
            fast_search = fast.functions.get("FloodFastPath.search")
            if ref_fn is None or fast_search is None:
                continue
            fast_init = fast.functions.get("FloodFastPath.__init__")
            self._audit(ref_fn, fast_search, fast_init)
        return self.findings

    def _audit(self, ref_fn: FunctionRecord, fast_search: FunctionRecord,
               fast_init: FunctionRecord | None) -> None:
        ref_params = [p for p in ref_fn.effects.params if p != "self"]
        fast_params = [p for p in fast_search.effects.params if p != "self"]
        if fast_init is not None:
            fast_params += [p for p in fast_init.effects.params if p != "self"]
        shared = set(ref_params) & set(fast_params)
        for p in ref_params:
            if p in shared or p in self._REFERENCE_ONLY:
                continue
            self.report(
                ref_fn.path, ref_fn.line, ref_fn.col,
                f"reference search parameter '{p}' has no fast-path "
                "counterpart and no parity-contract rationale; FloodFastPath "
                "may silently diverge from generic_search — mirror it or "
                "extend the contract in repro/lint/program.py",
            )
        for p in fast_params:
            if p in shared or p in self._FASTPATH_ONLY:
                continue
            anchor = fast_search
            if fast_init is not None and p in fast_init.effects.params:
                anchor = fast_init
            self.report(
                anchor.path, anchor.line, anchor.col,
                f"fast-path parameter '{p}' has no reference counterpart "
                "and no parity-contract rationale; generic_search cannot "
                "reproduce its effect — mirror it or extend the contract in "
                "repro/lint/program.py",
            )
