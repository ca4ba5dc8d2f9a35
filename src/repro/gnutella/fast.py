"""The fast Gnutella engine: atomic queries over kernel-driven churn.

Queries propagate in milliseconds-to-seconds; churn and reconfiguration act
over hours. The fast engine exploits that separation: every query executes
atomically (a hop-layered BFS with analytic delays, via
:func:`repro.core.search.generic_search`) at its issue instant, while churn
transitions and query arrivals are real events on the :mod:`repro.sim`
kernel. The detailed engine (:mod:`repro.gnutella.detailed`) keeps the same
protocol but schedules every message; the test suite asserts the two agree on
aggregate metrics for small networks.

Determinism and paired comparison: all randomness flows through named
:class:`~repro.rng.RngStreams`. Churn schedules are precomputed from the
``churn`` stream, and query timing/content draws come from the ``queries``
streams, consumed in the same order by the static and dynamic schemes (the
schemes differ only in link management, which draws from ``bootstrap``). A
static and a dynamic run with the same seed therefore face the identical
sequence of sessions and query arrivals — the comparisons in Figures 1-3 are
paired. (Queried items can drift between schemes once downloads make the
holdings differ; arrival times never do.)
"""

from __future__ import annotations

from array import array

from repro.core.exploration import generic_explore
from repro.core.fastpath import FloodFastPath, HolderIndex
from repro.core.search import generic_search, iterative_deepening_search
from repro.core.soa import NeighborTable, PeerArrays, SoAPeerList
from repro.core.selection import SelectRandomK, SelectTopKBenefit
from repro.core.termination import TTLTermination
from repro.errors import ConfigurationError
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.metrics import SimulationMetrics
from repro.gnutella.protocol import GnutellaProtocol
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel
from repro.obs.trace import NULL_TRACER, PID_CHURN, emit_flood_query
from repro.rng import RngStreams, ScalarDraws
from repro.sim.kernel import Simulator
from repro.types import NodeId, QueryOutcome
from repro.workload.catalog import MusicCatalog
from repro.workload.churn import ChurnModel, SessionSchedule
from repro.workload.library import LibraryConfig, generate_libraries
from repro.workload.queries import QueryModel

__all__ = ["FastGnutellaEngine"]


class _QueryView:
    """NetworkView over the live peer population (hot path, zero copies)."""

    __slots__ = ("_out", "_holders", "_latency")

    def __init__(self, out: NeighborTable, holders: HolderIndex, latency: LatencyModel) -> None:
        self._out = out
        self._holders = holders
        self._latency = latency

    def holds(self, node: NodeId, item) -> bool:
        # Links exist only among online peers, so reachability implies
        # online; no extra check needed.
        return self._holders.holds(node, item)

    def neighbors(self, node: NodeId):
        return self._out.row(node)

    def link_delay(self, a: NodeId, b: NodeId) -> float:
        return self._latency.one_way_delay(a, b)


class FastGnutellaEngine:
    """Builds the whole Section 4.2 world and runs it to the horizon.

    Example
    -------
    >>> from repro.gnutella import GnutellaConfig
    >>> cfg = GnutellaConfig(n_users=60, n_items=5000, horizon=3600.0,
    ...                      warmup_hours=0)
    >>> metrics = FastGnutellaEngine(cfg).run()        # doctest: +SKIP

    Parameters
    ----------
    config:
        Simulation parameters.
    use_fastpath:
        Whether flood queries may run on the specialized engine of
        :mod:`repro.core.fastpath` (engaged automatically for the default
        case-study configuration). ``False`` forces every query through the
        reference :func:`~repro.core.search.generic_search`; outcomes — and
        therefore same-seed event-stream digests — are bit-identical either
        way, which the digest-equality tests assert.
    eager_delay_matrix:
        Build the full pairwise delay table up front (canonical vectorized
        draws; see :meth:`repro.net.latency.LatencyModel.delay_table`). The
        engine holds ``delay_rows()``, one ``delay(a, b)`` accessor over
        that packed float64 array (each unordered pair once, 15.25 MiB at
        2,000 peers), never a copy of it. Required by (and forced on by)
        the fast path; kept on for the reference mode so ``fast`` and
        ``fast-reference`` runs observe identical per-pair floats. The
        detailed engine turns it off to preserve its historical lazy
        first-touch sampling. Above
        :data:`~repro.net.latency.LAZY_DELAY_NODE_THRESHOLD` nodes the
        latency model refuses to materialize the O(n^2) table and
        ``delay_rows()`` transparently returns an accessor over the lazy
        per-pair cache — the flag is then effectively ignored.

    Per-node state (online flags, counters, neighbor rows, benefit ledgers)
    lives in the flat struct-of-arrays columns of
    :class:`~repro.core.soa.PeerArrays`, which the engine and its protocol
    read and write directly; churn is kept as columns too. Nothing per peer
    is built with the world: a ledger appears on a peer's first credit, and
    ``peers``, the list of per-peer views, on its first access.
    """

    #: The link-management policy. Subclasses swap the relation here (the
    #: asymmetric engine); its ``in_capacity`` sizes the incoming rows.
    protocol_class: type[GnutellaProtocol] = GnutellaProtocol

    def __init__(
        self,
        config: GnutellaConfig,
        *,
        use_fastpath: bool = True,
        eager_delay_matrix: bool = True,
    ) -> None:
        self.config = config
        #: Observability (repro.obs): a no-op tracer by default; swap in a
        #: live one with :meth:`attach_tracer` *before* :meth:`run`. Every
        #: emission site is guarded by ``tracer.enabled``, draws no RNG, and
        #: schedules nothing — event-stream digests are identical traced or
        #: untraced.
        self.tracer = NULL_TRACER
        streams = RngStreams(config.seed)

        catalog = MusicCatalog(config.n_items, config.n_categories, config.zipf_theta)
        if catalog.n_categories < config.n_secondary + 1:
            raise ConfigurationError(
                "n_categories must exceed n_secondary for library generation"
            )
        self.libraries = generate_libraries(
            catalog,
            streams.get("libraries"),
            LibraryConfig(
                n_users=config.n_users,
                mean_size=config.mean_library,
                std_size=config.std_library,
                n_secondary=config.n_secondary,
                user_category_theta=config.zipf_theta,
            ),
        )
        self.bandwidth = BandwidthModel(config.n_users, streams.get("bandwidth"))
        self.latency = LatencyModel(self.bandwidth, streams.get("latency"))
        #: Who holds what, live: one index over the generated CSR. Downloads
        #: grow it (``add_holder``); searches and local exclusion read it.
        self.holders = HolderIndex(self.libraries.items, self.libraries.offsets)
        self.query_model = QueryModel(
            self.libraries, rate_per_hour=config.queries_per_hour, holders=self.holders
        )

        # Churn as columns: who starts online, and every user's transition
        # times back to back (user u's are churn_times[churn_offsets[u] :
        # churn_offsets[u + 1]]). Each schedule is drawn, copied out and
        # dropped.
        churn_model = ChurnModel(config.mean_online, config.mean_offline)
        churn_rng = streams.get("churn")
        self.initially_online = bytearray(config.n_users)
        self.churn_times = array("d")
        self.churn_offsets = array("q", [0])
        for u in range(config.n_users):
            schedule = SessionSchedule.generate(NodeId(u), churn_model, config.horizon, churn_rng)
            self.initially_online[u] = schedule.initially_online
            self.churn_times.extend(schedule.transitions)
            self.churn_offsets.append(len(self.churn_times))
        #: Per user, the index in ``churn_times`` of the next transition not
        #: yet queued; :meth:`start` and each toggle advance it.
        self._churn_cursor = self.churn_offsets[:-1]

        self.sim = Simulator()
        self.metrics = SimulationMetrics(config.horizon)
        protocol_class = self.protocol_class
        self.arrays = PeerArrays(
            config.n_users, config.neighbor_slots, protocol_class.in_capacity
        )
        self.bootstrap = BootstrapServer()
        self.protocol = protocol_class(
            self.arrays, self.bootstrap, self.metrics, config.neighbor_slots
        )
        # Lend the protocol the kernel clock unconditionally (not only when a
        # tracer attaches): the per-hour reconfiguration series needs real
        # simulated timestamps on every run.
        self.protocol.now = lambda: self.sim.now
        self.view = _QueryView(self.arrays.out, self.holders, self.latency)
        self.termination = TTLTermination(config.max_hops)
        # Delays are static per run, so materialize the full pairwise table
        # up front (canonical vectorized draws). Built for the reference
        # mode too — not only when the fast path engages — so a ``fast`` and
        # a ``fast-reference`` run of the same config observe the exact same
        # per-pair floats, which is what makes their event-stream digests
        # bit-identical. Above the lazy threshold ``delay_rows()`` reads
        # through the per-pair cache instead of the O(n^2) table; the keyed
        # draws behind it are touch-order independent, so the
        # fast/fast-reference pairing survives at scale too.
        self._delay = None
        if eager_delay_matrix:
            self._delay = self.latency.delay_rows()

        # The two streams with a scalar draw per login, top-up and query get
        # numpy's values from raw-word blocks. ``query-timing`` draws ziggurat
        # exponentials, which ScalarDraws does not model.
        self._bootstrap_rng = ScalarDraws(streams.get("bootstrap"))
        # Timing and item choice draw from separate streams so that query
        # *arrival times* stay identical across schemes even after downloads
        # make libraries (and hence item-resampling) diverge.
        self._timing_rng = streams.get("query-timing")
        self._item_rng = ScalarDraws(streams.get("query-items"))
        self._exploration_rng = streams.get("exploration")
        self._selection_rng = streams.get("selection")
        self._strategy = config.parse_search_strategy()
        kind, k = self._strategy
        if kind == "random":
            self._selection_policy = SelectRandomK(k)
        elif kind == "directed-bft":
            self._selection_policy = SelectTopKBenefit(k)
        else:
            self._selection_policy = None
        # The specialized flood engine (repro.core.fastpath) engages
        # automatically for the default case-study configuration: SelectAll
        # flooding with holders replying and not propagating, under a plain
        # hop limit. Every other strategy keeps the generic reference path.
        self._fastpath: FloodFastPath | None = None
        if use_fastpath and kind == "flood":
            if self._delay is None:
                # The fast path needs the precomputed table; force the build.
                self._delay = self.latency.delay_rows()
            # The kernel walks the live outgoing id slab (no per-node row
            # objects) and reads the engine's one holder index.
            self._fastpath = FloodFastPath(
                self.arrays.out,
                self.holders,
                self._delay,
                self.termination.max_hops,
            )
        self._ran = False
        if config.dynamic and config.evicted_refill_immediate:
            # Evicted peers promptly fall back to the bootstrap server for a
            # random replacement (scheduled, not synchronous: the eviction
            # fires mid-reconfiguration).
            self.protocol.on_eviction = self._on_eviction

    @property
    def peers(self) -> SoAPeerList:
        """Per-peer views over :attr:`arrays`, built on first access.

        For the overlay walkers, the sanitizer, probes and tests; the
        engine itself reads the columns.
        """
        return self.arrays.peers()

    def attach_tracer(self, tracer) -> None:
        """Install a live :class:`~repro.obs.trace.Tracer` on this engine.

        Wires the tracer through the protocol (lending it the kernel clock —
        the protocol has no kernel reference of its own) and switches the
        flood fast path to collect per-hop level boundaries. Must happen
        before :meth:`run`; tracing half a run would produce a misleading
        trace.
        """
        if self._ran:
            raise ConfigurationError("attach_tracer() must be called before run()")
        self.tracer = tracer
        self.protocol.tracer = tracer
        self.protocol.now = lambda: self.sim.now
        if self._fastpath is not None:
            self._fastpath.collect_levels = tracer.enabled

    def _on_eviction(self, evicted: NodeId) -> None:
        self.sim.schedule(0.0, self._refill_evicted, evicted)

    def _refill_evicted(self, node: NodeId) -> None:
        out = self.arrays.out
        if self.arrays.online[node] and out.deg[node] < out.slots:
            self.protocol.fill_random(node, self._bootstrap_rng)

    # ------------------------------------------------------------------
    # Lifecycle events
    # ------------------------------------------------------------------
    def _login(self, node: NodeId) -> None:
        arrays = self.arrays
        arrays.online[node] = 1
        arrays.sessions[node] += 1
        self.metrics.logins += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "login", "churn", self.sim.now, pid=PID_CHURN, tid=int(node)
            )
        self.bootstrap.join(node)
        self.protocol.fill_random(node, self._bootstrap_rng)
        self._schedule_next_query(node, arrays.query_epoch[node])
        if self.config.dynamic and self.config.exploration_interval is not None:
            self._schedule_exploration(node, arrays.query_epoch[node])

    def _logoff(self, node: NodeId) -> None:
        arrays = self.arrays
        arrays.online[node] = 0
        arrays.query_epoch[node] += 1
        self.metrics.logoffs += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "logoff", "churn", self.sim.now, pid=PID_CHURN, tid=int(node)
            )
        self.bootstrap.leave(node)
        if not self.config.persist_stats:
            arrays.clear_stats(node)
        ex_neighbors = self.protocol.sever_all(node)
        for other in ex_neighbors:
            self._handle_neighbor_loss(other)

    def _handle_neighbor_loss(self, node: NodeId) -> None:
        """A neighbor just logged off; restore the degree per the scheme."""
        if not self.arrays.online[node]:
            return
        if self.config.dynamic and self.config.update_on_logoff:
            # "Neighbor log-offs trigger the update process" (Section 4.1 v).
            self.protocol.reconfigure(
                node,
                self.config.max_swaps_per_update,
                self.config.swap_margin,
                self.config.stats_decay_on_update,
            )
        self.protocol.fill_random(node, self._bootstrap_rng)

    def _toggle(self, node: NodeId) -> None:
        """Flip ``node`` online or offline, first queuing its next transition.

        A user has one transition pending at a time. The next one is queued
        through ``self._toggle``, looked up per call, so a wrapper installed
        over the method sees every transition; the one argument is what the
        event-stream digest hashes.
        """
        cursor = self._churn_cursor
        i = cursor[node]
        if i < self.churn_offsets[node + 1]:
            cursor[node] = i + 1
            self.sim.schedule_at(self.churn_times[i], self._toggle, node)
        if self.arrays.online[node]:
            self._logoff(node)
        else:
            self._login(node)

    # ------------------------------------------------------------------
    # Query events
    # ------------------------------------------------------------------
    def _schedule_next_query(self, node: NodeId, epoch: int) -> None:
        delay = self.query_model.next_interarrival(self._timing_rng)
        if self.sim.now + delay >= self.config.horizon:
            return
        self.sim.schedule(delay, self._fire_query, node, epoch)

    def _fire_query(self, node: NodeId, epoch: int) -> None:
        arrays = self.arrays
        if not arrays.online[node] or arrays.query_epoch[node] != epoch:
            return  # stale timer from a previous session
        item = self.query_model.sample_item(node, self._item_rng)
        outcome = self._execute_search(node, item)
        if outcome.hit and self.config.downloads_grow_libraries:
            # The user downloads the song and shares it from now on.
            self.holders.add_holder(node, item)
        self.metrics.record_query(
            self.sim.now,
            outcome.hit,
            outcome.messages,
            outcome.result_count,
            outcome.first_result_delay,
        )
        if self.tracer.enabled:
            emit_flood_query(
                self.tracer,
                outcome,
                level_ends=(
                    self._fastpath.last_level_ends
                    if self._fastpath is not None
                    else None
                ),
            )
        if self.config.dynamic:
            self._record_benefit(node, outcome)
            requests = arrays.requests_since_update[node] + 1
            arrays.requests_since_update[node] = requests
            if requests >= self.config.reconfiguration_threshold:
                self.protocol.reconfigure(
                    node,
                    self.config.max_swaps_per_update,
                    self.config.swap_margin,
                    self.config.stats_decay_on_update,
                )
                self.protocol.fill_random(node, self._bootstrap_rng)
        self._schedule_next_query(node, epoch)

    @property
    def fastpath_engaged(self) -> bool:
        """Whether flood queries run on the specialized fast path."""
        return self._fastpath is not None

    def _execute_search(self, node: NodeId, item):
        """Run one query with the configured search strategy."""
        kind, k = self._strategy
        if kind == "flood":
            if self._fastpath is not None:
                return self._fastpath.search(node, item, issued_at=self.sim.now)
            return generic_search(
                self.view, node, item, self.termination, issued_at=self.sim.now
            )
        if kind == "iterative-deepening":
            return iterative_deepening_search(
                self.view,
                node,
                item,
                depths=tuple(range(1, self.config.max_hops + 1)),
                issued_at=self.sim.now,
            )
        # random:K / directed-bft:K — history-based selection uses the
        # initiator's own statistics at every hop (the Directed BFT
        # approximation a BFS engine affords).
        return generic_search(
            self.view,
            node,
            item,
            self.termination,
            selection=self._selection_policy,
            stats=self.arrays.stats[node],
            rng=self._selection_rng,
            issued_at=self.sim.now,
        )

    def _record_benefit(self, node: NodeId, outcome) -> None:
        """Credit each result's responder per the configured benefit.

        The default is the paper's ``B / R`` (Section 4.1(i)).
        """
        n_results = outcome.result_count
        if n_results == 0:
            return
        add = self.arrays.stats_for_credit(node).add_benefit
        benefit = self.config.benefit
        if benefit == "bandwidth-share":
            link_kbps = self.bandwidth.link_kbps
            for result in outcome.results:
                add(result.responder, link_kbps(node, result.responder) / n_results)
        elif benefit == "hit-count":
            for result in outcome.results:
                add(result.responder, 1.0)
        else:  # latency
            for result in outcome.results:
                add(result.responder, 1.0 / (result.delay + 1e-3))

    # ------------------------------------------------------------------
    # Optional periodic exploration (the Ping-Pong extension)
    # ------------------------------------------------------------------
    def _schedule_exploration(self, node: NodeId, epoch: int) -> None:
        interval = self.config.exploration_interval
        if interval is None or self.sim.now + interval >= self.config.horizon:
            return
        self.sim.schedule(interval, self._fire_exploration, node, epoch)

    def _fire_exploration(self, node: NodeId, epoch: int) -> None:
        arrays = self.arrays
        if not arrays.online[node] or arrays.query_epoch[node] != epoch:
            return
        # Probe about items the user is likely to want next (drawn from the
        # same preference mix as real queries, without consuming the paired
        # query streams).
        probe = [
            self.query_model.sample_item(node, self._exploration_rng)
            for _ in range(self.config.exploration_probe_items)
        ]
        outcome = generic_explore(
            self.view,
            node,
            probe,
            termination=TTLTermination(self.config.exploration_ttl),
        )
        self.metrics.exploration_messages += outcome.messages
        link_kbps = self.bandwidth.link_kbps
        for report in outcome.reports:
            if report.coverage:
                arrays.stats_for_credit(node).add_benefit(
                    report.node,
                    report.coverage * link_kbps(node, report.node)
                    / self.config.exploration_probe_items,
                )
        self._schedule_exploration(node, epoch)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Queue each user's log-in and first transition, executing nothing.

        The churn timeline stays in the columns: a user has one transition
        pending at a time, and each toggle queues the next, so the heap
        holds at most one log-in per initially online user plus one entry
        per user, whatever the horizon. Splitting scheduling from execution
        lets a caller drive the world incrementally with :meth:`advance`
        (the ``repro.serve`` front end paces simulated time against the
        wall clock this way). The kernel guarantees that N incremental
        ``run(until=...)`` calls execute the exact same event sequence as
        one call to the horizon, so chunked advancement is digest-identical
        to :meth:`run`.
        """
        if self._ran:
            raise ConfigurationError("engine instances are single-use; build a new one")
        self._ran = True
        # One bound method per handler for all of start()'s events; looked
        # up here, so wrappers installed before start() apply.
        login, toggle = self._login, self._toggle
        times, offsets = self.churn_times, self.churn_offsets
        cursor = self._churn_cursor
        for user, online in enumerate(self.initially_online):
            node = NodeId(user)
            if online:
                self.sim.schedule(0.0, login, node)
            first = offsets[user]
            if first < offsets[user + 1]:
                cursor[user] = first + 1
                self.sim.schedule_at(times[first], toggle, node)

    def advance(self, until: float) -> float:
        """Execute events up to ``min(until, horizon)``; returns the clock.

        Requires :meth:`start`. Targets at or behind the current clock are
        a no-op (never an error), so pacers can call this unconditionally.
        """
        if not self._ran:
            raise ConfigurationError("advance() requires start() first")
        target = min(until, self.config.horizon)
        if target > self.sim.now:
            self.sim.run(until=target)
        return self.sim.now

    def run(self) -> SimulationMetrics:
        """Execute the simulation once; returns the populated metrics."""
        self.start()
        self.sim.run(until=self.config.horizon)
        return self.metrics

    def serve_query(self, node: NodeId, item: int) -> QueryOutcome:
        """Answer one externally submitted query against the live overlay.

        The serving front end (:mod:`repro.serve`) calls this between
        :meth:`advance` steps. It is read-only with respect to the
        simulation: no RNG draws, no kernel events, no metrics or library
        mutation — so a served query cannot perturb the event-stream digest
        (test-enforced by ``tests/serve/test_digest_neutral.py``). Served
        queries always flood (the case-study strategy); the engine's own
        workload keeps whatever strategy was configured.
        """
        if self._fastpath is not None:
            return self._fastpath.search(node, item, issued_at=self.sim.now)
        return generic_search(
            self.view, node, item, self.termination, issued_at=self.sim.now
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def neighbor_snapshot(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """Current outgoing lists (online peers only hold links)."""
        out = self.arrays.out
        return {NodeId(u): out.row_tuple(u) for u in range(self.config.n_users)}

    def online_count(self) -> int:
        """Number of peers currently online."""
        return len(self.bootstrap)

    def taste_clustering(self) -> float:
        """Fraction of links whose endpoints share a favorite category.

        The mechanism behind the paper's gains: dynamic reconfiguration
        "groups nodes with similar content together" (Section 4.3). Computed
        on the shared overlay walk (:func:`repro.obs.topology.walk_overlay`)
        so periodic probes pay one pass over the peers, no graph library.
        """
        from repro.obs.topology import walk_overlay

        view = walk_overlay(self.peers)
        favorite = dict(enumerate(self.libraries.favorite.tolist()))
        return view.clustering_by_attribute(favorite)
