"""The engine's per-peer columns equal what they replaced.

Ledgers: a node's :class:`~repro.core.statistics.StatsTable` exists only
once the node has been credited, and every answer equals an always-built
table's. Churn: the columns ``start()`` schedules from hold exactly what
``SessionSchedule.generate`` draws per user from the ``churn`` stream, and
queuing one transition per user at a time executes the same event stream
as queuing the whole timeline up front (``reference_start``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.soa import PeerArrays
from repro.core.statistics import StatsTable
from repro.errors import ConfigurationError
from repro.gnutella.asymmetric import AsymmetricFastEngine
from repro.gnutella.bootstrap import BootstrapServer
from repro.gnutella.config import GnutellaConfig
from repro.gnutella.fast import FastGnutellaEngine
from repro.gnutella.metrics import SimulationMetrics
from repro.gnutella.protocol import GnutellaProtocol
from repro.lint.sanitize import attach_hasher, run_hashed
from repro.rng import RngStreams
from repro.types import HOUR, NodeId
from repro.workload.churn import ChurnModel, SessionSchedule

N_PEERS = 6
SLOTS = 2
OPS = ("credit", "reset", "clear", "decay", "benefit_of", "ranked", "top_k")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(OPS),
            st.integers(0, N_PEERS - 1),
            st.integers(0, N_PEERS - 1),
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
        ),
        max_size=80,
    )
)
@settings(max_examples=200, deadline=None)
def test_lazy_ledgers_answer_as_always_built_tables(ops):
    """Credit through the engine's credit site, reset and clear through the
    eviction and log-off paths, decay through ``reconfigure``; read the way
    the protocol reads. No read, reset, clear or decay creates a table."""
    arrays = PeerArrays(N_PEERS, SLOTS)
    protocol = GnutellaProtocol(
        arrays, BootstrapServer(), SimulationMetrics(horizon=HOUR), SLOTS
    )
    reference = [StatsTable() for _ in range(N_PEERS)]
    credited: set[int] = set()
    for op, node, other, amount in ops:
        ref = reference[node]
        if op == "credit":
            arrays.stats_for_credit(node).add_benefit(other, amount)
            ref.add_benefit(other, amount)
            credited.add(node)
        elif op == "reset":
            arrays.reset_stats(node, other)
            ref.reset(other)
        elif op == "clear":
            arrays.clear_stats(node)
            ref.clear()
        elif op == "decay":
            # Everyone is offline, so the plan can only confirm the (empty)
            # neighbourhood: the call reaches its decay step and nothing else.
            factor = min(amount, 1.0)
            protocol.reconfigure(node, stats_decay=factor)
            if factor == 0.0:
                ref.clear()
            elif factor < 1.0:
                ref.decay(factor)
        elif op == "benefit_of":
            assert arrays.stats_or_empty(node).benefit_of(other) == ref.benefit_of(other)
        elif op == "ranked":
            assert arrays.stats_or_empty(node).ranked(exclude=(node,)) == ref.ranked(
                exclude=(node,)
            )
        else:
            k = int(amount)
            assert arrays.stats_or_empty(node).top_k(k) == ref.top_k(k)
        assert {u for u, stats in enumerate(arrays.stats) if stats is not None} == credited
    for node in range(N_PEERS):
        got = arrays.stats_or_empty(node)
        ledger = [(n, got.benefit_of(n), got.encounters_of(n)) for n in got.known_nodes()]
        ref = reference[node]
        assert ledger == [(n, ref.benefit_of(n), ref.encounters_of(n)) for n in ref.known_nodes()]
        assert got.ranked() == ref.ranked()


def test_empty_reads_are_fresh_tables():
    """A read of an uncredited node never hands out a shared table."""
    arrays = PeerArrays(2, SLOTS)
    first, second = arrays.stats_or_empty(0), arrays.stats_or_empty(1)
    assert first is not second and len(first) == len(second) == 0
    assert arrays.stats == [None, None]


def churn_config(seed: int) -> GnutellaConfig:
    return GnutellaConfig(
        n_users=60,
        n_items=3000,
        mean_library=30.0,
        std_library=8.0,
        horizon=18 * HOUR,
        warmup_hours=0,
        seed=seed,
    )


def test_churn_columns_replay_session_schedules():
    for seed in (0, 1, 7, 2024):
        config = churn_config(seed)
        engine = FastGnutellaEngine(config)
        model = ChurnModel(config.mean_online, config.mean_offline)
        rng = RngStreams(seed).get("churn")
        times, offsets = engine.churn_times, engine.churn_offsets
        assert len(engine.initially_online) == config.n_users
        assert len(offsets) == config.n_users + 1
        for user in range(config.n_users):
            schedule = SessionSchedule.generate(user, model, config.horizon, rng)
            assert engine.initially_online[user] == schedule.initially_online
            assert tuple(times[offsets[user] : offsets[user + 1]]) == schedule.transitions
        # start() queues one log-in per initially online user and the first
        # transition of each user that has any, nothing else.
        engine.start()
        with_transitions = sum(offsets[u] < offsets[u + 1] for u in range(config.n_users))
        assert engine.sim.pending == sum(engine.initially_online) + with_transitions


def test_each_toggle_queues_the_users_next_transition(monkeypatch):
    """Every transition executes, once and in order, and none is left
    pending at the horizon."""
    toggle = FastGnutellaEngine._toggle
    executed: dict[int, list[float]] = {}

    def recording_toggle(self, node):
        executed.setdefault(node, []).append(self.sim.now)
        toggle(self, node)

    monkeypatch.setattr(FastGnutellaEngine, "_toggle", recording_toggle)
    for seed in (0, 1, 7, 2024):
        config = churn_config(seed)
        engine = FastGnutellaEngine(config)
        times, offsets = engine.churn_times, engine.churn_offsets
        executed.clear()
        engine.start()
        engine.advance(config.horizon)
        for user in range(config.n_users):
            assert executed.get(user, []) == list(times[offsets[user] : offsets[user + 1]])
        assert not any(
            getattr(entry[-1].fn, "__func__", None) is recording_toggle
            for entry in engine.sim._queue._heap
        )


def reference_start(self) -> None:
    """The eager ``start()``: every user's whole churn timeline is queued at
    t = 0. Each cursor is set to its row's end, so a toggle queues nothing."""
    if self._ran:
        raise ConfigurationError("engine instances are single-use; build a new one")
    self._ran = True
    self._churn_cursor = self.churn_offsets[1:]
    login, toggle = self._login, self._toggle
    times, offsets = self.churn_times, self.churn_offsets
    for user, online in enumerate(self.initially_online):
        node = NodeId(user)
        if online:
            self.sim.schedule(0.0, login, node)
        for t in times[offsets[user] : offsets[user + 1]]:
            self.sim.schedule_at(t, toggle, node)


def churn_heavy_config(seed: int) -> GnutellaConfig:
    """20-minute sessions over 8 hours: ~24 transitions per user, sharing
    the heap with thousands of queries."""
    return GnutellaConfig(
        n_users=100,
        n_items=3000,
        mean_library=30.0,
        std_library=8.0,
        horizon=8 * HOUR,
        warmup_hours=0,
        mean_online=HOUR / 3,
        mean_offline=HOUR / 3,
        seed=seed,
    )


def test_reference_start_queues_the_whole_timeline():
    engine = FastGnutellaEngine(churn_heavy_config(0))
    reference_start(engine)
    assert engine.sim.pending == sum(engine.initially_online) + len(engine.churn_times)


def _hashed(engine_name: str, config: GnutellaConfig) -> tuple[str, SimulationMetrics]:
    if engine_name == "asymmetric":
        engine = AsymmetricFastEngine(config)
        hasher = attach_hasher(engine.sim)
        engine.run()
        return hasher.hexdigest(), engine.metrics
    result, digest = run_hashed(config, engine_name)
    return digest, result.metrics


@pytest.mark.parametrize("engine_name", ["fast", "fast-reference", "asymmetric", "detailed"])
def test_lazy_churn_digest_equals_eager(engine_name, monkeypatch):
    """Order could differ only at an exact float tie between a transition
    and another event; the event streams must hash alike."""
    for seed in range(5):
        config = churn_heavy_config(seed)
        lazy, metrics = _hashed(engine_name, config)
        with monkeypatch.context() as patch:
            patch.setattr(FastGnutellaEngine, "start", reference_start)
            eager, _ = _hashed(engine_name, config)
        assert metrics.total_queries > 2000 and metrics.logoffs > 1000
        assert lazy == eager, f"seed {seed}"
