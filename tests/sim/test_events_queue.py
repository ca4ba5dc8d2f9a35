"""Unit tests for the raw EventQueue (exercised indirectly by the kernel;
these pin down its contract directly)."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue, ScheduledCallback


def cb():
    return ScheduledCallback(0.0, lambda: None)


class TestEventQueue:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        q.push(1.0, cb())
        assert q
        assert len(q) == 1

    def test_pop_time_order(self):
        q = EventQueue()
        handles = {t: cb() for t in (3.0, 1.0, 2.0)}
        for t, handle in handles.items():
            q.push(t, handle)
        times = [q.pop()[0] for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_fifo_within_same_time_and_priority(self):
        q = EventQueue()
        first, second = cb(), cb()
        q.push(1.0, first)
        q.push(1.0, second)
        assert q.pop()[1] is first
        assert q.pop()[1] is second

    def test_peek_time(self):
        q = EventQueue()
        q.push(5.0, cb())
        q.push(2.0, cb())
        assert q.peek_time() == 2.0
        assert len(q) == 2  # peeking does not pop

    def test_empty_queue_errors(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.peek_time()
        with pytest.raises(SchedulingError):
            q.pop()

    def test_scheduled_callback_cancel_flag(self):
        handle = cb()
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled


class TestObserverRegistry:
    def test_mark_observer_registers_and_flags(self):
        from repro.sim.events import is_observer, mark_observer, observer_registry

        @mark_observer
        def registry_probe_alpha(engine):
            return engine

        assert is_observer(registry_probe_alpha)
        names = observer_registry()
        assert names == tuple(sorted(names)), "registry must expose sorted names"
        assert any("registry_probe_alpha" in name for name in names)

    def test_registry_holds_callbacks_weakly(self):
        import gc

        from repro.sim.events import mark_observer, observer_registry

        @mark_observer
        def registry_probe_ephemeral(engine):
            return engine

        marker = registry_probe_ephemeral.__qualname__
        assert any(marker in name for name in observer_registry())
        del registry_probe_ephemeral
        gc.collect()
        assert not any(marker in name for name in observer_registry())

    def test_production_observers_are_registered_on_import(self):
        from repro.gnutella import probes  # noqa: F401  (import registers)
        from repro.sim.events import observer_registry

        names = observer_registry()
        assert any("consistency" in n or "probe" in n.lower() for n in names)
