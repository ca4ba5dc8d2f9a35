"""Tests for the discrete-event kernel: scheduling, ordering, run loop."""

import math
from contextlib import nullcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchedulingError, SimulationError
from repro.obs.profile import PhaseTimers
from repro.sim import Simulator


class TestScheduling:
    def test_callbacks_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "mid")
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(2.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute(self):
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [12.0]

    def test_schedule_at_fires_at_exactly_the_requested_time(self):
        """Away from ``now == 0`` the relative round-trip ``now + (time - now)``
        lands one ulp past ``time``; the absolute form must not."""
        sim = Simulator(start_time=6.258535385348296)
        target = 20513.26656482484
        seen = []
        handle = sim.schedule_at(target, lambda: seen.append(sim.now))
        sim.run()
        assert handle.time.hex() == target.hex()
        assert [t.hex() for t in seen] == [target.hex()]

    def test_schedule_at_non_finite_rejected(self):
        sim = Simulator()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SchedulingError):
                sim.schedule_at(bad, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_and_inf_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SchedulingError):
            sim.schedule_at(4.0, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            fired.append(("inner", sim.now))

        sim.schedule(2.0, outer)
        sim.run()
        assert fired == [("outer", 2.0), ("inner", 3.0)]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_events_executed_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_executed == 1


class TestRunLoop:
    def test_run_until_stops_clock_at_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(10.0, fired.append, "b")
        sim.run(until=5.0)
        assert fired == ["a"]
        assert sim.now == 5.0
        # Remaining event still runs on a later resume.
        sim.run()
        assert fired == ["a", "b"]

    @pytest.mark.parametrize("with_timers", [False, True], ids=["plain", "perf"])
    def test_run_until_holds_behind_a_cancelled_head(self, with_timers):
        """The entry behind a skipped cancelled one is checked against ``until``
        too, whether or not the caller times the run from outside the engine."""
        timers = PhaseTimers() if with_timers else None

        def timed():
            return nullcontext() if timers is None else timers.phase("engine.run")

        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, fired.append, "f")
        sim.schedule(5.0, fired.append, "g")
        head.cancel()
        with timed():
            sim.run(until=2.0)
        assert fired == []
        assert math.isclose(sim.now, 2.0)
        assert sim.pending == 1
        with timed():
            sim.run()
        assert fired == ["g"]
        assert math.isclose(sim.now, 5.0)
        if timers is not None:
            assert timers.count("engine.run") == 2

    @given(
        st.lists(st.tuples(st.floats(0.0, 100.0), st.booleans()), min_size=1, max_size=40),
        st.lists(st.floats(0.0, 100.0), max_size=8),
    )
    def test_property_chunked_run_equals_one_call(self, entries, cuts):
        """Chunked ``run(until=...)`` over cancelled entries: each chunk keeps
        its bound, and the chunks together execute what one call executes, at
        the same clock readings."""

        def build():
            sim = Simulator()
            log = []
            for label, (delay, cancelled) in enumerate(entries):
                handle = sim.schedule(delay, lambda label=label: log.append((sim.now, label)))
                if cancelled:
                    handle.cancel()
            return sim, log

        whole, whole_log = build()
        whole.run(until=100.0)
        chunked, chunked_log = build()
        for cut in sorted(cuts):
            chunked.run(until=cut)
            assert chunked.now <= cut
            assert chunked_log == [entry for entry in whole_log if entry[0] <= cut]
        chunked.run(until=100.0)
        assert chunked_log == whole_log
        assert chunked.events_executed == whole.events_executed

    def test_run_until_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SchedulingError):
            sim.run(until=1.0)

    def test_run_with_only_cancelled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None).cancel()
        sim.run()
        assert sim.events_executed == 0

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_property_execution_order_is_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
