"""Tests for the wall-clock phase timers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.profile import PhaseTimers


class TestPhaseTimers:
    def test_add_accumulates_seconds_and_counts(self):
        timers = PhaseTimers()
        timers.add("engine.run", 0.25)
        timers.add("engine.run", 0.75)
        assert timers.seconds("engine.run") == pytest.approx(1.0)
        assert timers.count("engine.run") == 2
        assert len(timers) == 1

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimers().add("x", -0.1)

    def test_unknown_phase_reads_zero(self):
        timers = PhaseTimers()
        assert timers.seconds("never") == 0.0
        assert timers.count("never") == 0

    def test_phase_context_manager_times_block(self):
        timers = PhaseTimers()
        with timers.phase("setup"):
            pass
        assert timers.count("setup") == 1
        assert timers.seconds("setup") >= 0.0

    def test_phase_records_even_on_exception(self):
        timers = PhaseTimers()
        with pytest.raises(RuntimeError):
            with timers.phase("boom"):
                raise RuntimeError("x")
        assert timers.count("boom") == 1

    def test_total_seconds_sums_phases(self):
        timers = PhaseTimers()
        timers.add("a", 1.0)
        timers.add("b", 2.0)
        assert timers.total_seconds == pytest.approx(3.0)

    def test_as_dict_is_sorted_and_json_ready(self):
        timers = PhaseTimers()
        timers.add("b", 2.0)
        timers.add("a", 1.0)
        rendered = timers.as_dict()
        assert list(rendered) == ["a", "b"]
        assert rendered["a"] == {"seconds": 1.0, "count": 1}

    def test_merge_timers(self):
        a, b = PhaseTimers(), PhaseTimers()
        a.add("run", 1.0)
        b.add("run", 2.0)
        b.add("setup", 0.5)
        a.merge(b)
        assert a.seconds("run") == pytest.approx(3.0)
        assert a.count("run") == 2
        assert a.seconds("setup") == pytest.approx(0.5)

    def test_merge_accepts_as_dict_rendering(self):
        a, b = PhaseTimers(), PhaseTimers()
        a.add("run", 1.0)
        b.add("run", 2.0)
        a.merge(b.as_dict())
        assert a.seconds("run") == pytest.approx(3.0)
        assert a.count("run") == 2


_phase_events = st.lists(
    st.tuples(
        st.sampled_from(["setup", "run", "teardown", "kernel", "flush"]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    max_size=40,
)


def _filled(events) -> PhaseTimers:
    timers = PhaseTimers()
    for name, seconds in events:
        timers.add(name, seconds)
    return timers


class TestPhaseTimersMergeProperties:
    """Merging a timer set and merging its ``as_dict`` rendering must be the
    same operation — the cross-process aggregation path (JSON over the wire)
    may not drift from the in-process one."""

    @given(_phase_events, _phase_events)
    def test_merge_of_rendering_equals_merge_of_timers(self, base, extra):
        via_timers = _filled(base)
        via_timers.merge(_filled(extra))
        via_dict = _filled(base)
        via_dict.merge(_filled(extra).as_dict())
        assert via_timers.as_dict() == via_dict.as_dict()

    @given(_phase_events)
    def test_as_dict_round_trips_through_merge(self, events):
        original = _filled(events)
        rebuilt = PhaseTimers()
        rebuilt.merge(original.as_dict())
        assert rebuilt.as_dict() == original.as_dict()
        assert rebuilt.total_seconds == pytest.approx(original.total_seconds)

    @given(_phase_events, _phase_events)
    def test_merge_conserves_totals_and_counts(self, base, extra):
        merged = _filled(base)
        merged.merge(_filled(extra))
        everything = _filled(base + extra)
        rendered, expected = merged.as_dict(), everything.as_dict()
        assert list(rendered) == list(expected)
        for name, entry in expected.items():
            assert rendered[name]["count"] == entry["count"]
            # Merging pre-summed groups reassociates float addition, so
            # seconds agree to rounding, not bit for bit.
            assert rendered[name]["seconds"] == pytest.approx(entry["seconds"])
