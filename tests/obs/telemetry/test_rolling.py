"""Rolling windows: pruning, quantiles, SLO burn, and gauge publication."""

import json
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry.rolling import (
    DEFAULT_WINDOWS,
    RollingTelemetry,
    RollingWindow,
    _nearest_rank,
)


class ReferenceRollingWindow:
    """The window before pruning on observe: it prunes on read only."""

    def __init__(self, window_s):
        self.window_s = float(window_s)
        self._obs = deque()

    def observe(self, t, latency_s, ok=True):
        self._obs.append((float(t), float(latency_s), bool(ok)))

    def prune(self, now):
        horizon = now - self.window_s
        while self._obs and self._obs[0][0] < horizon:
            self._obs.popleft()

    def count(self, now):
        self.prune(now)
        return len(self._obs)

    def rate(self, now):
        self.prune(now)
        return len(self._obs) / self.window_s

    def percentile(self, now, q):
        self.prune(now)
        return _nearest_rank(sorted(o[1] for o in self._obs), q)

    def bad_fraction(self, now):
        self.prune(now)
        if not self._obs:
            return 0.0
        return sum(1 for o in self._obs if not o[2]) / len(self._obs)

    def burn_rate(self, now, error_budget):
        return self.bad_fraction(now) / error_budget


class ReferenceRollingTelemetry(RollingTelemetry):
    """Reference windows, and the observe body that built a tuple per window."""

    def __init__(self, window_seconds, **kwargs):
        super().__init__(window_seconds, **kwargs)
        self.windows = {float(w): ReferenceRollingWindow(w) for w in window_seconds}

    def observe(self, t, latency_s, ok=True):
        within_slo = ok and latency_s <= self.slo_latency_s
        for window in self.windows.values():
            window.observe(t, latency_s, within_slo)


class TestPruneOnObserve:
    def test_unread_window_holds_only_the_last_window(self):
        window = RollingWindow(10.0)
        t = 0.0
        while t <= 100.0:  # ten windows, never read
            window.observe(t, 0.01)
            t += 0.25
        last = t - 0.25
        assert len(window._obs) == 41  # 90.0 ... 100.0 inclusive
        assert window._obs[0][0] >= last - 10.0

    def test_telemetry_shares_one_entry_across_windows(self):
        telemetry = RollingTelemetry((10.0, 60.0, 300.0))
        telemetry.observe(5.0, 0.02, ok=True)
        entries = [window._obs[0] for window in telemetry.windows.values()]
        assert all(entry is entries[0] for entry in entries)
        assert entries[0] == (5.0, 0.02, True)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8.0),  # clock step
                st.floats(min_value=0.0, max_value=0.3),  # latency
                st.booleans(),  # ok
                st.booleans(),  # publish after this observation
            ),
            max_size=60,
        ),
        st.lists(st.sampled_from((1.0, 5.0, 10.0, 30.0)), min_size=1, max_size=3, unique=True),
    )
    def test_published_values_match_prune_on_read(self, steps, windows):
        kwargs = dict(slo_latency_s=0.1, slo_error_budget=0.05)
        telemetry = RollingTelemetry(windows, **kwargs)
        reference = ReferenceRollingTelemetry(windows, **kwargs)
        got, expected = MetricsRegistry(), MetricsRegistry()
        now = 0.0
        for step, latency, ok, read in steps:
            now += step
            telemetry.observe(now, latency, ok=ok)
            reference.observe(now, latency, ok=ok)
            if read:
                telemetry.publish(got, now)
                reference.publish(expected, now)
                # NaN (empty window) compares by its JSON spelling.
                assert json.dumps(got.snapshot()) == json.dumps(expected.snapshot())
        now += 7.0
        assert json.dumps(telemetry.as_dict(now)) == json.dumps(reference.as_dict(now))


class TestRollingWindow:
    def test_rejects_non_positive_window(self):
        with pytest.raises(ConfigurationError):
            RollingWindow(0.0)
        with pytest.raises(ConfigurationError):
            RollingWindow(-1.0)

    def test_count_prunes_old_observations(self):
        window = RollingWindow(10.0)
        window.observe(0.0, 0.1)
        window.observe(5.0, 0.1)
        window.observe(9.0, 0.1)
        assert window.count(9.0) == 3
        # At t=12 the t=0 observation (older than 12 - 10) has aged out.
        assert window.count(12.0) == 2
        assert window.count(100.0) == 0

    def test_rate_is_count_over_window(self):
        window = RollingWindow(10.0)
        for t in range(5):
            window.observe(float(t), 0.01)
        assert window.rate(5.0) == 0.5

    def test_percentile_nearest_rank(self):
        window = RollingWindow(60.0)
        for i, latency in enumerate((0.1, 0.2, 0.3, 0.4)):
            window.observe(float(i), latency)
        assert window.percentile(4.0, 0.5) == 0.2
        assert window.percentile(4.0, 0.99) == 0.4

    def test_percentile_of_empty_window_is_nan(self):
        assert math.isnan(RollingWindow(10.0).percentile(0.0, 0.5))

    def test_bad_fraction(self):
        window = RollingWindow(60.0)
        window.observe(0.0, 0.1, ok=True)
        window.observe(1.0, 0.1, ok=False)
        window.observe(2.0, 0.1, ok=False)
        window.observe(3.0, 0.1, ok=True)
        assert window.bad_fraction(3.0) == 0.5
        assert RollingWindow(10.0).bad_fraction(0.0) == 0.0

    def test_burn_rate_scales_bad_fraction_by_budget(self):
        window = RollingWindow(60.0)
        window.observe(0.0, 0.1, ok=False)
        window.observe(1.0, 0.1, ok=True)
        assert window.burn_rate(1.0, 0.01) == pytest.approx(50.0)

    def test_burn_rate_rejects_non_positive_budget(self):
        with pytest.raises(ConfigurationError):
            RollingWindow(10.0).burn_rate(0.0, 0.0)


class TestRollingTelemetry:
    def test_rejects_empty_window_list(self):
        with pytest.raises(ConfigurationError):
            RollingTelemetry(())

    def test_default_windows(self):
        telemetry = RollingTelemetry()
        assert set(telemetry.windows) == set(DEFAULT_WINDOWS)

    def test_slow_ok_request_burns_the_budget(self):
        # A request that succeeded but blew the latency objective is bad
        # for SLO purposes — the whole point of a latency SLO.
        telemetry = RollingTelemetry((10.0,), slo_latency_s=0.1, slo_error_budget=0.5)
        telemetry.observe(0.0, latency_s=5.0, ok=True)
        telemetry.observe(0.0, latency_s=0.05, ok=True)
        assert telemetry.windows[10.0].bad_fraction(0.0) == 0.5
        assert telemetry.windows[10.0].burn_rate(0.0, 0.5) == pytest.approx(1.0)

    def test_failed_fast_request_is_still_bad(self):
        telemetry = RollingTelemetry((10.0,), slo_latency_s=1.0)
        telemetry.observe(0.0, latency_s=0.001, ok=False)
        assert telemetry.windows[10.0].bad_fraction(0.0) == 1.0

    def test_publish_sets_labeled_gauges(self):
        registry = MetricsRegistry()
        telemetry = RollingTelemetry((10.0, 60.0), prefix="serve")
        for t in range(5):
            telemetry.observe(float(t), 0.02, ok=True)
        telemetry.publish(registry, 4.0)
        latency = registry.gauge("serve.rolling_latency_seconds")
        assert latency.get(window="10s", quantile="0.5") == 0.02
        assert latency.get(window="60s", quantile="0.99") == 0.02
        qps = registry.gauge("serve.rolling_qps")
        assert qps.get(window="10s") == 0.5
        burn = registry.gauge("serve.slo_burn_rate")
        assert burn.get(window="10s") == 0.0

    def test_as_dict_shape(self):
        telemetry = RollingTelemetry(
            (10.0,), slo_latency_s=0.25, slo_error_budget=0.02
        )
        telemetry.observe(0.0, 0.05)
        block = telemetry.as_dict(0.0)
        assert block["slo_latency_s"] == 0.25
        assert block["slo_error_budget"] == 0.02
        window = block["windows"]["10s"]
        assert window["requests"] == 1.0
        assert window["qps"] == 0.1
        assert set(window) == {
            "requests", "qps", "p50_s", "p95_s", "p99_s", "p999_s", "burn_rate",
        }
        assert window["p50_s"] == 0.05
        assert window["burn_rate"] == 0.0
