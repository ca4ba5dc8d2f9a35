"""The shape of every Section 4.3 figure at the smoke preset.

Each test runs one figure's full sweep and asserts the qualitative claim the
paper's plot makes (EXPERIMENTS.md records the measured magnitudes). Fig 1(a),
dynamic above static on hits, is ``test_runners.py::TestFigure1``.
"""

import pytest

from repro.experiments import figure1, figure2, figure3a, figure3b


def test_figure1_dynamic_does_not_add_overhead():
    result = figure1.run(preset="smoke", seed=0)
    warmup = result.static.config.warmup_hours
    static_msgs = result.static.metrics.messages_total(warmup)
    dynamic_msgs = result.dynamic.metrics.messages_total(warmup)
    assert dynamic_msgs <= 1.02 * static_msgs, (
        "Fig 1(b): dynamic must not increase query overhead"
    )


def test_figure2_dynamic_cuts_overhead_and_delay_at_ttl4():
    result = figure2.run(preset="smoke", seed=0)
    warmup = result.static.config.warmup_hours
    static = result.static.metrics
    dynamic = result.dynamic.metrics
    assert dynamic.hits_total(warmup) >= 0.97 * static.hits_total(warmup), (
        "Fig 2(a): dynamic hits must stay at least on par with static"
    )
    assert dynamic.messages_total(warmup) < static.messages_total(warmup), (
        "Fig 2(b): dynamic must reduce query overhead at TTL 4"
    )
    assert (
        dynamic.mean_first_result_delay_ms() < static.mean_first_result_delay_ms()
    ), "dynamic must answer faster at TTL 4"


def test_figure3a_delay_grows_with_ttl_and_dynamic_stays_below():
    result = figure3a.run(preset="smoke", seed=0)
    # Static delay must increase monotonically with the hop limit.
    assert all(
        a < b for a, b in zip(result.static_delay_ms, result.static_delay_ms[1:])
    ), "Fig 3(a): static delay must grow with the terminating condition"
    # Dynamic answers faster at every extensive-search setting.
    for hops, s, d in zip(result.hops, result.static_delay_ms, result.dynamic_delay_ms):
        if hops >= 2:
            assert d < s, f"dynamic must be faster at hops={hops}"
    # Results grow with TTL for both schemes.
    assert all(a < b for a, b in zip(result.static_results, result.static_results[1:]))
    assert all(a < b for a, b in zip(result.dynamic_results, result.dynamic_results[1:]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_figure3b_small_threshold_peak(seed):
    """EXPERIMENTS.md records the peak on T=2 or T=4 depending on the seed;
    these claims must hold at every seed."""
    result = figure3b.run(preset="smoke", seed=seed)
    peak = max(result.dynamic_hits)
    assert result.best_threshold <= 8, "Fig 3(b): the optimum must sit at a small threshold"
    assert peak > result.static_hits, "the peak must beat the static baseline"
    assert result.dynamic_hits[-1] < peak, (
        "Fig 3(b): the largest threshold must decay from the peak toward static"
    )
