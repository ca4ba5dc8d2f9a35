"""Property tests for the measurement accumulators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import HourlyBuckets, WelfordStats


class ReferenceHourlyBuckets(HourlyBuckets):
    """The accumulator as it was: one ``int64`` array, updated per event."""

    def __init__(self, horizon, width=3600.0):
        super().__init__(horizon, width)
        self._counts = np.zeros(self.n_buckets, dtype=np.int64)

    def add(self, time, amount=1):
        if time < 0:
            raise ValueError(f"negative time {time!r}")
        idx = int(time / self.width)
        if idx >= self.n_buckets:
            idx = self.n_buckets - 1
        self._counts[idx] += amount

    @property
    def counts(self):
        return self._counts.copy()

    def series(self, skip=0):
        if skip < 0 or skip > self.n_buckets:
            raise ValueError(f"skip must be in [0, {self.n_buckets}], got {skip}")
        idx = np.arange(skip, self.n_buckets, dtype=int)
        return idx, self._counts[skip:].copy()

    def total(self, skip=0):
        return int(self._counts[skip:].sum())


def same_array(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape and (got == expected).all()


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20_000.0),
            st.integers(min_value=0, max_value=2**40),
        ),
        max_size=60,
    ),
    st.integers(min_value=0, max_value=40),
)
def test_buckets_match_int64_array_reference(events, skip):
    """Integer amounts: the reads are the arrays they always were, values and
    dtypes, and every read is the caller's own copy."""
    hb, ref = HourlyBuckets(10_000.0, 250.0), ReferenceHourlyBuckets(10_000.0, 250.0)
    for time, amount in events:
        hb.add(time, amount)
        ref.add(time, amount)
    assert same_array(hb.counts, ref.counts)
    for got, expected in zip(hb.series(skip), ref.series(skip)):
        assert same_array(got, expected)
    assert hb.total(skip) == ref.total(skip)
    assert type(hb.total(skip)) is int
    hb.counts[:] = -1
    hb.series()[1][:] = -1
    assert same_array(hb.counts, ref.counts)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=9999.0),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=60,
    )
)
def test_buckets_conserve_totals(events):
    hb = HourlyBuckets(horizon=10_000.0, width=250.0)
    for time, amount in events:
        hb.add(time, amount)
    assert hb.counts.sum() == sum(a for _, a in events)
    assert hb.total() == sum(a for _, a in events)


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=9999.0),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=0, max_value=39),
)
def test_buckets_skip_partition(times, skip):
    hb = HourlyBuckets(horizon=10_000.0, width=250.0)
    for t in times:
        hb.add(t)
    # skip + kept always partitions the total.
    _, kept = hb.series(skip=skip)
    assert kept.sum() + hb.counts[:skip].sum() == len(times)


@given(
    st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=1, max_size=80),
    st.integers(min_value=1, max_value=79),
)
@settings(max_examples=40)
def test_welford_merge_order_irrelevant(xs, split):
    split = min(split, len(xs))
    left, right = WelfordStats(), WelfordStats()
    for x in xs[:split]:
        left.add(x)
    for x in xs[split:]:
        right.add(x)
    forward = WelfordStats()
    forward.merge(left)
    forward.merge(right)
    backward = WelfordStats()
    backward.merge(right)
    backward.merge(left)
    assert forward.count == backward.count == len(xs)
    assert np.isclose(forward.mean, backward.mean, rtol=1e-9, atol=1e-9)
    assert forward.min == backward.min
    assert forward.max == backward.max
