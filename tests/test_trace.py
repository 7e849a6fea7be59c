"""Unit and property tests for trace series and sliding windows."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulation import Series, Trace, float_sum, sliding_window_average


class TestSeries:
    def test_append_and_iterate(self):
        s = Series("lat")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert list(s) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(s) == 2

    def test_times_must_be_monotone(self):
        s = Series("lat")
        s.append(5.0, 1.0)
        with pytest.raises(ValueError):
            s.append(4.0, 1.0)

    def test_mean_stddev(self):
        s = Series("x")
        for i, v in enumerate([2.0, 4.0, 6.0]):
            s.append(i, v)
        assert s.mean() == 4.0
        assert s.stddev() == pytest.approx(math.sqrt(8 / 3))

    def test_empty_summaries_are_nan(self):
        s = Series("empty")
        assert math.isnan(s.mean())
        assert math.isnan(s.stddev())
        assert math.isnan(s.percentile(50))
        assert math.isnan(s.min())
        assert math.isnan(s.max())

    def test_percentile_bounds(self):
        s = Series("x")
        s.append(0, 1.0)
        with pytest.raises(ValueError):
            s.percentile(101)
        with pytest.raises(ValueError):
            s.percentile(-1)

    def test_percentile_nearest_rank(self):
        s = Series("x")
        for i in range(1, 101):
            s.append(i, float(i))
        assert s.percentile(50) == 50.0
        assert s.percentile(95) == 95.0
        assert s.percentile(100) == 100.0

    def test_between_half_open(self):
        s = Series("x")
        for t in range(5):
            s.append(t, float(t))
        window = s.between(1, 3)
        assert window.values == [1.0, 2.0]

    def test_window_values(self):
        s = Series("x")
        for t in range(10):
            s.append(t, float(t))
        assert s.window_values(7, 100) == [7.0, 8.0, 9.0]

    def test_window_values_default_is_half_open(self):
        s = Series("x")
        for t in range(10):
            s.append(t, float(t))
        # end is exclusive by default: tiling buckets never double-count
        assert s.window_values(2, 5) == [2.0, 3.0, 4.0]
        assert s.window_values(2, 5, closed="left") == [2.0, 3.0, 4.0]

    def test_window_values_closed_both_includes_end(self):
        s = Series("x")
        for t in range(10):
            s.append(t, float(t))
        assert s.window_values(2, 5, closed="both") == [2.0, 3.0, 4.0, 5.0]

    def test_window_values_rejects_unknown_closed(self):
        s = Series("x")
        with pytest.raises(ValueError):
            s.window_values(0, 1, closed="right")

    def test_smoothed_is_trailing_average(self):
        s = Series("x")
        values = [0.0, 10.0, 20.0, 30.0]
        for t, v in enumerate(values):
            s.append(float(t), v)
        smooth = s.smoothed(window=2.0)
        # at t=3 the window (1, 3] covers values at t in {1.001..3}
        assert smooth.values[-1] == pytest.approx((20.0 + 30.0) / 2)

    def test_smoothed_preserves_length(self):
        s = Series("x")
        for t in range(20):
            s.append(t * 0.5, float(t))
        assert len(s.smoothed(3.0)) == len(s)


class TestSlidingWindow:
    def test_empty_window_returns_none(self):
        s = Series("x")
        assert sliding_window_average(s, now=10.0, window=3.0) is None

    def test_window_average(self):
        s = Series("x")
        s.append(8.0, 100.0)
        s.append(9.0, 200.0)
        s.append(10.0, 300.0)
        assert sliding_window_average(s, now=10.0, window=3.0) == pytest.approx(200.0)

    def test_old_samples_excluded(self):
        s = Series("x")
        s.append(1.0, 1000.0)
        s.append(10.0, 100.0)
        assert sliding_window_average(s, now=10.0, window=3.0) == pytest.approx(100.0)


class TestTrace:
    def test_record_creates_series(self):
        trace = Trace()
        trace.record("lat", 1.0, 5.0)
        assert "lat" in trace
        assert trace["lat"].values == [5.0]

    def test_names_in_creation_order(self):
        trace = Trace()
        trace.record("b", 0, 1)
        trace.record("a", 0, 1)
        assert trace.names() == ["b", "a"]

    def test_series_is_cached(self):
        trace = Trace()
        assert trace.series("x") is trace.series("x")


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_percentile_100_is_max(values):
    s = Series("prop")
    for i, v in enumerate(values):
        s.append(float(i), v)
    assert s.percentile(100) == max(values)
    assert s.percentile(0) == min(values)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_percentile_monotone_in_pct(values):
    s = Series("prop")
    for i, v in enumerate(values):
        s.append(float(i), v)
    pcts = [10, 25, 50, 75, 90, 99]
    results = [s.percentile(p) for p in pcts]
    assert results == sorted(results)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100),
                  st.floats(min_value=0, max_value=1e3)),
        min_size=1,
        max_size=100,
    )
)
def test_smoothed_within_min_max(samples):
    samples = sorted(samples, key=lambda p: p[0])
    s = Series("prop")
    last = None
    for t, v in samples:
        if last is not None and t <= last:
            t = last + 1e-6
        s.append(t, v)
        last = t
    smooth = s.smoothed(5.0)
    lo, hi = min(s.values), max(s.values)
    assert all(lo - 1e-9 <= v <= hi + 1e-9 for v in smooth.values)


class TestFloatSum:
    def test_adds_left_to_right_without_compensation(self):
        # 1e16 + 1.0 rounds back to 1e16, so the uncompensated sum is 0.0;
        # a compensated sum (the builtin's from Python 3.12) gives 1.0.
        assert float_sum([1e16, 1.0, -1e16]) == 0.0
        assert float_sum([]) == 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32)))
    def test_matches_a_plain_loop(self, values):
        total = 0.0
        for value in values:
            total += value
        assert float_sum(values) == total

