"""Unit tests for measurement utilities."""

from __future__ import annotations

import math

import pytest

from repro.sim.stats import DelayProbe, RateMeter, TimeSeries, summarize


class TestTimeSeries:
    def test_record_and_iterate(self):
        ts = TimeSeries("x")
        ts.record(1.0, 10.0)
        ts.record(2.0, 20.0)
        assert list(ts) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(ts) == 2

    def test_monotonic_time_enforced(self):
        ts = TimeSeries()
        ts.record(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(1.0, 1.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_window_is_half_open(self):
        ts = TimeSeries()
        for t in (1.0, 2.0, 3.0, 4.0):
            ts.record(t, t)
        assert [v for _, v in ts.window(2.0, 4.0)] == [2.0, 3.0]

    def test_mean_over_window(self):
        ts = TimeSeries()
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 100.0)]:
            ts.record(t, v)
        assert ts.mean(0.0, 2.0) == 2.0

    def test_mean_empty_window_is_nan(self):
        ts = TimeSeries()
        ts.record(1.0, 1.0)
        assert math.isnan(ts.mean(5.0, 6.0))

    def test_minmax(self):
        ts = TimeSeries()
        for t, v in [(0.0, 5.0), (1.0, -2.0), (2.0, 9.0)]:
            ts.record(t, v)
        assert ts.minmax() == (-2.0, 9.0)

    def test_value_at_steps(self):
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        ts.record(3.0, 30.0)
        assert ts.value_at(2.5) == 10.0
        assert ts.value_at(3.0) == 30.0
        with pytest.raises(ValueError):
            ts.value_at(0.5)

    def test_last(self):
        ts = TimeSeries()
        assert ts.last() is None
        ts.record(1.0, 7.0)
        assert ts.last() == 7.0


class TestDelayProbe:
    def test_mean_and_max(self):
        probe = DelayProbe()
        probe.record(1.0, 0.010)
        probe.record(2.0, 0.030)
        assert probe.mean == pytest.approx(0.020)
        assert probe.max == 0.030
        assert probe.count == 2

    def test_mean_in_window(self):
        probe = DelayProbe()
        probe.record(1.0, 0.010)
        probe.record(10.0, 0.050)
        assert probe.mean_in(5.0, 20.0) == pytest.approx(0.050)

    def test_empty_probe_mean_is_nan(self):
        assert math.isnan(DelayProbe().mean)


class TestRateMeter:
    def test_rate_computation(self):
        meter = RateMeter()
        meter.add(1250)  # 10 000 bits
        rate = meter.sample(now=1.0)
        assert rate == pytest.approx(10_000.0)

    def test_counter_resets_between_samples(self):
        meter = RateMeter()
        meter.add(1250)
        meter.sample(now=1.0)
        assert meter.sample(now=2.0) == 0.0
        assert meter.total_bytes == 1250

    def test_mean_rate(self):
        meter = RateMeter()
        meter.add(1250)
        meter.sample(now=1.0)
        meter.add(2500)
        meter.sample(now=2.0)
        assert meter.mean_rate() == pytest.approx(15_000.0)


class TestSummarize:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.std == pytest.approx(math.sqrt(1.25))

    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)
