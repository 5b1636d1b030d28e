"""Measurement utilities: time series, delay probes, rate meters.

Every figure in the paper's evaluation is a time series (rates, delays,
γ, red loss, PSNR), so the experiment harness leans on these recorders
rather than ad-hoc lists scattered through components.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "TimeSeries",
    "DelayProbe",
    "RateMeter",
    "summarize",
]


class TimeSeries:
    """An append-only (time, value) series with window queries."""

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series records must be monotonic in time")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def window(self, t_start: float, t_end: float) -> List[Tuple[float, float]]:
        """Samples with ``t_start <= t < t_end``."""
        lo = bisect_left(self.times, t_start)
        hi = bisect_left(self.times, t_end)
        return list(zip(self.times[lo:hi], self.values[lo:hi]))

    def mean(self, t_start: float = 0.0, t_end: float = math.inf) -> float:
        samples = [v for t, v in self.window(t_start, t_end)]
        if not samples:
            return float("nan")
        return sum(samples) / len(samples)

    def minmax(self, t_start: float = 0.0, t_end: float = math.inf) -> Tuple[float, float]:
        samples = [v for t, v in self.window(t_start, t_end)]
        if not samples:
            return (float("nan"), float("nan"))
        return (min(samples), max(samples))

    def value_at(self, time: float) -> float:
        """Most recent sample at or before ``time`` (step interpolation)."""
        index = bisect_right(self.times, time) - 1
        if index < 0:
            raise ValueError(f"no sample at or before t={time}")
        return self.values[index]


class DelayProbe:
    """Records per-packet one-way delays, bucketed over time.

    Used for Figs. 8 and 9 (green/yellow/red queueing delays).

    The aggregate counters (count / mean / max) are always maintained —
    they cost three arithmetic ops per sample.  The full time series is
    opt-out/sampled via ``series_stride``: with the default of 1 every
    sample is recorded (exact window queries); a stride of ``n`` keeps
    every n-th sample; 0 disables the series entirely so an idle probe
    costs nothing per packet beyond the counters.
    """

    __slots__ = ("name", "series", "count", "_sum", "_max",
                 "series_stride", "_tick")

    def __init__(self, name: str = "", series_stride: int = 1) -> None:
        if series_stride < 0:
            raise ValueError("series_stride must be >= 0")
        self.name = name
        self.series = TimeSeries(name)
        self.count = 0
        self._sum = 0.0
        self._max = 0.0
        self.series_stride = series_stride
        self._tick = 0

    def record(self, now: float, delay: float) -> None:
        self.count += 1
        self._sum += delay
        if delay > self._max:
            self._max = delay
        stride = self.series_stride
        if stride:
            self._tick += 1
            if self._tick >= stride:
                self._tick = 0
                # TimeSeries.record, in place: this runs once per
                # delivered packet.
                series = self.series
                times = series.times
                if times and now < times[-1]:
                    raise ValueError(
                        "time series records must be monotonic in time")
                times.append(now)
                series.values.append(delay)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max

    def mean_in(self, t_start: float, t_end: float) -> float:
        return self.series.mean(t_start, t_end)


class RateMeter:
    """Byte counter sampled into a rate (bits/second) time series."""

    __slots__ = ("name", "series", "_bytes", "_last_sample", "total_bytes")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.series = TimeSeries(name)
        self._bytes = 0
        self._last_sample = 0.0
        self.total_bytes = 0

    def add(self, nbytes: int) -> None:
        self._bytes += nbytes
        self.total_bytes += nbytes

    def sample(self, now: float) -> float:
        """Close the current interval and record its average rate."""
        interval = now - self._last_sample
        rate = (self._bytes * 8 / interval) if interval > 0 else 0.0
        self.series.record(now, rate)
        self._bytes = 0
        self._last_sample = now
        return rate

    def mean_rate(self, t_start: float = 0.0, t_end: float = math.inf) -> float:
        return self.series.mean(t_start, t_end)


@dataclass
class SummaryStats:
    """Five-number-ish summary of a sequence."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute a summary of ``values`` (population std)."""
    values = list(values)
    if not values:
        return SummaryStats(0, float("nan"), float("nan"),
                            float("nan"), float("nan"))
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return SummaryStats(n, mean, math.sqrt(var), min(values), max(values))
