"""Simple traffic generators: CBR and Poisson sources.

Used for Internet-queue cross traffic (the paper keeps the best-effort
aggregate backlogged so WRR grants PELS exactly its 50% share) and for
queue/scheduler tests.
"""

from __future__ import annotations

from typing import Optional

from .engine import Simulator
from .node import Host
from .packet import Color, Packet

__all__ = ["CbrSource", "PoissonSource", "ParetoBurstSource"]


class CbrSource:
    """Constant-bit-rate source of best-effort packets."""

    def __init__(self, sim: Simulator, host: Host, dst_host: Host,
                 flow_id: int, rate_bps: float, packet_size: int = 1000,
                 color: Color = Color.BEST_EFFORT, start_time: float = 0.0,
                 stop_time: Optional[float] = None) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if packet_size <= 0:
            raise ValueError("packet size must be positive")
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.color = color
        self.stop_time = stop_time
        self.packets_sent = 0
        self._seq = 0
        self._emit_cb = self._emit
        sim.call_later(start_time, self._emit_cb)

    def _emit(self) -> None:
        sim = self.sim
        now = sim.now
        if self.stop_time is not None and now >= self.stop_time:
            return
        size = self.packet_size
        packet = Packet(self.flow_id, size, self.color, self._seq, now,
                        self.dst_host.node_id)
        self._seq += 1
        self.packets_sent += 1
        self.host.send(packet)
        sim.call_later(size * 8 / self.rate_bps, self._emit_cb)


class PoissonSource:
    """Poisson packet arrivals at a given mean rate (for queue tests)."""

    def __init__(self, sim: Simulator, host: Host, dst_host: Host,
                 flow_id: int, rate_bps: float, packet_size: int = 1000,
                 color: Color = Color.BEST_EFFORT, start_time: float = 0.0,
                 stop_time: Optional[float] = None) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if packet_size <= 0:
            raise ValueError("packet size must be positive")
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.color = color
        self.stop_time = stop_time
        self.packets_sent = 0
        self._seq = 0
        self._emit_cb = self._emit
        sim.call_later(start_time + self._draw_gap(), self._emit_cb)

    def _draw_gap(self) -> float:
        mean_interval = self.packet_size * 8 / self.rate_bps
        return self.sim.rng.expovariate(1.0 / mean_interval)

    def _emit(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            return
        packet = Packet(self.flow_id, self.packet_size, self.color,
                        self._seq, now, self.dst_host.node_id)
        self._seq += 1
        self.packets_sent += 1
        self.host.send(packet)
        self.sim.call_later(self._draw_gap(), self._emit_cb)


class ParetoBurstSource:
    """Long-range-dependent VBR cross traffic: Pareto ON/OFF bursts.

    Alternates ON periods (packets at ``peak_rate_bps``) and OFF
    periods whose durations are Pareto-distributed with shape
    ``1 < a < 2``.  Heavy-tailed (infinite-variance) activity periods
    are the classical construction of long-range-dependent aggregate
    load (Kalyanaraman et al.): occasional very long bursts and lulls
    make *any* single fixed control operating point wrong over time —
    exactly the workload the adaptive meta-control layer exists for,
    and a sharper stressor than the backlogging CBR the paper uses.

    Mean rate is ``peak * mean_burst / (mean_burst + mean_idle)``;
    defaults reproduce the 3 mb/s average of the CBR cross source at a
    6 mb/s peak.  All randomness draws from ``sim.rng``, so runs stay
    a pure function of the scenario seed.
    """

    def __init__(self, sim: Simulator, host: Host, dst_host: Host,
                 flow_id: int, peak_rate_bps: float = 6_000_000.0,
                 mean_burst_s: float = 0.4, mean_idle_s: float = 0.4,
                 shape: float = 1.5, packet_size: int = 1000,
                 color: Color = Color.BEST_EFFORT, start_time: float = 0.0,
                 stop_time: Optional[float] = None) -> None:
        if peak_rate_bps <= 0:
            raise ValueError("peak rate must be positive")
        if packet_size <= 0:
            raise ValueError("packet size must be positive")
        if shape <= 1:
            raise ValueError("Pareto shape must exceed 1 (finite mean)")
        if mean_burst_s <= 0 or mean_idle_s <= 0:
            raise ValueError("burst/idle means must be positive")
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.peak_rate_bps = peak_rate_bps
        self.mean_burst_s = mean_burst_s
        self.mean_idle_s = mean_idle_s
        self.shape = shape
        self.packet_size = packet_size
        self.color = color
        self.stop_time = stop_time
        self.packets_sent = 0
        self.bursts = 0
        self._seq = 0
        self._burst_end = 0.0
        self._emit_cb = self._emit
        self._begin_cb = self._begin_burst
        sim.call_later(start_time, self._begin_cb)

    @property
    def interval(self) -> float:
        """Packet spacing during an ON period."""
        return self.packet_size * 8 / self.peak_rate_bps

    def mean_rate_bps(self) -> float:
        """Long-run average rate implied by the ON/OFF duty cycle."""
        duty = self.mean_burst_s / (self.mean_burst_s + self.mean_idle_s)
        return self.peak_rate_bps * duty

    def _draw_pareto(self, mean: float) -> float:
        # Pareto(a, x_min) has mean x_min * a / (a - 1); inverse-CDF
        # sampling from a uniform draw in (0, 1].
        x_min = mean * (self.shape - 1) / self.shape
        u = 1.0 - self.sim.rng.random()
        return x_min * u ** (-1.0 / self.shape)

    def _begin_burst(self) -> None:
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return
        self.bursts += 1
        self._burst_end = self.sim.now + self._draw_pareto(self.mean_burst_s)
        self._emit()

    def _emit(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            return
        if now >= self._burst_end:
            self.sim.call_later(self._draw_pareto(self.mean_idle_s),
                                self._begin_cb)
            return
        packet = Packet(self.flow_id, self.packet_size, self.color,
                        self._seq, now, self.dst_host.node_id)
        self._seq += 1
        self.packets_sent += 1
        self.host.send(packet)
        self.sim.call_later(self.interval, self._emit_cb)
