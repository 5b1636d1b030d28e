"""The PELS bottleneck queue structure (Fig. 4 left).

A router output port carries two aggregates under weighted round-robin:

* the **PELS queue**, itself a strict-priority set of green, yellow and
  red drop-tail queues;
* the **Internet queue**, a plain FIFO for all best-effort traffic.

:class:`PelsQueueCore` is that port, once: clock-free and item-agnostic,
driven by the simulator through :class:`PelsBottleneckQueue` and by the
live router (:mod:`repro.live.router`) with raw datagrams.

:class:`PelsBottleneckQueue` is a
:class:`~repro.sim.queues.QueueDiscipline`, so it plugs directly into a
:class:`~repro.sim.link.Link`.  Physical per-color loss (Figs. 7, 8, 9)
is sampled off the core's own counters by :class:`ColorLossSampler`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from math import ceil
from typing import List, Optional

from ..cc.base import Tunable, TunableParam
from ..sim.packet import Color, Packet
from ..sim.queues import QueueDiscipline, QueueStats
from ..sim.stats import TimeSeries

__all__ = ["PelsQueueConfig", "PelsQueueCore", "ColorLossSampler",
           "PelsBottleneckQueue", "PELS_SHARE_SAFE_RANGE"]


#: Safe online-tuning envelope for the PELS WRR share: neither
#: aggregate is ever starved below 10% of the port.
PELS_SHARE_SAFE_RANGE = (0.1, 0.9)


class PelsQueueConfig(Tunable):
    """Buffer sizing and WRR weighting for the PELS bottleneck port.

    Defaults follow the simulation setup of Section 6: PELS and
    Internet each receive 50% of the bottleneck.  Buffer sizes are in
    packets.  The yellow buffer is large so that transient bursts back
    up *behind* the strict-priority schedule (starving red) instead of
    dropping protected packets.  The red buffer is deliberately tiny:
    red packets are *designed* to die there (Section 6.3), and since
    the red queue runs pinned at capacity once gamma converges, the
    survivors' queueing delay is ``buffer / residual_service`` — a few
    packets keeps that in the hundreds-of-milliseconds range the paper
    reports while the green/yellow queues stay in the milliseconds.
    """

    def __init__(self, pels_weight: float = 0.5, internet_weight: float = 0.5,
                 green_buffer: int = 50, yellow_buffer: int = 300,
                 red_buffer: int = 6, internet_buffer: int = 64,
                 quantum_bytes: int = 1000) -> None:
        if pels_weight <= 0 or internet_weight <= 0:
            raise ValueError("WRR weights must be positive")
        for label, size in (("green", green_buffer), ("yellow", yellow_buffer),
                            ("red", red_buffer), ("internet", internet_buffer)):
            if size < 1:
                raise ValueError(f"{label} buffer must hold at least one packet")
        self.pels_weight = pels_weight
        self.internet_weight = internet_weight
        self.green_buffer = green_buffer
        self.yellow_buffer = yellow_buffer
        self.red_buffer = red_buffer
        self.internet_buffer = internet_buffer
        self.quantum_bytes = quantum_bytes

    def pels_share(self) -> float:
        """Fraction of the link WRR grants to the PELS aggregate."""
        return self.pels_weight / (self.pels_weight + self.internet_weight)

    def tunable_params(self):
        return {
            "pels_share": TunableParam(
                "pels_share", *PELS_SHARE_SAFE_RANGE,
                description="WRR fraction granted to the PELS aggregate"),
        }

    def _apply_param(self, name: str, value: float) -> None:
        # The share is one degree of freedom over two coupled weights;
        # normalizing to a unit sum keeps pels_share() == value exactly.
        if name == "pels_share":
            self.pels_weight = value
            self.internet_weight = 1.0 - value
        else:  # pragma: no cover - no other tunables declared
            super()._apply_param(name, value)


class ColorFifo:
    """One bounded FIFO of the port: items, their sizes, counters."""

    __slots__ = ("name", "limit", "items", "sizes", "stats")

    def __init__(self, name: str, limit: int) -> None:
        self.name = name
        self.limit = limit
        self.items: deque = deque()
        self.sizes: deque = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def byte_count(self) -> int:
        return sum(self.sizes)


class ColorLossSampler:
    """Windowed physical loss of the three PELS colors (Fig. 7 right).

    Reads the FIFOs' own arrival/drop counters: each :meth:`sample`
    closes a window by differencing them against the previous call, so
    the per-packet path pays nothing for it.  Clock-free — the
    simulator samples on a periodic event, the live router at its epoch
    step.  A shed arrival counts as offered, not as dropped (shedding is
    accounted apart, see :meth:`PelsQueueCore.set_shed_level`).
    """

    __slots__ = ("_stats", "_seen", "series", "_arrivals")

    def __init__(self, fifos: List[ColorFifo]) -> None:
        self._stats = [fifo.stats for fifo in fifos]
        self._seen = [(0, 0)] * len(fifos)
        #: Per color: drops/arrivals of every window that saw arrivals.
        self.series = [TimeSeries(f"{color.name.lower()}-loss")
                       for color in (Color.GREEN, Color.YELLOW, Color.RED)]
        #: The arrivals behind each sample: the weights :meth:`loss_in`
        #: needs to pool windows of unequal traffic.
        self._arrivals: List[List[int]] = [[] for _ in fifos]

    def sample(self, now: float) -> None:
        """Close the current window of every color (idle ones record
        nothing)."""
        for color, stats in enumerate(self._stats):
            seen_arrivals, seen_drops = self._seen[color]
            arrivals = stats.arrivals - seen_arrivals
            if arrivals:
                self._seen[color] = (stats.arrivals, stats.drops)
                self.series[color].record(
                    now, (stats.drops - seen_drops) / arrivals)
                self._arrivals[color].append(arrivals)

    def loss_in(self, color: int, t_start: float,
                t_end: float) -> Optional[float]:
        """Drops / arrivals over the windows closed in ``(t_start,
        t_end]`` (one closing *at* ``t_start`` measured the time before
        it); ``None`` when they saw no arrival."""
        series = self.series[color]
        lo = bisect_right(series.times, t_start)
        hi = bisect_right(series.times, t_end)
        weights = self._arrivals[color][lo:hi]
        if not weights:
            return None
        return sum(loss * n for loss, n in
                   zip(series.values[lo:hi], weights)) / sum(weights)


#: Turns one service decision walks before it skips ahead: 64 rounds,
#: as many as ``WeightedRoundRobinScheduler`` tries before giving up.
_SPIN = range(128)


class PelsQueueCore:
    """Fig. 4's output port, once: WRR{ strict-priority{green, yellow,
    red}, Internet FIFO } over four bounded FIFOs.

    Clock-free and item-agnostic: an arrival is ``(raw color index,
    item, size in bytes)``, so the simulator queues ``Packet`` objects
    and the live router queues datagrams through the same policy.  The
    two aggregates share the port by deficit round-robin (Shreedhar &
    Varghese): at its turn an aggregate earns ``quantum * weight`` once
    and sends head items while the deficit covers them; an idle
    aggregate forfeits its deficit.
    """

    __slots__ = ("fifos", "quantum_bytes", "_quanta", "deficits", "turn",
                 "_fresh", "_next", "shed_level", "sheds", "shed_packets",
                 "shed_bytes", "losses")

    def __init__(self, config: PelsQueueConfig) -> None:
        self.fifos = [ColorFifo("green-q", config.green_buffer),
                      ColorFifo("yellow-q", config.yellow_buffer),
                      ColorFifo("red-q", config.red_buffer),
                      ColorFifo("internet-q", config.internet_buffer)]
        self.quantum_bytes = config.quantum_bytes
        self.set_weights(config.pels_weight, config.internet_weight)
        #: Byte deficit and whose turn it is: 0 = PELS, 1 = Internet.
        self.deficits = [0.0, 0.0]
        self.turn = 0
        self._fresh = True  # whether the current turn still owes a quantum
        #: The pending service decision, once :meth:`peek` has made it.
        self._next = None
        self.shed_level = 0
        self.sheds = [False, False, False, False]
        self.shed_packets = [0, 0, 0, 0]
        self.shed_bytes = [0, 0, 0, 0]
        self.losses = ColorLossSampler(self.fifos[:3])

    def set_weights(self, pels_weight: float, internet_weight: float) -> None:
        """Renegotiate the WRR split; deficits and the turn carry over."""
        total = pels_weight + internet_weight
        self._quanta = (self.quantum_bytes * (pels_weight / total),
                        self.quantum_bytes * (internet_weight / total))
        if not min(self._quanta) > 0:
            raise ValueError("each aggregate must earn a positive quantum")
        self._next = None

    def set_shed_level(self, level: int) -> None:
        """Layered shedding at ingest: 0 = off, 1 = red, 2 = red +
        yellow.  Green base-layer items and the Internet FIFO are never
        shed — the enhancement bands are the cheap thing to lose."""
        if not 0 <= level <= 2:
            raise ValueError("shed level must be 0, 1 or 2")
        self.shed_level = level
        self.sheds[2] = level >= 1
        self.sheds[1] = level >= 2

    def enqueue(self, color: int, item, size: int) -> bool:
        """Admit one arrival; False when it was shed or overflowed."""
        fifo = self.fifos[color]
        stats = fifo.stats
        stats.arrivals += 1
        stats.arrival_bytes += size
        if self.sheds[color]:
            self.shed_packets[color] += 1
            self.shed_bytes[color] += size
            return False
        items = fifo.items
        if len(items) >= fifo.limit:
            stats.drops += 1
            stats.drop_bytes += size
            return False
        items.append(item)
        fifo.sizes.append(size)
        self._next = None
        return True

    def _select(self):
        """``(fifo, turn, deficits)`` of the next service, or ``None``
        on an empty port.  Commits nothing: an arrival between a
        :meth:`peek` and the :meth:`dequeue` is weighed afresh."""
        green, yellow, red, internet = self.fifos
        heads = (green if green.items else yellow if yellow.items
                 else red if red.items else None,
                 internet if internet.items else None)
        if heads[0] is None and heads[1] is None:
            return None
        turn, fresh = self.turn, self._fresh
        deficits = self.deficits[:]
        quanta = self._quanta
        while True:
            for _ in _SPIN:
                fifo = heads[turn]
                if fifo is None:
                    deficits[turn] = 0.0
                else:
                    if fresh:
                        deficits[turn] += quanta[turn]
                    if deficits[turn] >= fifo.sizes[0]:
                        return fifo, turn, deficits
                turn = 1 - turn
                fresh = True
            # A quantum this small against the heads: credit at once the
            # whole rounds in which still neither aggregate can send.
            backlogged = [a for a in (0, 1) if heads[a] is not None]
            skip = min(ceil((heads[a].sizes[0] - deficits[a]) / quanta[a])
                       for a in backlogged) - 1
            for a in backlogged:
                deficits[a] += skip * quanta[a]

    def peek(self):
        """The very item :meth:`dequeue` returns next."""
        selection = self._next
        if selection is None:
            selection = self._next = self._select()
        return selection[0].items[0] if selection is not None else None

    def dequeue(self):
        """Serve one item; ``None`` only when all four FIFOs are empty."""
        selection = self._next or self._select()
        if selection is None:
            return None
        self._next = None
        fifo, turn, deficits = selection
        size = fifo.sizes.popleft()
        deficits[turn] -= size
        self.turn, self.deficits, self._fresh = turn, deficits, False
        stats = fifo.stats
        stats.departures += 1
        stats.departure_bytes += size
        return fifo.items.popleft()

    def __len__(self) -> int:
        return sum(len(fifo.items) for fifo in self.fifos)


class PelsBottleneckQueue(QueueDiscipline):
    """The simulator's driver of :class:`PelsQueueCore`: items are
    ``Packet`` objects; adds the port-level :class:`QueueStats` and the
    tracer events."""

    def __init__(self, config: Optional[PelsQueueConfig] = None,
                 name: str = "pels-bottleneck") -> None:
        super().__init__(name)
        self.config = config or PelsQueueConfig()
        self.core = PelsQueueCore(self.config)
        self.green_queue, self.yellow_queue, self.red_queue, \
            self.internet_queue = self.core.fifos

    # -- QueueDiscipline interface ---------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        stats = self.stats
        color = packet.color
        size = packet.size
        stats.arrivals += 1
        stats.arrival_bytes += size
        accepted = self.core.enqueue(color, packet, size)
        if not accepted:
            stats.drops += 1
            stats.drop_bytes += size
            if self._trace is not None:
                self._trace.drop(self.core.fifos[color].name, "full-packets",
                                 int(color), packet.flow_id)
        if self._trace is not None:
            self._trace.enqueue(self.name, int(color), packet.flow_id,
                                accepted)
        return accepted

    def dequeue(self) -> Optional[Packet]:
        core = self.core
        packet = core.dequeue()
        if packet is not None:
            stats = self.stats
            stats.departures += 1
            stats.departure_bytes += packet.size
            if self._trace is not None:
                color = int(packet.color)
                self._trace.wrr(core.turn, color, core.deficits[core.turn])
                self._trace.dequeue(self.name, color, packet.flow_id)
        return packet

    def peek(self) -> Optional[Packet]:
        return self.core.peek()

    def __len__(self) -> int:
        return len(self.core)

    @property
    def byte_count(self) -> int:
        return sum(fifo.byte_count for fifo in self.core.fifos)

    # -- measurement helpers ---------------------------------------------

    def queue_for(self, color: Color) -> ColorFifo:
        """The FIFO serving a given color."""
        return self.core.fifos[color]
