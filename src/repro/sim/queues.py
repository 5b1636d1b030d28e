"""Queue disciplines: drop-tail FIFO and RED.

These are the best-effort building blocks of the simulator.  The PELS
tri-color priority queue lives in :mod:`repro.core.pels_queue` because it
is part of the paper's contribution; everything here is generic
substrate also used for the Internet queue and baseline experiments.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..obs.trace import current_tracer
from .packet import Packet

__all__ = ["QueueDiscipline", "DropTailQueue", "REDQueue", "QueueStats"]

DropCallback = Callable[[Packet, str], None]


class QueueStats:
    """Arrival/drop/departure counters kept by every queue."""

    __slots__ = ("arrivals", "arrival_bytes", "drops", "drop_bytes",
                 "departures", "departure_bytes")

    def __init__(self) -> None:
        self.arrivals = 0
        self.arrival_bytes = 0
        self.drops = 0
        self.drop_bytes = 0
        self.departures = 0
        self.departure_bytes = 0

    @property
    def loss_rate(self) -> float:
        """Fraction of arrived packets that were dropped."""
        if self.arrivals == 0:
            return 0.0
        return self.drops / self.arrivals

    def record_arrival(self, packet: Packet) -> None:
        self.arrivals += 1
        self.arrival_bytes += packet.size

    def record_drop(self, packet: Packet) -> None:
        self.drops += 1
        self.drop_bytes += packet.size

    def record_departure(self, packet: Packet) -> None:
        self.departures += 1
        self.departure_bytes += packet.size


class QueueDiscipline:
    """Interface all queue disciplines implement.

    ``enqueue`` returns True when the packet was accepted; rejected
    packets are counted as drops and reported to ``on_drop`` with a
    reason string.
    """

    __slots__ = ("name", "stats", "on_drop", "arrival_log", "_trace")

    def __init__(self, name: str = "") -> None:
        self.name = name or self.__class__.__name__
        self.stats = QueueStats()
        self.on_drop: Optional[DropCallback] = None
        #: When set to a list, every arrival appends True (dropped) or
        #: False (accepted) — the per-arrival drop indicator used by the
        #: loss-burst analysis (repro.analysis.bursts).
        self.arrival_log: Optional[list] = None
        # Active tracer captured at construction; None (the default)
        # keeps every emit site a single identity check.
        self._trace = current_tracer()

    def enqueue(self, packet: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        raise NotImplementedError

    def peek(self) -> Optional[Packet]:
        """Return the packet ``dequeue`` would return, without removing it."""
        raise NotImplementedError

    def transit(self, packet: Packet) -> Optional[Packet]:
        """Admit ``packet``, then immediately serve the discipline's head.

        An idle transmitter calls this instead of enqueue-then-dequeue;
        the two are equivalent by construction (the served packet is
        whatever ``dequeue`` picks after the arrival).  Disciplines with
        trivial structure override it to skip the two-call round trip on
        the uncontended path.  Returns the packet to transmit, or
        ``None`` if the arrival was dropped and nothing is queued.
        """
        if self.enqueue(packet):
            return self.dequeue()
        return None

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def byte_count(self) -> int:
        raise NotImplementedError

    def _drop(self, packet: Packet, reason: str) -> None:
        self.stats.record_drop(packet)
        if self.on_drop is not None:
            self.on_drop(packet, reason)
        if self._trace is not None:
            self._trace.drop(self.name, reason, int(packet.color),
                             packet.flow_id)


class DropTailQueue(QueueDiscipline):
    """Bounded FIFO that drops arrivals when full.

    The limit can be expressed in packets, bytes, or both; a packet is
    dropped if accepting it would exceed either bound.
    """

    __slots__ = ("capacity_packets", "capacity_bytes", "_queue", "_bytes")

    def __init__(self, capacity_packets: Optional[int] = 64,
                 capacity_bytes: Optional[int] = None, name: str = "") -> None:
        super().__init__(name)
        if capacity_packets is None and capacity_bytes is None:
            raise ValueError("queue needs at least one capacity bound")
        for bound in (capacity_packets, capacity_bytes):
            if bound is not None and bound < 1:
                raise ValueError("a capacity bound must be at least 1")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0

    def enqueue(self, packet: Packet) -> bool:
        size = packet.size
        stats = self.stats
        stats.arrivals += 1
        stats.arrival_bytes += size
        accepted = True
        if self.capacity_packets is not None \
                and len(self._queue) >= self.capacity_packets:
            self._drop(packet, "full-packets")
            accepted = False
        elif (self.capacity_bytes is not None
                and self._bytes + size > self.capacity_bytes):
            self._drop(packet, "full-bytes")
            accepted = False
        else:
            self._queue.append(packet)
            self._bytes += size
        if self.arrival_log is not None:
            self.arrival_log.append(not accepted)
        return accepted

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        size = packet.size
        self._bytes -= size
        stats = self.stats
        stats.departures += 1
        stats.departure_bytes += size
        return packet

    def peek(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def transit(self, packet: Packet) -> Optional[Packet]:
        # Uncontended fast path: an empty FIFO admits the packet (one
        # packet never exceeds capacity_packets, validated >= 1) and
        # serves it straight back, so only the counters need updating.  A
        # non-empty queue falls back to the generic path, which serves
        # the proper head.
        if self._queue:
            if self.enqueue(packet):
                return self.dequeue()
            return None
        size = packet.size
        stats = self.stats
        stats.arrivals += 1
        stats.arrival_bytes += size
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            self._drop(packet, "full-bytes")
            if self.arrival_log is not None:
                self.arrival_log.append(True)
            return None
        stats.departures += 1
        stats.departure_bytes += size
        if self.arrival_log is not None:
            self.arrival_log.append(False)
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_count(self) -> int:
        return self._bytes


class REDQueue(QueueDiscipline):
    """Random Early Detection (Floyd & Jacobson 1993).

    Included as the representative best-effort AQM substrate the paper
    contrasts against: it drops *uniformly at random* with a probability
    that grows with the EWMA of the queue length, which is precisely the
    independent-loss regime analysed in Section 3.1.
    """

    __slots__ = ("capacity_packets", "min_thresh", "max_thresh", "max_p",
                 "weight", "rng", "_queue", "_bytes", "avg",
                 "_count_since_drop")

    def __init__(self, capacity_packets: int = 64, min_thresh: float = 5,
                 max_thresh: float = 15, max_p: float = 0.1,
                 weight: float = 0.002, rng=None, name: str = "") -> None:
        super().__init__(name)
        if not 0 < max_p <= 1:
            raise ValueError("max_p must be in (0, 1]")
        if min_thresh >= max_thresh:
            raise ValueError("min_thresh must be below max_thresh")
        self.capacity_packets = capacity_packets
        self.min_thresh = min_thresh
        self.max_thresh = max_thresh
        self.max_p = max_p
        self.weight = weight
        self.rng = rng
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        self.avg = 0.0
        self._count_since_drop = -1

    def _random(self) -> float:
        if self.rng is None:
            raise RuntimeError("REDQueue requires an rng (pass sim.rng)")
        return self.rng.random()

    def _update_avg(self) -> None:
        self.avg = (1 - self.weight) * self.avg + self.weight * len(self._queue)

    def _early_drop(self) -> bool:
        """Decide whether to drop the arriving packet early."""
        if self.avg < self.min_thresh:
            self._count_since_drop = -1
            return False
        if self.avg >= self.max_thresh:
            self._count_since_drop = 0
            return True
        base_p = self.max_p * (self.avg - self.min_thresh) / (
            self.max_thresh - self.min_thresh)
        self._count_since_drop += 1
        denom = 1 - self._count_since_drop * base_p
        prob = base_p / denom if denom > 0 else 1.0
        if self._random() < prob:
            self._count_since_drop = 0
            return True
        return False

    def enqueue(self, packet: Packet) -> bool:
        self.stats.record_arrival(packet)
        self._update_avg()
        accepted = True
        if len(self._queue) >= self.capacity_packets:
            self._drop(packet, "full-packets")
            accepted = False
        elif self._early_drop():
            self._drop(packet, "red-early")
            accepted = False
        else:
            self._queue.append(packet)
            self._bytes += packet.size
        if self.arrival_log is not None:
            self.arrival_log.append(not accepted)
        return accepted

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        self.stats.record_departure(packet)
        return packet

    def peek(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def byte_count(self) -> int:
        return self._bytes
