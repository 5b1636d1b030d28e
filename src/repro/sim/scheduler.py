"""Composite schedulers: strict priority and weighted round-robin.

Both compose child :class:`~repro.sim.queues.QueueDiscipline` objects and
are themselves queue disciplines, so a link can serve, e.g., a WRR of
{PELS priority set, Internet FIFO} exactly as in Fig. 4 of the paper.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .packet import Packet
from .queues import QueueDiscipline

__all__ = ["StrictPriorityScheduler", "WeightedRoundRobinScheduler"]

Classifier = Callable[[Packet], int]


class _CompositeScheduler(QueueDiscipline):
    """What both schedulers share: arrivals are classified into a child
    queue; the service order is the subclass's ``dequeue``."""

    __slots__ = ("children", "classifier")

    def __init__(self, children: Sequence[QueueDiscipline],
                 classifier: Classifier, name: str = "") -> None:
        super().__init__(name)
        if not children:
            raise ValueError("need at least one child queue")
        self.children = list(children)
        self.classifier = classifier

    def enqueue(self, packet: Packet) -> bool:
        stats = self.stats
        stats.arrivals += 1
        stats.arrival_bytes += packet.size
        index = self.classifier(packet)
        if not 0 <= index < len(self.children):
            raise ValueError(f"classifier returned invalid child index {index}")
        accepted = self.children[index].enqueue(packet)
        if not accepted:
            # The child already counted the drop; mirror it at this level
            # so aggregate loss statistics are available in one place.
            stats.drops += 1
            stats.drop_bytes += packet.size
        return accepted

    def peek(self) -> Optional[Packet]:
        for child in self.children:
            packet = child.peek()
            if packet is not None:
                return packet
        return None

    def __len__(self) -> int:
        return sum(len(child) for child in self.children)

    @property
    def byte_count(self) -> int:
        return sum(child.byte_count for child in self.children)


class StrictPriorityScheduler(_CompositeScheduler):
    """Serve child 0 exhaustively before child 1, and so on.

    The paper requires strict priority inside the PELS queue so that no
    red (upper enhancement) packet is transmitted while any green or
    yellow packet is waiting (Section 4.1).
    """

    __slots__ = ()

    def dequeue(self) -> Optional[Packet]:
        for child in self.children:
            packet = child.dequeue()
            if packet is not None:
                stats = self.stats
                stats.departures += 1
                stats.departure_bytes += packet.size
                return packet
        return None


class WeightedRoundRobinScheduler(_CompositeScheduler):
    """Byte-weighted round-robin (deficit round-robin) over child queues.

    Each backlogged child ``i`` receives a long-run share of the link
    proportional to ``weights[i]``.  The deficit-counter formulation
    (Shreedhar & Varghese, DRR) handles variable packet sizes: at its
    turn a child's deficit is replenished by ``quantum * weight`` and it
    transmits head packets while the deficit covers them.
    """

    __slots__ = ("weights", "quantum_bytes", "_deficits", "_turn",
                 "_turn_fresh")

    def __init__(self, children: Sequence[QueueDiscipline],
                 weights: Sequence[float], classifier: Classifier,
                 quantum_bytes: int = 1500, name: str = "") -> None:
        super().__init__(children, classifier, name)
        if len(children) != len(weights):
            raise ValueError("children and weights must align")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        total = float(sum(weights))
        self.weights = [w / total for w in weights]
        self.quantum_bytes = quantum_bytes
        self._deficits = [0.0] * len(children)
        self._turn = 0
        self._turn_fresh = True  # whether the current turn still owes a quantum

    def _advance_turn(self) -> None:
        self._turn = (self._turn + 1) % len(self.children)
        self._turn_fresh = True

    def dequeue(self) -> Optional[Packet]:
        if len(self) == 0:
            return None
        children = self.children
        deficits = self._deficits
        n = len(children)
        # At most one full cycle of deficit replenishment is needed per
        # packet because some child is backlogged and each fresh turn
        # adds a quantum that eventually covers the head packet.
        for _ in range(n * 64):
            turn = self._turn
            child = children[turn]
            head = child.peek()
            if head is None:
                # Idle children forfeit their deficit (DRR rule).
                deficits[turn] = 0.0
                self._advance_turn()
                continue
            if self._turn_fresh:
                deficits[turn] += self.quantum_bytes * self.weights[turn]
                self._turn_fresh = False
            if deficits[turn] >= head.size:
                packet = child.dequeue()
                deficits[turn] -= packet.size
                stats = self.stats
                stats.departures += 1
                stats.departure_bytes += packet.size
                if self._trace is not None:
                    self._trace.wrr(turn, int(packet.color), deficits[turn])
                return packet
            self._advance_turn()
        raise RuntimeError("WRR failed to make progress; quantum too small?")
