"""Point-to-point links with serialization and propagation delay.

A :class:`Link` models the egress side of a node interface: packets are
handed to :meth:`Link.send`, pass through the attached queue discipline,
are serialized at the link rate, and arrive at the destination node
after the propagation delay.  This is the standard ns2 link model
(queue + transmitter + delay line).
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline

__all__ = ["Link"]

#: Hook invoked when a packet starts transmission: (packet, link).
TxHook = Callable[[Packet, "Link"], None]


class Link:
    """Unidirectional link: queue -> transmitter -> propagation.

    Parameters
    ----------
    sim:
        The simulator providing the clock.
    src, dst:
        Endpoint nodes; the delivery event calls ``dst.receive(packet)``
        — a :class:`~repro.sim.node.Host`'s agent dispatch, a
        :class:`~repro.sim.node.Router`'s ``forward`` — bound once, when
        ``dst`` is set.
    rate_bps:
        Link capacity in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Egress queue discipline; defaults to a 64-packet drop-tail FIFO.
    """

    __slots__ = ("sim", "src", "_dst", "rate_bps", "delay", "queue", "name",
                 "busy", "bytes_sent", "packets_sent", "on_transmit",
                 "up", "fault_drops",
                 "_finish_cb", "_call_later", "_consume",
                 "_queue_enqueue", "_queue_transit", "_queue_dequeue")

    def __init__(self, sim: Simulator, src: "object", dst: "object",
                 rate_bps: float, delay: float,
                 queue: Optional[QueueDiscipline] = None, name: str = "") -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.src = src
        self.busy = False
        self.dst = dst
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(name=f"{name}-q")
        self.name = name or f"{getattr(src, 'name', src)}->{getattr(dst, 'name', dst)}"
        self.bytes_sent = 0
        self.packets_sent = 0
        self.on_transmit: Optional[TxHook] = None
        #: Administrative/fault state: a down link drops offered packets
        #: and pauses its transmitter (queued packets wait; packets
        #: already past serialization still propagate — they are on the
        #: wire).  Toggled by the fault-injection layer via set_up().
        self.up = True
        self.fault_drops = 0
        # Transmission events are never cancelled and fire once per
        # packet per hop, so bind the callbacks (and the queue/simulator
        # entry points — neither is ever replaced after construction)
        # once instead of re-resolving attributes on every packet.
        self._finish_cb = self._finish_transmission
        self._call_later = sim.call_later
        self._queue_enqueue = self.queue.enqueue
        self._queue_transit = self.queue.transit
        self._queue_dequeue = self.queue.dequeue

    @property
    def dst(self) -> "object":
        return self._dst

    @dst.setter
    def dst(self, node: "object") -> None:
        # Topology builders may re-point a link after construction (the
        # multi-hop interferer wiring does).  The delivery event carries
        # the consumer bound here, so a packet already serialized still
        # arrives where the wire went when it left: re-point idle links.
        if self.busy:
            raise RuntimeError(f"cannot re-point {self.name} mid-transmission")
        self._dst = node
        self._consume = node.receive

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the egress queue; start the transmitter if idle.

        Returns True if the packet was accepted by the queue.
        """
        if not self.up:
            self.fault_drops += 1
            return False
        if self.busy:
            return self._queue_enqueue(packet)
        # Idle transmitter: admit and serve in one call (see
        # QueueDiscipline.transit) instead of enqueue + dequeue.
        served = self._queue_transit(packet)
        if served is None:
            return False
        self.busy = True
        if self.on_transmit is not None:
            self.on_transmit(served, self)
        self._call_later(served.size * 8 / self.rate_bps,
                         self._finish_cb, served)
        return True

    def set_up(self, up: bool) -> None:
        """Take the link down / bring it back up (fault injection).

        Down: new packets are dropped at the ingress and the
        transmitter pauses after the in-flight packet.  Up: the
        transmitter resumes draining whatever queued before the cut.
        """
        was_up = self.up
        self.up = up
        tracer = self.sim.tracer
        if tracer is not None and up != was_up:
            tracer.link_state(self.name, up)
        if up and not was_up and not self.busy:
            # Resume the paused transmitter on whatever queued before
            # the cut (the steps _finish_transmission ends with).
            packet = self._queue_dequeue()
            if packet is not None:
                self.busy = True
                if self.on_transmit is not None:
                    self.on_transmit(packet, self)
                self._call_later(packet.size * 8 / self.rate_bps,
                                 self._finish_cb, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.bytes_sent += packet.size
        self.packets_sent += 1
        # The hop is counted as the packet leaves: nothing can look at
        # it again before the consumer does, one propagation delay on.
        packet.hops += 1
        call_later = self._call_later
        call_later(self.delay, self._consume, packet)
        # Immediately begin the next packet, if any; a down link pauses
        # with its queue intact.
        if self.up:
            packet = self._queue_dequeue()
            if packet is not None:
                if self.on_transmit is not None:
                    self.on_transmit(packet, self)
                call_later(packet.size * 8 / self.rate_bps,
                           self._finish_cb, packet)
                return
        self.busy = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.name} {self.rate_bps/1e6:.1f}mb/s {self.delay*1e3:.1f}ms>"
