"""Window-based Reno-like TCP source for Internet cross-traffic.

The paper allocates 50% of the bottleneck to a TCP aggregate in the
Internet FIFO queue and observes that, under WRR, the two aggregates do
not interact.  This module provides the load generator for that queue:
a simplified NewReno-style window protocol with slow start, congestion
avoidance, fast retransmit on triple duplicate ACKs, and a coarse
retransmission timeout.  Fidelity targets aggregate load dynamics, not
byte-exact TCP semantics.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Color, Packet

__all__ = ["TcpSource", "TcpSink"]

#: Coarse retransmission timeout (seconds), re-armed on every new ACK.
RTO = 1.0


class TcpSource:
    """Simplified Reno source attached to a :class:`~repro.sim.node.Host`."""

    def __init__(self, sim: Simulator, host: Host, dst_host: Host,
                 flow_id: int, packet_size: int = 1000,
                 initial_cwnd: float = 2.0, ssthresh: float = 64.0,
                 start_time: float = 0.0) -> None:
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.packet_size = packet_size
        self.cwnd = initial_cwnd
        self.ssthresh = ssthresh

        self.next_seq = 0           # next new sequence number to send
        self.high_acked = -1        # highest cumulatively ACKed seq
        self.dup_acks = 0
        self.in_recovery = False
        self.recovery_point = -1
        self.packets_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self._timer = None

        host.attach_agent(self, flow_id)
        sim.schedule(start_time, self._send_window)

    # -- sending ---------------------------------------------------------

    def _inflight(self) -> int:
        return self.next_seq - (self.high_acked + 1)

    def _send_window(self) -> None:
        while self._inflight() < int(self.cwnd):
            self._transmit(self.next_seq)
            self.next_seq += 1
        self._arm_timer()

    def _transmit(self, seq: int) -> None:
        packet = Packet(self.flow_id, self.packet_size, Color.BEST_EFFORT,
                        seq, self.sim.now, self.dst_host.node_id)
        self.host.send(packet)
        self.packets_sent += 1

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.sim.schedule(RTO, self._on_timeout)

    # -- receiving ACKs ---------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle a (cumulative) ACK delivered to our host."""
        if not packet.is_ack:
            return
        ack = packet.seq  # highest in-order seq received by the sink
        if ack > self.high_acked:
            self._on_new_ack(ack)
        else:
            self._on_dup_ack()
        self._send_window()

    def _on_new_ack(self, ack: int) -> None:
        self.high_acked = ack
        self.dup_acks = 0
        if self.in_recovery and ack >= self.recovery_point:
            self.in_recovery = False
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0          # slow start
        else:
            self.cwnd += 1.0 / self.cwnd  # congestion avoidance
        self._arm_timer()

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.dup_acks == 3 and not self.in_recovery:
            # Fast retransmit / recovery.
            self.ssthresh = max(2.0, self.cwnd / 2)
            self.cwnd = self.ssthresh
            self.in_recovery = True
            self.recovery_point = self.next_seq - 1
            self._transmit(self.high_acked + 1)
            self.retransmits += 1

    def _on_timeout(self) -> None:
        if self._inflight() == 0:
            self._send_window()
            return
        self.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_recovery = False
        # Go-back-N: resend from the first unACKed segment.
        self.next_seq = self.high_acked + 1
        self._send_window()


class TcpSink:
    """Receiver returning cumulative ACKs for a :class:`TcpSource`.

    ACKs carry the highest in-order sequence number and reach the
    source ``ack_delay`` later over an uncongested reverse path, as the
    PELS ACKs do.
    """

    def __init__(self, sim: Simulator, host: Host, flow_id: int,
                 source: Optional[TcpSource] = None,
                 ack_delay: float = 0.02) -> None:
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.source = source
        self.ack_delay = ack_delay
        self.next_expected = 0
        self.received = 0
        self.out_of_order: set[int] = set()
        host.attach_agent(self, flow_id)

    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        self.received += 1
        if packet.seq == self.next_expected:
            self.next_expected += 1
            while self.next_expected in self.out_of_order:
                self.out_of_order.remove(self.next_expected)
                self.next_expected += 1
        elif packet.seq > self.next_expected:
            self.out_of_order.add(packet.seq)
        self._ack(packet)

    def _ack(self, data_packet: Packet) -> None:
        ack = data_packet.make_ack(self.sim.now)
        ack.seq = self.next_expected - 1
        if self.source is not None:
            self.sim.schedule(self.ack_delay, self.source.receive, ack)
