"""The PELS receiver: the simulator's driver of a flow receiver.

Per-frame reception (for the offline PSNR reconstruction of Section
6.5) and one-way packet delays per color (Figs. 8-9) are
:class:`~repro.core.flow.FlowReceiver`'s.  The sink adds what is the
simulator's: it echoes each packet's feedback label back to the source
in an ACK after the backward propagation delay — the
uncongested-reverse-path model described in DESIGN.md §5.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet
from .flow import FlowReceiver
from .source import PelsSource

__all__ = ["PelsSink"]


class PelsSink(FlowReceiver):
    """Receiver for one PELS flow."""

    def __init__(self, sim: Simulator, host: Host, flow_id: int,
                 source: Optional[PelsSource] = None,
                 ack_delay: float = 0.020,
                 ack_loss_rate: float = 0.0,
                 green_packets: Optional[int] = None,
                 record_arrivals: bool = False,
                 delay_series_stride: int = 1) -> None:
        if not 0 <= ack_loss_rate < 1:
            raise ValueError("ack loss rate must be in [0, 1)")
        if green_packets is None:
            green_packets = 21 if source is None \
                else source.fgs_config.green_packets
        super().__init__(flow_id, green_packets, delay_series_stride)
        self.sim = sim
        self.host = host
        self.source = source
        self.ack_delay = ack_delay
        #: Random ACK drop probability (reverse-path impairment).  The
        #: epoch-freshness scheme of Section 5.2 makes the control loop
        #: insensitive to individual ACK losses: any surviving ACK of
        #: the same epoch delivers the identical label.
        self.ack_loss_rate = ack_loss_rate
        self.acks_dropped = 0
        #: When enabled, every data packet appends
        #: (frame_id, arrival_time, color) — used by the playback-
        #: deadline analysis (repro.video.playback).
        self.record_arrivals = record_arrivals
        self.arrivals: List[tuple] = []
        self._source_receive = None if source is None else source.receive
        host.attach_agent(self, flow_id)

    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        sim = self.sim
        now = sim.now
        if self.record_arrivals and packet.frame_id is not None:
            self.arrivals.append((packet.frame_id, now, packet.color))
        self.account(packet, now, packet.created_at)
        if self.ack_loss_rate > 0 and sim.rng.random() < self.ack_loss_rate:
            self.acks_dropped += 1
            return
        if self._source_receive is not None:
            sim.call_later(self.ack_delay, self._source_receive,
                           packet.make_ack(now))
