"""The live PELS receiver: delay probes, frame accounting, label echo.

For every data packet the client feeds the flow's
:class:`~repro.core.flow.FlowReceiver` — the object the simulator's
``PelsSink`` drives: one-way delay per color (the sender's monotonic
timestamp is directly comparable on loopback, where both endpoints
share a clock — see :mod:`repro.core.clock`) and per-frame reception
for the offline PSNR reconstruction of Section 6.5 — and echoes the
packet's feedback label straight back to the server in an ACK.  The ACK path
deliberately bypasses the router — the uncongested-reverse-path model
of DESIGN.md §5 — and per-packet echo plus the server-side epoch
freshness filter reproduce the simulator's feedback loop exactly: any
surviving ACK of an epoch delivers the identical label.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.clock import Clock
from ..core.flow import FlowReceiver
from ..sim.packet import Color, FeedbackLabel
from .wire import LivePacket, WireFormatError, decode_packet, encode_packet

__all__ = ["LiveClient"]


class LiveClient:
    """Receiving endpoint for every flow of a live session: a datagram
    protocol by shape, as :class:`~repro.live.server.LiveServer` is."""

    def __init__(self, clock: Clock, green_packets: int = 21,
                 delay_series_stride: int = 1) -> None:
        self.clock = clock
        self.green_packets = green_packets
        self.delay_series_stride = delay_series_stride
        self.flows: Dict[int, FlowReceiver] = {}
        #: flow_id -> the freshest label seen, by (router switch |
        #: larger epoch) — exposed for tests; the echo is per packet.
        self.last_label: Dict[int, FeedbackLabel] = {}
        #: Where ACKs go (the server's endpoint, set by the session).
        self.server_addr: Optional[Tuple[str, int]] = None
        self.transport = None
        self.cross_packets_received = 0
        self.malformed = 0

    def connection_made(self, transport) -> None:
        self.transport = transport

    def error_received(self, exc) -> None:
        pass

    def flow(self, flow_id: int) -> FlowReceiver:
        receiver = self.flows.get(flow_id)
        if receiver is None:
            receiver = self.flows[flow_id] = FlowReceiver(
                flow_id, self.green_packets, self.delay_series_stride)
        return receiver

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            packet = decode_packet(data)
        except WireFormatError:
            self.malformed += 1
            return
        if packet.is_ack:
            return
        if packet.color is Color.BEST_EFFORT:
            self.cross_packets_received += 1
            return
        now = self.clock.now
        self.flow(packet.flow_id).account(packet, now, packet.sent_at)
        label = packet.label
        if label is not None:
            previous = self.last_label.get(packet.flow_id)
            if previous is None or label.router_id != previous.router_id \
                    or label.epoch > previous.epoch:
                self.last_label[packet.flow_id] = label
        self._ack(packet, now)

    def _ack(self, packet: LivePacket, now: float) -> None:
        """Echo the packet's label to the server, router bypassed."""
        if self.transport is None or self.server_addr is None:
            return
        ack = LivePacket(flow_id=packet.flow_id, seq=packet.seq,
                         color=packet.color, is_ack=True,
                         router_id=packet.router_id, epoch=packet.epoch,
                         loss=packet.loss, sent_at=now)
        self.transport.sendto(encode_packet(ack), self.server_addr)
