"""The PELS wire format: one struct-packed header per UDP datagram.

The paper's Section 5.2 header is three fields riding in every packet:
the color mark and the ``(router ID, z, p(k))`` feedback label.  The
live stack adds the bookkeeping a real receiver needs — flow id,
sequence number, frame position for the FGS decoder, and the sender's
monotonic timestamp for one-way delay measurement (valid on loopback,
where both endpoints share a clock).

Layout (network byte order, 48 bytes)::

    magic     H   0x5E15, rejects stray datagrams
    version   B   format version (currently 1)
    ptype     B   0 = data, 1 = ACK
    flow_id   I
    seq       I
    frame_id  i   -1 when not video
    index     i   position in frame, -1 when not video
    color     B   Color IntEnum value (0..3)
    pad       3x
    router_id I   feedback label; 0 = no label stamped yet
    epoch     I   the label's z
    loss      d   the label's p(k) (Eq. 11; may be 0)
    sent_at   d   sender's clock at transmission

Data packets are zero-padded up to their declared size so capacity
pacing and Eq. 11 byte counting operate on real wire bytes, exactly as
the simulator counts ``packet.size``.  The label sits at a fixed offset
so the router can re-stamp it with ``pack_into`` on a ``bytearray``
without decoding or re-encoding the rest of the datagram.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..sim.packet import Color, FeedbackLabel

__all__ = ["BE_COLOR", "COLOR_OFFSET", "HEADER", "HEADER_SIZE", "LABEL",
           "LABEL_OFFSET", "MAGIC", "VERSION", "LivePacket", "WireFormatError",
           "encode_packet", "decode_packet", "stamp_label", "peek_color",
           "peek_label", "peek_flow_id", "peek_ptype", "peek_is_valid"]

MAGIC = 0x5E15
VERSION = 1

HEADER = struct.Struct("!HBBIIiiB3xIIdd")
HEADER_SIZE = HEADER.size  # 48

#: The (router_id, epoch, loss) slice of the header, for in-place
#: re-stamping on the router forwarding path.
LABEL = struct.Struct("!IId")
LABEL_OFFSET = 24

#: The color byte, for the router's classification and forwarding
#: peeks, and the raw value of best-effort traffic in it.
COLOR_OFFSET = 20
BE_COLOR = int(Color.BEST_EFFORT)

#: The flow-id word alone, for the router's per-datagram route lookup:
#: a 4-byte peek instead of unpacking the full 48-byte header.
_FLOW_ID = struct.Struct("!I")
FLOW_ID_OFFSET = 4

#: (magic, version, ptype) prefix, for cheap validity checks on paths
#: that do not need the rest of the header.
_PREFIX = struct.Struct("!HBB")

PTYPE_DATA = 0
PTYPE_ACK = 1


class WireFormatError(ValueError):
    """Datagram failed validation (truncated, wrong magic, bad field)."""


@dataclass(slots=True)
class LivePacket:
    """Decoded view of one datagram (header fields + declared size).

    ``size`` is the full datagram length in bytes — header plus
    padding — the quantity the router's token bucket and the Eq. 11
    byte counter consume.
    """

    flow_id: int
    seq: int
    color: Color = Color.BEST_EFFORT
    is_ack: bool = False
    frame_id: Optional[int] = None
    index_in_frame: Optional[int] = None
    router_id: int = 0
    epoch: int = 0
    loss: float = 0.0
    sent_at: float = 0.0
    size: int = HEADER_SIZE

    @property
    def label(self) -> Optional[FeedbackLabel]:
        """The stamped feedback label, or ``None`` if no router has
        touched this packet (router ids start at 1)."""
        if self.router_id == 0:
            return None
        return FeedbackLabel(self.router_id, self.epoch, self.loss)

    def with_label(self, label: FeedbackLabel) -> None:
        self.router_id = label.router_id
        self.epoch = label.epoch
        self.loss = label.loss


def encode_packet(packet: LivePacket) -> bytes:
    """Serialize; the payload is zero padding up to ``packet.size``."""
    if packet.size < HEADER_SIZE:
        raise WireFormatError(
            f"declared size {packet.size} below header size {HEADER_SIZE}")
    header = HEADER.pack(
        MAGIC, VERSION, PTYPE_ACK if packet.is_ack else PTYPE_DATA,
        packet.flow_id, packet.seq,
        -1 if packet.frame_id is None else packet.frame_id,
        -1 if packet.index_in_frame is None else packet.index_in_frame,
        int(packet.color), packet.router_id, packet.epoch, packet.loss,
        packet.sent_at)
    return header + b"\x00" * (packet.size - HEADER_SIZE)


def decode_packet(data: bytes) -> LivePacket:
    """Parse and validate one datagram; raises :class:`WireFormatError`."""
    if len(data) < HEADER_SIZE:
        raise WireFormatError(
            f"truncated datagram: {len(data)} < {HEADER_SIZE} bytes")
    (magic, version, ptype, flow_id, seq, frame_id, index, color_value,
     router_id, epoch, loss, sent_at) = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if ptype not in (PTYPE_DATA, PTYPE_ACK):
        raise WireFormatError(f"unknown packet type {ptype}")
    try:
        color = Color(color_value)
    except ValueError:
        raise WireFormatError(f"unknown color {color_value}") from None
    return LivePacket(
        flow_id=flow_id, seq=seq, color=color, is_ack=ptype == PTYPE_ACK,
        frame_id=None if frame_id < 0 else frame_id,
        index_in_frame=None if index < 0 else index,
        router_id=router_id, epoch=epoch, loss=loss, sent_at=sent_at,
        size=len(data))


def peek_color(data: bytes) -> int:
    """The raw color byte, without a full decode (router fast path)."""
    return data[COLOR_OFFSET]


def peek_flow_id(data: bytes) -> int:
    """The flow id, without a full decode (router route lookup)."""
    return _FLOW_ID.unpack_from(data, FLOW_ID_OFFSET)[0]


def peek_ptype(data: bytes) -> int:
    """The raw packet-type byte (0 = data, 1 = ACK)."""
    return data[3]


def peek_is_valid(data: bytes) -> bool:
    """Magic/version/length check without decoding the whole header.

    The per-datagram gate of the shard ingest path: three comparisons
    against the cached prefix ``Struct`` instead of the twelve-field
    unpack (plus exception machinery) of :func:`decode_packet`.
    """
    if len(data) < HEADER_SIZE:
        return False
    magic, version, ptype = _PREFIX.unpack_from(data)
    return magic == MAGIC and version == VERSION \
        and ptype in (PTYPE_DATA, PTYPE_ACK)


def peek_label(data: bytes) -> tuple:
    """The (router_id, epoch, loss) tuple currently in the header."""
    return LABEL.unpack_from(data, LABEL_OFFSET)


def stamp_label(data: bytearray, label: FeedbackLabel) -> None:
    """Apply the max-loss override rule in place (Section 5.2).

    A router overrides an existing label only if its own measured loss
    is strictly larger (or no router stamped the packet yet), so the
    source hears from the most congested resource on the path — the
    same rule as :meth:`repro.sim.packet.Packet.stamp_feedback`.
    """
    router_id, _, loss = LABEL.unpack_from(data, LABEL_OFFSET)
    if router_id == 0 or label.loss > loss:
        LABEL.pack_into(data, LABEL_OFFSET, label.router_id, label.epoch,
                        label.loss)
