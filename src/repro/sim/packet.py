"""Packet model for the simulator.

Packets carry both generic network fields and the PELS-specific header
fields described in the paper (Section 5.2): the color mark and the
``(router_id, epoch, loss)`` feedback label stamped by congested routers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

__all__ = ["Color", "FeedbackLabel", "Packet", "ACK_SIZE"]

#: Size in bytes used for acknowledgment packets.
ACK_SIZE = 40


class Color(enum.IntEnum):
    """PELS priority classes, ordered from highest to lowest priority.

    ``GREEN`` carries the base layer, ``YELLOW`` the lower (protected)
    part of the FGS enhancement layer, and ``RED`` the upper probing
    part.  ``BEST_EFFORT`` marks non-PELS Internet traffic served by the
    separate FIFO queue.
    """

    GREEN = 0
    YELLOW = 1
    RED = 2
    BEST_EFFORT = 3

    @property
    def is_pels(self) -> bool:
        """True for the three PELS classes (green/yellow/red)."""
        return self is not Color.BEST_EFFORT


_GREEN = Color.GREEN


class FeedbackLabel(NamedTuple):
    """The ``(router ID, z, p(k))`` label from the paper (Section 5.2).

    Routers along the path override the label only when their own loss
    estimate exceeds the one already recorded, so end flows react to the
    most congested resource (max-min feedback).

    Immutable, so one label object is *shared*: by every packet a router
    stamps in an epoch, by each ACK that echoes it and by the source
    that reads it.  Nothing on the per-packet path copies one.
    """

    router_id: int
    epoch: int
    loss: float


@dataclass(slots=True)
class Packet:
    """A network packet.

    Fields are ordered so the per-packet constructions (a source's data
    packet, a cross-traffic packet) are short positional calls; any
    field may also be given by keyword.

    Attributes
    ----------
    flow_id:
        Identifier of the sending flow.
    size:
        Size in bytes (headers included; the paper uses 500-byte video
        packets).
    color:
        PELS priority class or best-effort.
    seq:
        Flow-level sequence number.
    created_at:
        Simulation time the source emitted the packet.
    dst / src:
        Node ids of the destination and (stamped by ``Host.send``) the
        origin host.
    frame_id / index_in_frame:
        Position of this packet inside its video frame; used by the
        receiver-side decoder to count consecutively received packets.
        ``None`` for non-video traffic.
    feedback:
        Label stamped by congested routers (Section 5.2).
    is_ack:
        ACKs echo the most recent feedback label back to the source.
    hops:
        Links this packet has been transmitted over.
    """

    flow_id: int
    size: int
    color: Color = Color.BEST_EFFORT
    seq: int = 0
    created_at: float = 0.0
    dst: Optional[int] = None
    frame_id: Optional[int] = None
    index_in_frame: Optional[int] = None
    src: Optional[int] = None
    feedback: Optional[FeedbackLabel] = None
    is_ack: bool = False
    hops: int = 0

    @property
    def size_bits(self) -> int:
        """Packet size in bits."""
        return self.size * 8

    def stamp_feedback(self, label: FeedbackLabel) -> None:
        """Apply a router's feedback label per the max-loss override rule.

        A router overrides an existing label only if its measured loss is
        strictly larger than the loss already recorded in the header
        (paper, Section 5.2), so the source learns about the most
        congested bottleneck on the path.
        """
        feedback = self.feedback
        if feedback is None or label.loss > feedback.loss:
            self.feedback = label

    def make_ack(self, now: float) -> "Packet":
        """Build the acknowledgment a receiver returns for this packet:
        same flow and sequence number, endpoints reversed, the feedback
        label echoed (shared, see :class:`FeedbackLabel`)."""
        return Packet(self.flow_id, ACK_SIZE, _GREEN, self.seq, now, self.src,
                      None, None, self.dst, self.feedback, True)
