"""Receiver-side FGS decoding model.

FGS enhancement data is only decodable as a *consecutive prefix*: a gap
caused by a lost packet renders every later packet of that frame useless
(Section 3.1).  This module computes useful-packet counts from received
index sets, both for simulation output and for the Monte-Carlo
validation of Lemma 1 / Table 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Set

__all__ = [
    "useful_prefix_length",
    "FrameReception",
    "simulate_bernoulli_frame",
    "monte_carlo_useful_packets",
]


def useful_prefix_length(received_indices: Iterable[int],
                         total_sent: int) -> int:
    """Length of the consecutive received prefix ``0..k-1``.

    ``received_indices`` are enhancement-packet positions within the
    frame (0-based); the decoder consumes packets in order and stops at
    the first gap.
    """
    if total_sent < 0:
        raise ValueError("total_sent cannot be negative")
    received: Set[int] = set(received_indices)
    useful = 0
    while useful < total_sent and useful in received:
        useful += 1
    return useful


@dataclass
class FrameReception:
    """Accumulates per-frame reception state at the sink.

    ``enhancement_sent`` counts FGS packets the source transmitted for
    the frame; ``green_sent`` the base packets.  The frame is decodable
    only when the base layer arrived intact; useful enhancement is the
    consecutive prefix.
    """

    frame_id: int
    green_sent: int = 0
    enhancement_sent: int = 0
    green_received: int = 0
    enhancement_received: Set[int] = field(default_factory=set)

    @property
    def base_intact(self) -> bool:
        return self.green_received >= self.green_sent

    @property
    def received_enhancement_count(self) -> int:
        return len(self.enhancement_received)

    @property
    def useful_enhancement(self) -> int:
        """Consecutively decodable FGS packets (0 if the base is damaged)."""
        if not self.base_intact:
            return 0
        return useful_prefix_length(self.enhancement_received,
                                    self.enhancement_sent)

    def utility(self) -> float:
        """Fraction of received FGS packets that are decodable (Eq. 3)."""
        received = self.received_enhancement_count
        if received == 0:
            return 1.0 if self.enhancement_sent == 0 else 0.0
        return self.useful_enhancement / received


def simulate_bernoulli_frame(frame_size: int, loss: float,
                             rng: random.Random) -> FrameReception:
    """Drop each of ``frame_size`` FGS packets i.i.d. with prob ``loss``.

    Models the best-effort network of Section 3.1 (the base layer is
    assumed protected, as in the paper's best-effort comparison).
    """
    if frame_size < 0:
        raise ValueError("frame size cannot be negative")
    if not 0 <= loss <= 1:
        raise ValueError("loss must be a probability")
    reception = FrameReception(frame_id=0, enhancement_sent=frame_size)
    for index in range(frame_size):
        if rng.random() >= loss:
            reception.enhancement_received.add(index)
    return reception


def monte_carlo_useful_packets(frame_size: int, loss: float, n_frames: int,
                               seed: int = 1) -> float:
    """Average useful packets over ``n_frames`` Bernoulli-loss frames.

    The simulation column of Table 1.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    rng = random.Random(seed)
    total = 0
    for _ in range(n_frames):
        total += simulate_bernoulli_frame(frame_size, loss, rng).useful_enhancement
    return total / n_frames


def monte_carlo_useful_packets_pmf(pmf: "dict[int, float]", loss: float,
                                   n_frames: int, seed: int = 1) -> float:
    """Monte-Carlo validation of the *general* Lemma 1 (Eq. 1).

    Frame sizes are drawn i.i.d. from the PMF ``q_k = P(H = k)`` — the
    paper's model for variable scene complexity — and each frame
    suffers Bernoulli loss; returns the mean useful-prefix length, to
    be compared against
    :func:`repro.analysis.best_effort.expected_useful_packets_pmf`.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if not pmf:
        raise ValueError("PMF cannot be empty")
    rng = random.Random(seed)
    sizes = list(pmf.keys())
    weights = list(pmf.values())
    total = 0
    for _ in range(n_frames):
        frame_size = rng.choices(sizes, weights=weights)[0]
        total += simulate_bernoulli_frame(frame_size, loss,
                                          rng).useful_enhancement
    return total / n_frames
