"""Unit tests for packets, colors and feedback labels."""

from __future__ import annotations

import pytest

from repro.sim.packet import ACK_SIZE, Color, FeedbackLabel, Packet


class TestColor:
    def test_priority_ordering(self):
        assert Color.GREEN < Color.YELLOW < Color.RED

    def test_pels_classification(self):
        assert Color.GREEN.is_pels
        assert Color.YELLOW.is_pels
        assert Color.RED.is_pels
        assert not Color.BEST_EFFORT.is_pels


class TestFeedbackStamping:
    def test_first_label_is_applied(self):
        packet = Packet(flow_id=1, size=500)
        packet.stamp_feedback(FeedbackLabel(1, 5, 0.1))
        assert packet.feedback.router_id == 1
        assert packet.feedback.epoch == 5
        assert packet.feedback.loss == 0.1

    def test_larger_loss_overrides(self):
        """The most congested router wins (Section 5.2 max-min rule)."""
        packet = Packet(flow_id=1, size=500)
        packet.stamp_feedback(FeedbackLabel(1, 5, 0.1))
        packet.stamp_feedback(FeedbackLabel(2, 3, 0.2))
        assert packet.feedback.router_id == 2
        assert packet.feedback.loss == 0.2

    def test_smaller_loss_does_not_override(self):
        packet = Packet(flow_id=1, size=500)
        packet.stamp_feedback(FeedbackLabel(1, 5, 0.2))
        packet.stamp_feedback(FeedbackLabel(2, 9, 0.1))
        assert packet.feedback.router_id == 1

    def test_equal_loss_keeps_existing(self):
        packet = Packet(flow_id=1, size=500)
        packet.stamp_feedback(FeedbackLabel(1, 5, 0.2))
        packet.stamp_feedback(FeedbackLabel(2, 9, 0.2))
        assert packet.feedback.router_id == 1

    def test_stamp_shares_immutable_label(self):
        """One label object serves every packet of an epoch: sharing is
        safe because nobody can alter it afterwards."""
        packet = Packet(flow_id=1, size=500)
        label = FeedbackLabel(router_id=1, epoch=5, loss=0.1)
        packet.stamp_feedback(label)
        assert packet.feedback is label
        with pytest.raises(AttributeError):
            label.loss = 0.9
        assert packet.feedback.loss == 0.1


class TestAck:
    def test_ack_reverses_endpoints(self):
        packet = Packet(flow_id=3, size=500, seq=17, src=10, dst=20)
        ack = packet.make_ack(now=1.5)
        assert ack.is_ack
        assert ack.src == 20 and ack.dst == 10
        assert ack.seq == 17
        assert ack.flow_id == 3
        assert ack.size == ACK_SIZE

    def test_ack_shares_feedback_label(self):
        packet = Packet(flow_id=3, size=500)
        packet.stamp_feedback(FeedbackLabel(1, 2, 0.3))
        ack = packet.make_ack(now=0.0)
        assert ack.feedback is packet.feedback
        with pytest.raises(AttributeError):
            ack.feedback.epoch = 9

    def test_ack_without_feedback(self):
        ack = Packet(flow_id=3, size=500).make_ack(now=0.0)
        assert ack.feedback is None


class TestPacket:
    def test_size_bits(self):
        assert Packet(flow_id=1, size=500).size_bits == 4000
