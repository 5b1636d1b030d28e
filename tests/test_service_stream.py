"""WebSocket framing (RFC 6455 subset) and live job-stream tailing."""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.service.api import ExperimentService, ServiceConfig
from repro.service.stream import (OP_CLOSE, OP_PING, OP_PONG, OP_TEXT,
                                  FrameParser, accept_key, encode_frame)


class TestAcceptKey:
    def test_rfc6455_worked_example(self):
        # The handshake example from RFC 6455 §1.3.
        assert accept_key("dGhlIHNhbXBsZSBub25jZQ==") == \
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_whitespace_tolerated(self):
        assert accept_key(" dGhlIHNhbXBsZSBub25jZQ== ") == \
            accept_key("dGhlIHNhbXBsZSBub25jZQ==")


class TestFraming:
    @pytest.mark.parametrize("size", [0, 1, 125, 126, 300, 65535, 70000])
    def test_round_trip_every_length_class(self, size):
        payload = bytes(i % 251 for i in range(size))
        frames = FrameParser().feed(encode_frame(payload))
        assert frames == [(OP_TEXT, payload)]

    @pytest.mark.parametrize("size", [5, 300, 70000])
    def test_masked_round_trip(self, size):
        payload = bytes(i % 7 for i in range(size))
        frame = encode_frame(payload, mask=b"\x01\x02\x03\x04")
        assert FrameParser(require_mask=True).feed(frame) == \
            [(OP_TEXT, payload)]

    def test_mask_key_must_be_four_bytes(self):
        with pytest.raises(ValueError):
            encode_frame(b"x", mask=b"\x01\x02")

    def test_unmasked_client_frame_rejected(self):
        with pytest.raises(ValueError, match="masked"):
            FrameParser(require_mask=True).feed(encode_frame(b"hi"))

    def test_byte_at_a_time_feeding(self):
        frame = encode_frame(b"incremental", mask=b"abcd")
        parser = FrameParser(require_mask=True)
        collected = []
        for i in range(len(frame)):
            collected += parser.feed(frame[i:i + 1])
        assert collected == [(OP_TEXT, b"incremental")]

    def test_fragmented_message_reassembled(self):
        # FIN clear on the first frame, continuation carries FIN.
        first = bytes([0x01, 3]) + b"hel"
        final = bytes([0x80, 2]) + b"lo"
        parser = FrameParser()
        assert parser.feed(first) == []
        assert parser.feed(final) == [(OP_TEXT, b"hello")]

    def test_control_frame_interleaves_fragments(self):
        first = bytes([0x01, 2]) + b"ab"
        ping = encode_frame(b"p", OP_PING)
        final = bytes([0x80, 2]) + b"cd"
        parser = FrameParser()
        frames = parser.feed(first + ping + final)
        assert frames == [(OP_PING, b"p"), (OP_TEXT, b"abcd")]

    def test_continuation_without_start_rejected(self):
        with pytest.raises(ValueError, match="continuation"):
            FrameParser().feed(bytes([0x80, 1]) + b"x")

    def test_two_frames_in_one_feed(self):
        blob = encode_frame(b"one") + encode_frame(b"two")
        assert FrameParser().feed(blob) == [(OP_TEXT, b"one"),
                                            (OP_TEXT, b"two")]


def _handshake(job_id: str) -> bytes:
    return (f"GET /jobs/{job_id}/stream HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"Upgrade: websocket\r\n"
            f"Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
            f"\r\n").encode()


class TestStreamJob:
    """Tail a live job over a real socket served by the service's clock,
    with the client read by the same clock on the test's own thread."""

    @pytest.fixture()
    def service(self, tmp_path):
        service = ExperimentService(ServiceConfig(
            storage_dir=str(tmp_path / "store"), workers=0)).start()
        yield service
        service.stop()
        service.clock.close()

    @staticmethod
    def _client_frames(service, sock, react, timeout=10.0):
        """Run the clock until the server sends a close frame (or EOF,
        or ``timeout``), calling ``react(frames)`` after every read;
        the frames that followed the 101 head."""
        clock = service.clock
        parser = FrameParser()
        head = bytearray()
        frames = []

        def on_readable():
            data = sock.recv(4096)
            if not data:
                clock.stop()
                return
            if b"\r\n\r\n" not in head:
                head.extend(data)
                if b"\r\n\r\n" not in head:
                    return
                assert head.startswith(b"HTTP/1.1 101 Switching Protocols")
                data = bytes(head.partition(b"\r\n\r\n")[2])
            frames.extend(parser.feed(data))
            react(frames)
            if any(op == OP_CLOSE for op, _ in frames):
                clock.stop()

        sock.setblocking(False)
        clock.add_reader(sock.fileno(), on_readable)
        clock.call_later(timeout, clock.stop)
        clock.run()
        clock.remove_reader(sock.fileno())
        return frames

    def test_tails_until_terminal_then_closes(self, service):
        queue = service.queue
        job = queue.submit(params={"key": "X"})
        claimed = queue.claim_next("w001")
        service.storage.append_stream(job.job_id, ['{"type": "snapshot"}'])
        service.clock.call_later(0.2, queue.complete, claimed,
                                 {"experiment_id": "X"})
        with socket.create_connection(("127.0.0.1", service.port),
                                      timeout=10) as sock:
            sock.sendall(_handshake(job.job_id))
            frames = self._client_frames(service, sock, lambda f: None)

        close_frames = [p for op, p in frames if op == OP_CLOSE]
        assert len(close_frames) == 1
        assert struct.unpack("!H", close_frames[0])[0] == 1000
        texts = [json.loads(p.decode()) for op, p in frames
                 if op == OP_TEXT]
        types = [t.get("type") for t in texts]
        assert types[0] == "state"         # running (from the claim)
        assert "snapshot" in types
        assert types[-1] == "end"
        assert texts[-1]["state"] == "done"

    def test_ping_gets_pong(self, service):
        queue = service.queue
        job = queue.submit(params={"key": "X"})
        claimed = queue.claim_next("w001")  # stays running for now

        def complete_on_pong(frames):
            if any(op == OP_PONG for op, _ in frames) and \
                    queue.get(job.job_id).state == "running":
                queue.complete(claimed, {"experiment_id": "X"})

        with socket.create_connection(("127.0.0.1", service.port),
                                      timeout=10) as sock:
            sock.sendall(_handshake(job.job_id))
            sock.sendall(encode_frame(b"marco", OP_PING, mask=b"abcd"))
            frames = self._client_frames(service, sock, complete_on_pong)
        assert (OP_PONG, b"marco") in frames
        assert frames[-1][0] == OP_CLOSE


class TestWebSocketThroughApi:
    """Raw-socket WebSocket handshake against a live service."""

    def test_handshake_and_terminal_stream(self, tmp_path):
        from repro.experiments.service_exp import _Fleet

        config = ServiceConfig(storage_dir=str(tmp_path / "store"),
                               workers=0, port=0)
        with _Fleet(config) as fleet:
            queue = fleet.service.queue
            job = queue.submit(params={"key": "X"})
            queue.complete(queue.claim_next("w001"), {"experiment_id": "X"})

            with socket.create_connection(("127.0.0.1", fleet.port),
                                          timeout=10) as sock:
                sock.sendall(_handshake(job.job_id))
                blob = b""
                while b"\r\n\r\n" not in blob:
                    blob += sock.recv(4096)
                head, _, rest = blob.partition(b"\r\n\r\n")
                assert b"101 Switching Protocols" in head
                assert b"s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in head
                parser = FrameParser()
                frames = parser.feed(rest)
                sock.settimeout(10)
                while not any(op == OP_CLOSE for op, _ in frames):
                    data = sock.recv(4096)
                    if not data:
                        break
                    frames += parser.feed(data)
        texts = [json.loads(p.decode()) for op, p in frames
                 if op == OP_TEXT]
        assert [t["type"] for t in texts][-1] == "end"
        assert any(t.get("state") == "done" for t in texts)
