"""Live job streaming: minimal RFC 6455 WebSocket on the service's clock.

While a job executes, its worker child appends JSONL events to the
job's stream file — lifecycle transitions from the queue, per-epoch
``obs`` metric snapshots, and at completion the exact ``--metrics-out``
line(s) of the finished artifact.  This module serves that stream to
subscribed clients: the API accepts a ``GET /jobs/<id>/stream`` upgrade
and a :class:`StreamTail`, stepped by clock timers, tails the file,
pushing each line as one text frame until the job settles and the file
is drained.

The WebSocket subset implemented here is deliberately small but real —
RFC 6455 handshake (Sec-WebSocket-Accept), server frames unmasked,
client frames unmasked *rejected* per spec, close/ping handled — and
is stdlib-only, matching the repo's no-dependency rule.  Clients that
cannot speak WebSocket get the same lines from the plain-HTTP
long-poll fallback in :mod:`repro.service.api`.  ``hashlib`` (and with
it OpenSSL's libcrypto) loads at the first handshake, not with the
service.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple

from .queue import JobQueue
from .storage import StorageBackend

__all__ = ["accept_key", "encode_frame", "FrameParser", "StreamTail",
           "OP_TEXT", "OP_CLOSE", "OP_PING", "OP_PONG"]

#: Fixed GUID every WebSocket handshake concatenates (RFC 6455 §1.3).
_HANDSHAKE_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA


def accept_key(client_key: str) -> str:
    """``Sec-WebSocket-Accept`` value for a client's handshake key."""
    import base64
    import hashlib

    digest = hashlib.sha1(
        (client_key.strip() + _HANDSHAKE_GUID).encode()).digest()
    return base64.b64encode(digest).decode()


def encode_frame(payload: bytes, opcode: int = OP_TEXT,
                 mask: Optional[bytes] = None) -> bytes:
    """One complete frame (FIN set).  Servers send unmasked
    (``mask=None``); the test/client helper masks with a 4-byte key as
    the spec requires of clients."""
    header = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask is not None else 0
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if mask is not None:
        if len(mask) != 4:
            raise ValueError("mask key must be 4 bytes")
        header += mask
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return bytes(header) + payload


class FrameParser:
    """Incremental frame decoder for one direction of a connection.

    Feed raw bytes, collect ``(opcode, payload)`` tuples.  When
    ``require_mask`` is set (the server side), an unmasked frame raises
    ``ValueError`` — RFC 6455 §5.1 demands the connection be failed.
    Fragmented messages (FIN clear) are reassembled; control frames may
    interleave.
    """

    def __init__(self, require_mask: bool = False) -> None:
        self.require_mask = require_mask
        self._buffer = bytearray()
        self._fragments: List[bytes] = []
        self._fragment_opcode: Optional[int] = None

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self._buffer += data
        frames: List[Tuple[int, bytes]] = []
        while True:
            parsed = self._parse_one()
            if parsed is None:
                return frames
            fin, opcode, payload = parsed
            if opcode in (OP_CLOSE, OP_PING, OP_PONG):
                frames.append((opcode, payload))
                continue
            if opcode == 0x0:  # continuation
                if self._fragment_opcode is None:
                    raise ValueError("continuation frame with no start")
                self._fragments.append(payload)
                if fin:
                    frames.append((self._fragment_opcode,
                                   b"".join(self._fragments)))
                    self._fragments, self._fragment_opcode = [], None
                continue
            if not fin:
                self._fragment_opcode = opcode
                self._fragments = [payload]
                continue
            frames.append((opcode, payload))

    def _parse_one(self) -> Optional[Tuple[bool, int, bytes]]:
        buf = self._buffer
        if len(buf) < 2:
            return None
        fin = bool(buf[0] & 0x80)
        opcode = buf[0] & 0x0F
        masked = bool(buf[1] & 0x80)
        if self.require_mask and not masked:
            raise ValueError("client frames must be masked (RFC 6455)")
        length = buf[1] & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < 4:
                return None
            (length,) = struct.unpack_from("!H", buf, 2)
            offset = 4
        elif length == 127:
            if len(buf) < 10:
                return None
            (length,) = struct.unpack_from("!Q", buf, 2)
            offset = 10
        mask = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            mask = bytes(buf[offset:offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        if masked:
            payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
        del self._buffer[:offset + length]
        return fin, opcode, payload


class StreamTail:
    """Tail a job's stream over an upgraded WebSocket connection.

    Each step, a ``clock`` timer every ``poll`` seconds, sends every
    complete stream line as one text frame; once the job is terminal
    and the file is drained, a final ``{"type": "end", ...}`` frame and
    a close frame finish the conversation.  The client's bytes arrive
    through :meth:`feed`: a ping gets its pong, and a close (or a
    protocol violation) tears the stream down at once, as does EOF,
    which the connection reports by setting ``closed``.  The handshake
    is the API layer's job — the tail starts on a socket already
    upgraded, and writes through ``conn``: anything with
    ``write(data)``, ``close()`` (after what is queued) and ``closed``.
    """

    __slots__ = ("_clock", "_conn", "_storage", "_queue", "_job_id",
                 "_offset", "_poll", "_parser")

    def __init__(self, clock, conn, storage: StorageBackend,
                 queue: JobQueue, job_id: str, *, offset: int = 0,
                 poll: float = 0.15) -> None:
        self._clock = clock
        self._conn = conn
        self._storage = storage
        self._queue = queue
        self._job_id = job_id
        self._offset = offset
        self._poll = poll
        self._parser = FrameParser(require_mask=True)
        self._step()

    def feed(self, data: bytes) -> None:
        """The client's bytes: answer pings, end on close or violation."""
        try:
            frames = self._parser.feed(data)
        except ValueError:
            frames = [(OP_CLOSE, b"")]
        for opcode, payload in frames:
            if opcode == OP_CLOSE:
                self._conn.close()
                return
            if opcode == OP_PING:
                self._conn.write(encode_frame(payload, OP_PONG))

    def _send_lines(self) -> None:
        lines, self._offset = self._storage.read_stream(self._job_id,
                                                        self._offset)
        for line in lines:
            self._conn.write(encode_frame(line.encode()))

    def _step(self) -> None:
        conn = self._conn
        if conn.closed:
            return
        try:
            self._send_lines()
            job = self._queue.get(self._job_id)
            if job is not None and not job.terminal:
                self._clock.call_later(self._poll, self._step)
                return
            # One final drain: the terminal state line may have landed
            # between the read above and the record check.
            self._send_lines()
            end = json.dumps({"type": "end",
                              "state": job.state if job else "unknown"})
            conn.write(encode_frame(end.encode()))
            conn.write(encode_frame(struct.pack("!H", 1000), OP_CLOSE))
        except Exception:  # noqa: BLE001 - the service outlives one tail
            import traceback
            traceback.print_exc()
        conn.close()
