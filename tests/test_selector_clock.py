"""The live driver's contract: ``core/clock.py::SelectorClock`` and its
``DatagramEndpoint``, which run every live process (shard, load
generator, loopback session).

Every check drives the real selector over a ``socket.socketpair()`` and
reads the order callbacks ran in, never how long they took: a byte left
unread keeps one end readable, so its reader runs once per turn and
marks the turns in the log.  A socket end with room in its buffer is
writable on every turn, so a writer does the same.
"""

from __future__ import annotations

import errno
import selectors
import socket

import pytest

from repro.core.clock import Clock, DatagramEndpoint, SelectorClock


@pytest.fixture
def clock():
    driver = SelectorClock()
    yield driver
    driver.close()


@pytest.fixture
def pair():
    ends = socket.socketpair()
    yield ends
    for end in ends:
        end.close()


def readable(pair) -> int:
    """Make one end readable for good (the byte is never read)."""
    pair[1].send(b"x")
    return pair[0].fileno()


def test_is_a_clock_with_origin_at_construction(clock):
    assert isinstance(clock, Clock)
    first = clock.now
    assert 0.0 <= first <= clock.now


def test_equal_deadlines_fire_in_the_order_they_were_armed(clock):
    log = []
    when = clock.now
    for name in "abc":
        clock.call_at(when, log.append, name)
    clock.call_at(when - 1.0, log.append, "earlier")
    clock.call_at(when, clock.stop)
    clock.run()
    assert log == ["earlier", "a", "b", "c"]


def test_run_until_stops_at_that_clock_time(clock):
    log = []
    clock.call_at(clock.now + 60.0, log.append, "later")
    clock.call_at(clock.now, log.append, "due")
    clock.run(until=clock.now)  # the stop is armed after "due"
    assert log == ["due"]


def test_call_at_in_the_past_fires_on_the_next_turn(clock, pair):
    log = []
    clock.add_reader(readable(pair), lambda: log.append("turn"))

    def first() -> None:
        log.append("first")
        clock.call_at(-1.0, second)

    def second() -> None:
        log.append("second")
        clock.stop()

    clock.call_at(-1.0, first)
    clock.run()
    assert log == ["turn", "first", "turn", "second"]


def test_zero_delay_timer_does_not_run_before_a_readable_fd(clock, pair):
    log = []

    def on_readable() -> None:
        pair[0].recv(1)
        log.append("reader")

    def first() -> None:
        log.append("first")
        pair[1].send(b"x")  # readable from now on
        clock.call_later(0.0, second)

    def second() -> None:
        log.append("second")
        clock.stop()

    clock.add_reader(pair[0].fileno(), on_readable)
    clock.call_at(-1.0, first)
    clock.run()
    assert log == ["first", "reader", "second"]


def test_a_future_deadline_fires_no_earlier_than_it(clock):
    fired = []
    deadline = clock.now + 0.005
    clock.call_at(deadline, lambda: (fired.append(clock.now), clock.stop()))
    clock.run()
    assert fired[0] >= deadline


def test_remove_reader_of_an_unregistered_fd_is_a_noop(clock, pair):
    clock.remove_reader(pair[0].fileno())
    clock.add_reader(pair[0].fileno(), lambda: None)
    clock.remove_reader(pair[0].fileno())
    clock.remove_reader(pair[0].fileno())
    log = []
    clock.add_reader(readable(pair), lambda: (log.append("again"),
                                              clock.stop()))
    clock.run()
    assert log == ["again"]


def test_stop_from_a_reader_ends_run_after_that_callback(clock, pair):
    log = []
    for end in pair:  # both ends readable: two readers ready at once
        end.send(b"x")
        clock.add_reader(end.fileno(),
                         lambda: (log.append("reader"), clock.stop()))
    clock.call_at(-1.0, log.append, "timer")
    clock.run()
    assert log == ["reader"]  # whichever came first; nothing after it
    # The timer due in the stopped turn stays armed for the next run.
    for end in pair:
        clock.remove_reader(end.fileno())
    clock.call_at(-1.0, clock.stop)
    clock.run()
    assert log == ["reader", "timer"]


def test_a_raising_timer_propagates_out_of_run(clock):

    def boom() -> None:
        raise ValueError("timer")

    clock.call_at(-1.0, boom)
    with pytest.raises(ValueError, match="timer"):
        clock.run()


def test_a_raising_reader_propagates_out_of_run(clock, pair):

    def boom() -> None:
        raise ValueError("reader")

    clock.add_reader(readable(pair), boom)
    with pytest.raises(ValueError, match="reader"):
        clock.run()


# -- the writer half ----------------------------------------------------------


def test_a_writer_fires_when_its_fd_is_writable(clock, pair):
    log = []
    clock.add_writer(pair[0].fileno(),
                     lambda: (log.append("writer"), clock.stop()))
    clock.run()
    assert log == ["writer"]


def test_reader_and_writer_on_one_fd_share_a_turn(clock, pair):
    log = []
    fd = readable(pair)  # readable for good, and always writable

    def on_readable() -> None:
        log.append("reader")
        if len(log) > 2:
            clock.stop()

    def on_writable() -> None:
        log.append("writer")
        clock.remove_writer(fd)

    clock.add_reader(fd, on_readable)
    clock.add_writer(fd, on_writable)
    clock.run()
    # Reader, then writer, in one turn; the next turn reads only.
    assert log == ["reader", "writer", "reader"]


def test_a_writer_removed_by_the_reader_does_not_run_that_turn(clock, pair):
    log = []
    fd = readable(pair)

    def on_readable() -> None:
        log.append("reader")
        clock.remove_writer(fd)
        clock.call_later(0.0, clock.stop)

    clock.add_reader(fd, on_readable)
    clock.add_writer(fd, lambda: log.append("writer"))
    clock.run()
    assert log == ["reader", "reader"]


class Recorder:
    """A datagram protocol that logs what its endpoint hands it."""

    def __init__(self) -> None:
        self.transport = None
        self.datagrams = []
        self.errors = []

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data, addr) -> None:
        self.datagrams.append(data)

    def error_received(self, exc) -> None:
        self.errors.append(exc)


class Refusing:
    """A real socket whose ``sendto`` raises ``errors`` first, in turn."""

    def __init__(self, sock: socket.socket, errors) -> None:
        self.sock = sock
        self.errors = list(errors)
        self.sent = []

    def __getattr__(self, name):
        return getattr(self.sock, name)

    def sendto(self, data, addr) -> int:
        if self.errors:
            raise self.errors.pop(0)
        self.sent.append((bytes(data), addr))
        return len(data)


def events_of(clock: SelectorClock, fd: int) -> int:
    return clock._selector.get_key(fd).events


ADDR = ("127.0.0.1", 9)


def test_an_eagain_send_queues_and_flushes_in_order(clock, pair):
    stub = Refusing(pair[0], [BlockingIOError()] * 3)
    protocol = Recorder()
    endpoint = DatagramEndpoint(clock, stub, protocol)
    assert protocol.transport is endpoint
    for index in range(3):
        endpoint.sendto(bytearray(b"%d" % index), ADDR)
    assert stub.sent == []
    assert events_of(clock, stub.fileno()) & selectors.EVENT_WRITE
    turns = []

    def watch() -> None:
        turns.append(len(stub.sent))
        if len(turns) == 1:
            endpoint.sendto(b"3", ADDR)  # behind the queue, not around it
        if len(stub.sent) < 4:
            clock.call_later(0.0, watch)
        else:
            clock.stop()

    clock.call_later(0.0, watch)
    clock.run()
    # The first send and one flush a turn are refused, then the third
    # turn's flush sends the whole queue.
    assert turns == [0, 0, 4] and stub.errors == []
    assert stub.sent == [(b"%d" % index, ADDR) for index in range(4)]
    assert protocol.errors == []
    assert events_of(clock, stub.fileno()) == selectors.EVENT_READ
    endpoint.sendto(b"4", ADDR)  # an empty queue sends at once again
    assert stub.sent[-1] == (b"4", ADDR)


def test_another_send_error_goes_to_the_protocol(clock, pair):
    refused = OSError(errno.EMSGSIZE, "too long")
    stub = Refusing(pair[0], [refused])
    protocol = Recorder()
    endpoint = DatagramEndpoint(clock, stub, protocol)
    endpoint.sendto(b"lost", ADDR)
    endpoint.sendto(b"sent", ADDR)
    assert protocol.errors == [refused]
    assert stub.sent == [(b"sent", ADDR)]
    assert events_of(clock, stub.fileno()) == selectors.EVENT_READ


def test_an_endpoint_reads_one_datagram_per_turn(clock):
    receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    receiver.bind(("127.0.0.1", 0))
    protocol = Recorder()
    endpoint = DatagramEndpoint(clock, receiver, protocol)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
        for data in (b"a", b"b", b"c"):
            sender.sendto(data, endpoint.get_extra_info("sockname"))
    log = []

    def turn() -> None:
        log.append(len(protocol.datagrams))
        if len(protocol.datagrams) < 3:
            clock.call_later(0.0, turn)
        else:
            clock.stop()

    clock.call_later(0.0, turn)
    clock.run()
    endpoint.close()
    assert log == [1, 2, 3] and protocol.datagrams == [b"a", b"b", b"c"]
    assert receiver.fileno() == -1
