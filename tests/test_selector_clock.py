"""The shard driver's contract: ``core/clock.py::SelectorClock``.

Every check drives the real selector over a ``socket.socketpair()`` and
reads the order callbacks ran in, never how long they took: a byte left
unread keeps one end readable, so its reader runs once per turn and
marks the turns in the log.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.clock import Clock, SelectorClock


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
