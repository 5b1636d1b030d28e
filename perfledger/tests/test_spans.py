"""Span self-time arithmetic, class-level wrapping, read-out."""

import json

import pytest

from perfledger.spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_self_is_duration_minus_children(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        with rec.span("parent"):           # 0 .. 10
            clock.now = 1.0
            with rec.span("child"):        # 1 .. 4
                clock.now = 2.0
                with rec.span("grandchild"):   # 2 .. 3
                    clock.now = 3.0
                clock.now = 4.0
            clock.now = 6.0
            with rec.span("child"):        # 6 .. 9
                clock.now = 9.0
            clock.now = 10.0
        assert rec.total("parent") == 10.0
        assert rec.self_time("parent") == 4.0      # 10 - (3 + 3)
        assert rec.count("child") == 2
        assert rec.total("child") == 6.0
        assert rec.self_time("child") == 5.0       # 6 - 1 (grandchild)
        assert rec.self_time("grandchild") == 1.0
        # Self times of all spans add up to the root's duration.
        assert sum(e[2] for e in rec.agg.values()) == 10.0

    def test_parent_links_and_trace_id(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        rec.trace_id = "rep-1"
        with rec.span("a"):
            with rec.span("b"):
                pass
        (b_id, b_name, _s, _e, b_parent, b_trace), \
            (a_id, a_name, _s2, _e2, a_parent, _t) = rec.raw
        assert (a_name, b_name) == ("a", "b")
        assert b_parent == a_id and a_parent is None
        assert b_trace == "rep-1"

    def test_keep_bounds_raw_spans_but_not_aggregates(self):
        rec = SpanRecorder(keep=3)
        for _ in range(10):
            with rec.span("x"):
                pass
        assert len(rec.raw) == 3
        assert rec.count("x") == 10

    def test_add_records_a_finished_interval(self):
        rec = SpanRecorder()
        root = rec.add("job", 10.0, 12.5, trace_id="j1")
        rec.add("exec", 11.0, 12.0, parent=root, trace_id="j1")
        assert rec.total("job") == 2.5
        assert rec.raw[1][4] == root


class Target:
    def __init__(self):
        self.bound = self.work     # prebound, like Link does

    def work(self, x):
        """doc"""
        return self.helper(x) + 1

    def helper(self, x):
        return x * 2


class TestWrap:
    def test_wrap_counts_nested_public_calls_and_unwraps(self):
        rec = SpanRecorder()
        original = Target.__dict__["work"]
        rec.wrap(Target, "work", "t.work")
        rec.wrap(Target, "helper", "t.helper")
        try:
            target = Target()      # built after wrapping
            assert target.bound(3) == 7
            assert Target.work.__doc__ == "doc"
        finally:
            rec.unwrap_all()
        assert Target.__dict__["work"] is original
        assert rec.count("t.work") == 1 and rec.count("t.helper") == 1
        assert rec.self_time("t.work") <= rec.total("t.work")
        helper = [s for s in rec.raw if s[1] == "t.helper"][0]
        work = [s for s in rec.raw if s[1] == "t.work"][0]
        assert helper[4] == work[0]

    def test_span_closes_when_the_callee_raises(self):
        rec = SpanRecorder()

        class Boom:
            def go(self):
                raise KeyError("x")

        rec.wrap(Boom, "go", "boom")
        try:
            with pytest.raises(KeyError):
                Boom().go()
        finally:
            rec.unwrap_all()
        assert rec.count("boom") == 1
        with rec.span("after"):
            pass
        assert rec.raw[-1][4] is None   # stack was unwound

    def test_refuses_private_names(self):
        with pytest.raises(ValueError):
            SpanRecorder().wrap(Target, "_private", "x")


def test_write_jsonl(tmp_path):
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.span("a"):
        clock.now = 2.0
    path = tmp_path / "deep" / "t.jsonl"
    assert rec.write_jsonl(path) == 2
    span, aggregate = [json.loads(line) for line in
                       path.read_text().splitlines()]
    assert set(span) == {"id", "name", "start", "end", "parent", "trace_id"}
    assert aggregate == {"aggregate": "a", "count": 1, "total_s": 2.0,
                         "self_s": 2.0}
