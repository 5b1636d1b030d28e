"""Span recording from outside the program.

The ledger owns its tracing: spans are recorded from these files,
around calls into each layer's *public* functions, never from inside
``src/``.  :meth:`SpanRecorder.wrap` replaces a public method at class
level (before the workload builds its objects, so prebound callbacks
capture the wrapper); :meth:`SpanRecorder.span` brackets an explicit
region; :meth:`SpanRecorder.add` records an interval reconstructed
after the fact (service jobs, whose timestamps come from two
processes).

A span is ``{name, start, end, parent, trace_id}``.  Aggregates
(count / total / self per name) are kept for every span; only the first
``keep`` raw spans are retained, in memory, and written out when the
run ends.  Self time is the span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Nested span stack with per-name aggregates."""

    def __init__(self, keep: int = 10_000,
                 clock=time.perf_counter) -> None:
        self.keep = keep
        self.clock = clock
        #: name -> [count, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: Raw spans: (id, name, start, end, parent id or None, trace).
        self.raw: List[Tuple[int, str, float, float, Optional[int],
                             object]] = []
        self.trace_id: object = 0
        #: Open frames: [id, name, start, seconds covered by children].
        self._stack: List[list] = []
        self._next_id = 1
        self._patched: List[Tuple[type, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[2]
        parent = None
        if stack:
            stack[-1][3] += duration
            parent = stack[-1][0]
        self._record(frame[0], frame[1], frame[2], end, parent,
                     self.trace_id, duration - frame[3])

    def _record(self, span_id: int, name: str, start: float, end: float,
                parent: Optional[int], trace_id: object,
                own: float) -> None:
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
        if len(self.raw) < self.keep:
            self.raw.append((span_id, name, start, end, parent, trace_id))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, trace_id: object = None) -> int:
        """Record a finished interval (no nesting bookkeeping: the
        caller supplies the parent); returns the span id."""
        span_id = self._next_id
        self._next_id += 1
        self._record(span_id, name, start, end, parent,
                     self.trace_id if trace_id is None else trace_id,
                     end - start)
        return span_id

    # -- class-level wrapping ----------------------------------------------

    def wrap(self, cls: type, method: str, name: str) -> None:
        """Replace public ``cls.method`` by a span-recording wrapper."""
        if method.startswith("_"):
            raise ValueError(f"{cls.__name__}.{method} is not public")
        original = cls.__dict__[method]
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            frame = opener(name)
            try:
                return original(*args, **kwargs)
            finally:
                closer(frame)

        traced.__name__ = method
        traced.__qualname__ = f"{cls.__qualname__}.{method}"
        traced.__doc__ = original.__doc__
        setattr(cls, method, traced)
        self._patched.append((cls, method, original))

    def unwrap_all(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    # -- read-out ----------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def accounted(self) -> float:
        """Sum of every span's self time: the root spans' durations,
        if nothing was lost."""
        return sum(entry[2] for entry in self.agg.values())

    def write_jsonl(self, path: Path) -> int:
        """One JSON object per retained span, then one ``aggregate``
        line per name; returns the number of lines written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = 0
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, trace in self.raw:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "trace_id": trace}) + "\n")
                lines += 1
            for name in sorted(self.agg):
                count, total, own = self.agg[name]
                handle.write(json.dumps({
                    "aggregate": name, "count": count, "total_s": total,
                    "self_s": own}) + "\n")
                lines += 1
        return lines
