"""Observability overhead gate.

The design contract of :mod:`repro.obs` is *zero cost when off*: with no
tracer active, the engine's dispatch loop is
byte-for-byte the historical (pre-instrumentation) one.  The gate here
times a dispatch workload on the shipped ``Simulator`` and on an in-file
replica whose ``run()`` is a verbatim copy of that historical loop,
paired best-of-K, and asserts the shipped loop is within 2% — so the
contract cannot erode silently as instrumentation sites accrete.  Both
sides run on one host, so the ratio holds on any host.

What tracing costs when it is *on* is the perf ledger's
``obs.trace.on_ratio`` row (``perfledger/``).
"""

from __future__ import annotations

import sys
import time
from heapq import heappop, heappush

from repro.sim.engine import _ARGS, _CALLBACK, _TIME, Simulator

N_EVENTS = 50_000

#: Interleaved timing rounds for the paired overhead comparison.
BEST_OF = 7

#: Allowed tracing-off overhead on the dispatch workload.
MAX_OVERHEAD = 0.02


class _PreInstrumentationSimulator(Simulator):
    """Replica whose ``run()`` is the pre-observability dispatch loop.

    Everything else (scheduling, the heap layout, cancellation) is
    inherited, so a paired timing against the shipped class isolates
    exactly what the instrumentation refactor added to the hot loop.
    """

    def run(self, until=None, max_events=None) -> None:
        heap = self._heap
        pop = heappop
        push = heappush
        stop = float("inf") if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        dispatched = 0
        self._running = True
        try:
            while heap:
                entry = pop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    self._stale -= 1
                    continue
                event_time = entry[_TIME]
                if event_time > stop:
                    push(heap, entry)
                    self.now = stop
                    return
                self.now = event_time
                entry[_CALLBACK] = None
                callback(*entry[_ARGS])
                dispatched += 1
                if dispatched >= budget:
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            self.events_dispatched += dispatched


def _dispatch_workload(sim_cls) -> float:
    """A self-rescheduling chain whose callbacks carry two arguments;
    returns elapsed seconds."""
    sim = sim_cls(seed=1)
    counter = [0]

    def tick(step, payload):
        counter[0] += 1
        if counter[0] < N_EVENTS:
            sim.call_later(0.001, tick, step + 1, payload)

    sim.call_later(0.001, tick, 0, "x")
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert counter[0] == N_EVENTS
    return elapsed


def test_tracing_off_overhead_within_two_percent():
    """Shipped dispatch loop vs the historical replica, paired best-of-K.

    Interleaving the rounds (A, B, A, B, ...) and taking each side's
    best keeps the comparison immune to one-sided frequency drift; the
    2% bound is the acceptance criterion of the observability layer.
    """
    _dispatch_workload(Simulator)  # warm both code paths
    _dispatch_workload(_PreInstrumentationSimulator)
    shipped = min(_dispatch_workload(Simulator) for _ in range(BEST_OF))
    replica = min(_dispatch_workload(_PreInstrumentationSimulator)
                  for _ in range(BEST_OF))
    overhead = shipped / replica - 1.0
    assert overhead <= MAX_OVERHEAD, (
        f"tracing-off dispatch overhead {overhead:.2%} exceeds "
        f"{MAX_OVERHEAD:.0%} (shipped {shipped * 1e3:.2f} ms vs "
        f"replica {replica * 1e3:.2f} ms best-of-{BEST_OF})")
