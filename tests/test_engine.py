"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import Process, SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self, sim):
        fired = []
        for tag in range(10):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, fired.append, "x"))
        fired = []
        sim.run()
        assert sim.now == 5.0

    def test_events_scheduled_during_run_are_dispatched(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending() == 1

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0


class TestRunLimits:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0

    def test_run_until_resumable(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_idle(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_limit(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_events_dispatched_counter(self, sim):
        for i in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 5


class TestRunBoundaries:
    """Re-entrant run(until=...)/max_events semantics at the edges."""

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "edge")
        sim.run(until=3.0)
        assert fired == ["edge"]
        assert sim.now == 3.0

    def test_event_past_until_is_requeued_not_lost(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run(until=3.0)
        assert fired == []
        assert sim.pending() == 1
        sim.run()
        assert fired == ["later"]
        assert sim.now == 5.0

    def test_requeued_boundary_event_fires_exactly_once(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "x")
        # The first run pops the event, sees it is past the horizon and
        # pushes it back; repeated horizon runs must not duplicate it.
        sim.run(until=1.0)
        sim.run(until=2.0)
        sim.run(until=9.0)
        sim.run()
        assert fired == ["x"]

    def test_clock_never_moves_backwards_across_runs(self, sim):
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.schedule(1.0, lambda: None)  # t = 5.0
        sim.run()
        assert sim.now == 5.0

    def test_max_events_resumable_preserves_order(self, sim):
        fired = []
        for i in range(6):
            sim.schedule(1.0, fired.append, i)  # all simultaneous
        sim.run(max_events=2)
        assert fired == [0, 1]
        sim.run(max_events=3)
        assert fired == [0, 1, 2, 3, 4]
        sim.run()
        assert fired == list(range(6))
        assert sim.events_dispatched == 6

    def test_max_events_leaves_clock_at_last_dispatch(self, sim):
        for i in range(4):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=2)
        assert sim.now == 2.0

    def test_until_and_max_events_combine(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(until=3.5, max_events=2)
        assert fired == [0, 1]
        sim.run(until=3.5)
        assert fired == [0, 1, 2]
        assert sim.now == 3.5

    def test_handle_free_and_handle_events_interleave_in_order(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.call_later(1.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "c")
        sim.call_at(1.0, fired.append, "d")
        sim.run()
        assert fired == ["a", "b", "c", "d"]

    def test_call_later_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_later(-0.5, lambda: None)

    @pytest.mark.parametrize("entry", ["schedule", "call_later",
                                       "schedule_at", "call_at"])
    def test_nan_time_rejected(self, sim, entry):
        # NaN compares false against everything: it slipped past a
        # ``delay < 0`` guard and unordered the heap without an error.
        sim.call_later(1.0, lambda: None)
        with pytest.raises(SimulationError):
            getattr(sim, entry)(float("nan"), lambda: None)
        assert sim.pending() == 1


class TestCancellationDrain:
    """Lazy deletion plus the eager compaction of mostly-stale heaps."""

    def test_mass_cancel_triggers_drain_and_keeps_survivors(self, sim):
        fired = []
        doomed = [sim.schedule(1.0, fired.append, i) for i in range(500)]
        keep = sim.schedule(2.0, fired.append, "keep")
        for event in doomed:
            event.cancel()
        # The eager drain must have compacted the heap (well under the
        # 501 entries scheduled) while keeping the live event.
        assert sim.pending() == 1
        assert len(sim._heap) < 100
        sim.run()
        assert fired == ["keep"]

    def test_cancel_and_rearm_per_event_keeps_heap_bounded(self, sim):
        """The TCP retransmit-timer pattern: every event cancels the
        pending long timer and arms a new one, so a stale entry arrives
        with each event; the drain must keep the heap compact all run
        long, not only after a one-off mass cancel."""
        n_events = 20_000
        fired = [0]
        peak = [0]
        pending = [sim.schedule(10.0, lambda: None)]

        def tick():
            fired[0] += 1
            peak[0] = max(peak[0], len(sim._heap))
            pending[0].cancel()
            if fired[0] < n_events:
                pending[0] = sim.schedule(10.0, lambda: None)
                sim.call_later(0.001, tick)

        sim.call_later(0.001, tick)
        sim.run()
        assert fired[0] == n_events
        # 10 s timers re-armed every 1 ms: without the drain ~10,000
        # stale entries would sit in the heap at once.
        assert peak[0] < 4096
        assert sim.pending() == 0

    def test_pending_is_exact_through_cancel_and_dispatch(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        events[3].cancel()
        events[7].cancel()
        assert sim.pending() == 8
        sim.run(max_events=4)
        assert sim.pending() == 4
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_fire_is_noop(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()  # already fired: must not corrupt accounting
        assert fired == ["x"]
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_cancel_future_event_from_callback(self, sim):
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.schedule(3.0, fired.append, "after")
        sim.run()
        assert fired == ["after"]

    def test_peek_time_pops_stale_heads(self, sim):
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        first.cancel()
        second.cancel()
        assert sim.peek_time() == 3.0
        assert sim.pending() == 1
        assert len(sim._heap) == 1


class TestDeterminism:
    def test_same_seed_same_random_stream(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.rng.random() for _ in range(5)] == \
               [b.rng.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert a.rng.random() != b.rng.random()


class TestPeriodicTimer:
    def test_fires_every_period(self, sim):
        ticks = []
        proc = Process(sim, "p")
        proc.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_custom_start_delay(self, sim):
        ticks = []
        proc = Process(sim, "p")
        proc.every(1.0, lambda: ticks.append(sim.now), start_delay=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_halts_timer(self, sim):
        ticks = []
        proc = Process(sim, "p")
        timer = proc.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_inside_callback(self, sim):
        ticks = []
        proc = Process(sim, "p")

        def cb():
            ticks.append(sim.now)
            if len(ticks) == 2:
                timer.stop()

        timer = proc.every(1.0, cb)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_nonpositive_period_rejected(self, sim):
        proc = Process(sim, "p")
        with pytest.raises(SimulationError):
            proc.every(0.0, lambda: None)
