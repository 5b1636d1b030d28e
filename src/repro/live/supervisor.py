"""Shard supervision: health checks, failover, layered shedding.

The gateway (PR 7) made the router tier horizontally scalable; this
module makes it survive its own machines.  A :class:`ShardSupervisor`
polls every shard slot on a fixed cadence and reacts to three distinct
failure signatures:

**crash** — the child process exited (``exitcode`` set / ``alive``
false).  The supervisor closes the slot (registrations hashing there
reject ``shard_down``), spawns a replacement with a **fresh**
``router_id``, bulk re-installs the surviving flows' routes via
:meth:`~repro.live.gateway.LiveGateway.replace_shard`, and re-targets
each sender at the new socket.  The fresh router id is load-bearing:
the per-flow :class:`~repro.core.feedback.FeedbackTracker` adopts a new
router id's epoch clock immediately (the Section 5.2 bottleneck-shift
rule), so controllers resynchronize on the first label from the
replacement instead of discarding it as a stale epoch.

**hang** — the process is alive but not answering pipe heartbeats
(SIGSTOP, a wedged event loop).  Detected by pong age against
``hang_timeout``; treated as a crash, except the old process must be
SIGKILLed first (SIGTERM stays pending on a stopped process forever).

**overload** — CPU utilization (CPU-seconds deltas between
consecutive stats snapshots) above threshold.  Only CPU counts: a full,
dropping red queue is PELS's operating point, not overload — the
gamma controller (Eq. 4, Lemma 4) drives red loss to ``p_thr`` on
every healthy bottleneck.  The response is *layered shedding*, the
paper's degradation policy applied to the operational plane: escalate
the shard's in-router shed level (red first, then yellow — green
base-layer traffic is never shed) and close the slot to new admissions
with ``shard_overloaded``; de-escalate level by level once the shard
runs calm again.

Everything decision-shaped lives in the synchronous :meth:`tick` so
tier-1 tests drive the whole state machine with fake shards and a
:class:`~repro.core.clock.ManualClock`; :meth:`start` merely arms a
timer on the clock that calls ``tick`` on the poll cadence.  A slot's
handle is a :class:`~repro.live.shard.RouterShard` or anything with its
supervision surface (``poll_messages``, ``exitcode``, ``alive``,
``last_pong``, ``ping``, ``request_stats``, ``last_stats``,
``set_shed_level``, ``kill``, ``respawn``): a replacement is the old
handle's ``respawn``, so it runs where the old one ran — a forked
process, or a router on the same simulated net.  Obs instruments
(failover-latency histogram, per-slot state gauges, shed-bytes
counters) attach only when a metrics registry is active, as everywhere
else in the repo.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.clock import Clock
from ..obs.metrics import current_registry
from .gateway import (REASON_SHARD_DOWN, REASON_SHARD_OVERLOADED,
                      LiveGateway)
from .shard import ShardStats

__all__ = ["SupervisorConfig", "FailoverRecord", "ShardSupervisor",
           "STATE_HEALTHY", "STATE_OVERLOADED", "STATE_STALLED",
           "STATE_RESTARTING", "STATE_FAILED", "STATE_GAUGE"]

STATE_HEALTHY = "healthy"
STATE_OVERLOADED = "overloaded"
STATE_STALLED = "stalled"
STATE_RESTARTING = "restarting"
STATE_FAILED = "failed"

#: Numeric encoding for the per-slot state gauge.
STATE_GAUGE = {STATE_HEALTHY: 0, STATE_OVERLOADED: 1, STATE_STALLED: 2,
               STATE_RESTARTING: 3, STATE_FAILED: 4}

#: Histogram bounds for failover latency (seconds) — the acceptance
#: bar is 2 s, so the buckets resolve well below it.
_FAILOVER_BOUNDS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

_SHED_COLOR_NAMES = ("green", "yellow", "red", "best_effort")


#: CPU utilization at/above which a poll counts as hot, and at/below
#: which it counts as calm.
OVERLOAD_UTILIZATION = 0.90
RECOVER_UTILIZATION = 0.70
#: Consecutive hot (calm) polls before the shed level escalates
#: (de-escalates).
OVERLOAD_POLLS = 2
RECOVER_POLLS = 2
#: Restarts per slot before the supervisor gives up (slot stays closed
#: ``shard_down`` and is marked failed).
MAX_RESTARTS = 3


@dataclass
class SupervisorConfig:
    """Cadence of the supervision loop."""

    #: Seconds between ticks of the poll timer.
    poll_interval: float = 0.25
    #: Pong age (seconds) past which an alive shard counts as hung.
    #: Must comfortably exceed ``poll_interval`` — a healthy pong is
    #: one poll old by construction.
    hang_timeout: float = 1.2


@dataclass
class FailoverRecord:
    """One completed (or abandoned) failover, for reports and asserts."""

    slot: int
    old_shard_id: int
    new_shard_id: Optional[int]
    cause: str  # "crash" | "stall"
    detected_at: float
    completed_at: float
    flows_rehomed: int

    @property
    def latency(self) -> float:
        return self.completed_at - self.detected_at

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "latency": self.latency}


@dataclass
class _SlotState:
    state: str = STATE_HEALTHY
    #: Echo timestamp of the newest pong (None before the first).
    last_pong: Optional[float] = None
    #: When the first heartbeat went out (grace reference until a pong).
    first_ping: Optional[float] = None
    hot_polls: int = 0
    calm_polls: int = 0
    shed_level: int = 0
    #: The last forced level: calm polls de-escalate no further.
    shed_floor: int = 0
    restarts: int = 0
    utilization: float = 0.0
    send_errors: int = 0
    #: The snapshot the previous evaluation read (None since a restart):
    #: utilization and shed bytes are deltas against it.
    prev: Optional[ShardStats] = None


class ShardSupervisor:
    """Health-check, fail over and shed for a gateway's shard pool.

    Parameters
    ----------
    clock:
        Time source for pong ages and failover latency (a
        :class:`~repro.core.clock.ManualClock` in tier-1 tests).
    gateway:
        The :class:`~repro.live.gateway.LiveGateway` whose slots are
        supervised; the supervisor closes/opens slots and swaps
        replacement handles in via ``replace_shard``.
    config:
        Cadence; see :class:`SupervisorConfig`.
    retarget:
        ``(flow_id, addr) -> None`` — called for every re-homed flow so
        the sender re-aims its datagrams (``LiveServer.retarget_flow``
        in the live stack).  Optional.
    on_spawn:
        Called with every replacement handle the supervisor creates, so
        the owner of the process tree (``run_load``) can guarantee
        teardown even for shards born mid-run.  Optional.
    """

    def __init__(self, clock: Clock, gateway: LiveGateway,
                 config: Optional[SupervisorConfig] = None,
                 retarget: Optional[Callable[[int, tuple], None]] = None,
                 on_spawn: Optional[Callable] = None) -> None:
        self.clock = clock
        self.gateway = gateway
        self.config = config or SupervisorConfig()
        self.retarget = retarget
        self.on_spawn = on_spawn
        self._slots: Dict[int, _SlotState] = {
            slot: _SlotState() for slot in range(len(gateway.shards))}
        self._next_shard_id = 1 + max(
            shard.shard_id for shard in gateway.shards)
        self.failovers: List[FailoverRecord] = []
        #: (time, slot, level) log of every shed-level change.
        self.shed_transitions: List[tuple] = []
        self.ticks = 0
        registry = current_registry()
        self._failover_hist = registry.histogram(
            "supervisor_failover_seconds", bounds=_FAILOVER_BOUNDS) \
            if registry is not None else None
        self._state_gauges = [
            registry.gauge(f"supervisor_state_slot{slot}")
            for slot in range(len(gateway.shards))] \
            if registry is not None else None
        self._shed_counters = [
            registry.counter(f"live_shed_bytes_{name}")
            for name in _SHED_COLOR_NAMES] \
            if registry is not None else None
        self._running = False

    # -- poll timer (a clock timer over the synchronous tick) --------------

    def start(self) -> None:
        """Arm the poll timer (call once); the first tick is the next
        thing the clock runs."""
        if self._running:
            raise RuntimeError("supervisor already started")
        self._running = True
        self.clock.call_later(0.0, self._poll)

    def _poll(self) -> None:
        if self._running:
            self.tick(self.clock.now)
            self.clock.call_later(self.config.poll_interval, self._poll)

    def stop(self) -> None:
        """Stop polling; an armed poll fires into a no-op."""
        self._running = False

    # -- the state machine -------------------------------------------------

    def tick(self, now: float) -> None:
        """One supervision pass over every slot (synchronous)."""
        self.ticks += 1
        for slot in range(len(self.gateway.shards)):
            self._tick_slot(slot, now)

    def _tick_slot(self, slot: int, now: float) -> None:
        state = self._slots[slot]
        if state.state == STATE_FAILED:
            return
        shard = self.gateway.shards[slot]
        shard.poll_messages()

        # Crash: the process is gone.
        if shard.exitcode is not None or not shard.alive:
            self.failover(slot, "crash", now)
            return

        # Hang: alive but silent past the pong deadline.
        if shard.last_pong is not None:
            state.last_pong = shard.last_pong
        reference = state.last_pong if state.last_pong is not None \
            else state.first_ping
        if reference is not None and \
                now - reference > self.config.hang_timeout:
            state.state = STATE_STALLED
            self._set_gauge(slot, state)
            self.failover(slot, "stall", now)
            return

        # Next heartbeat + stats request (replies land next tick).
        if shard.ping(now) and state.first_ping is None:
            state.first_ping = now
        shard.request_stats()

        if shard.last_stats is not None:
            self._evaluate_load(slot, shard, state, shard.last_stats)
        self._set_gauge(slot, state)

    # -- overload / shedding -----------------------------------------------

    def _evaluate_load(self, slot: int, shard, state: _SlotState,
                       stats: ShardStats) -> None:
        prev = state.prev
        if prev is not None and stats.wall_seconds > prev.wall_seconds:
            state.utilization = (stats.cpu_seconds - prev.cpu_seconds) / \
                (stats.wall_seconds - prev.wall_seconds)
        state.send_errors = stats.send_errors
        self._account_shed(prev, stats)
        state.prev = stats

        if state.utilization >= OVERLOAD_UTILIZATION:
            state.hot_polls += 1
            state.calm_polls = 0
            if state.hot_polls >= OVERLOAD_POLLS:
                state.hot_polls = 0
                self._escalate(slot, shard, state)
        elif state.utilization <= RECOVER_UTILIZATION:
            state.calm_polls += 1
            state.hot_polls = 0
            if state.calm_polls >= RECOVER_POLLS:
                state.calm_polls = 0
                self._deescalate(slot, shard, state)
        else:
            state.hot_polls = 0
            state.calm_polls = 0

    def _account_shed(self, prev: Optional[ShardStats],
                      stats: ShardStats) -> None:
        if self._shed_counters is None:
            return
        for color, counter in enumerate(self._shed_counters):
            delta = stats.shed_bytes[color] - \
                (prev.shed_bytes[color] if prev is not None else 0)
            if delta > 0:
                counter.inc(delta)

    def _escalate(self, slot: int, shard, state: _SlotState) -> None:
        if state.shed_level >= 2:
            return
        self._apply_shed(slot, shard, state, state.shed_level + 1)

    def _deescalate(self, slot: int, shard, state: _SlotState) -> None:
        if state.shed_level <= state.shed_floor:
            return
        self._apply_shed(slot, shard, state, state.shed_level - 1)

    def _apply_shed(self, slot: int, shard, state: _SlotState,
                    level: int) -> None:
        state.shed_level = level
        shard.set_shed_level(level)
        self.shed_transitions.append((self.clock.now, slot, level))
        if level > 0:
            state.state = STATE_OVERLOADED
            self.gateway.close_shard(slot, REASON_SHARD_OVERLOADED)
        else:
            state.state = STATE_HEALTHY
            if self.gateway.shard_closed(slot) == REASON_SHARD_OVERLOADED:
                self.gateway.open_shard(slot)
        self._set_gauge(slot, state)

    def force_shed(self, slot: int, level: int) -> None:
        """Manually pin a slot's shed level (experiments, operators).

        The level is a floor until the next ``force_shed`` or a
        failover of the slot: hot polls may still escalate above it,
        calm polls step back down to it and no further."""
        state = self._slots[slot]
        state.shed_floor = level
        self._apply_shed(slot, self.gateway.shards[slot], state, level)
        state.calm_polls = 0
        state.hot_polls = 0

    # -- failover ----------------------------------------------------------

    def failover(self, slot: int, cause: str,
                 now: Optional[float] = None) -> Optional[FailoverRecord]:
        """Replace a dead/hung shard and re-home its flows.

        Returns the :class:`FailoverRecord`, or None when the slot has
        exhausted ``MAX_RESTARTS`` and is marked failed (closed to new
        admissions for good).
        """
        detected = self.clock.now if now is None else now
        state = self._slots[slot]
        old = self.gateway.shards[slot]
        old_id = old.shard_id
        self.gateway.close_shard(slot, REASON_SHARD_DOWN)
        old.kill()

        if state.restarts >= MAX_RESTARTS:
            state.state = STATE_FAILED
            self._set_gauge(slot, state)
            record = FailoverRecord(
                slot=slot, old_shard_id=old_id, new_shard_id=None,
                cause=cause, detected_at=detected,
                completed_at=self.clock.now, flows_rehomed=0)
            self.failovers.append(record)
            return None

        state.state = STATE_RESTARTING
        self._set_gauge(slot, state)
        new_id = self._next_shard_id
        self._next_shard_id += 1
        replacement = old.respawn(new_id)
        if self.on_spawn is not None:
            self.on_spawn(replacement)
        rehomed = self.gateway.replace_shard(slot, replacement)
        if self.retarget is not None:
            addr = replacement.addr
            for flow_id in rehomed:
                self.retarget(flow_id, addr)

        # The replacement starts clean: fresh feedback identity, no
        # shedding, heartbeat clock reset.
        state.restarts += 1
        state.shed_level = 0
        state.shed_floor = 0
        state.last_pong = None
        state.first_ping = None
        state.prev = None
        state.hot_polls = 0
        state.calm_polls = 0
        self.gateway.open_shard(slot)
        state.state = STATE_HEALTHY
        self._set_gauge(slot, state)

        record = FailoverRecord(
            slot=slot, old_shard_id=old_id, new_shard_id=new_id,
            cause=cause, detected_at=detected,
            completed_at=self.clock.now, flows_rehomed=len(rehomed))
        self.failovers.append(record)
        if self._failover_hist is not None:
            self._failover_hist.observe(record.latency)
        return record

    # -- introspection -----------------------------------------------------

    def _set_gauge(self, slot: int, state: _SlotState) -> None:
        if self._state_gauges is not None:
            self._state_gauges[slot].set(STATE_GAUGE[state.state])

    def slot_state(self, slot: int) -> str:
        return self._slots[slot].state

    def shed_level(self, slot: int) -> int:
        return self._slots[slot].shed_level

    def states(self) -> Dict[int, str]:
        return {slot: st.state for slot, st in self._slots.items()}

    def report(self) -> dict:
        """JSON-ready summary for load results and the CLI."""
        return {
            "ticks": self.ticks,
            "states": {slot: st.state for slot, st in self._slots.items()},
            "shed_levels": {slot: st.shed_level
                            for slot, st in self._slots.items()},
            "utilization": {slot: st.utilization
                            for slot, st in self._slots.items()},
            "send_errors": {slot: st.send_errors
                            for slot, st in self._slots.items()},
            "failovers": [record.to_dict() for record in self.failovers],
            "shed_transitions": list(self.shed_transitions),
        }
