"""Scriptable fault injection for the simulator *and* the live stack.

``FaultSchedule`` + the injector taxonomy let experiments impair a
running simulation — link cuts and capacity renegotiation, router
restarts that wipe the Eq. 11 feedback state, reverse-path ACK loss
and reordering, route flips, and flow churn — without forking any
simulation component.  The R1 chaos experiment
(:mod:`repro.experiments.chaos`) and the fault-model section of
``docs/architecture.md`` document the semantics; determinism under a
fixed seed is pinned by the run-boundary tests.

:mod:`repro.faults.live` extends the same schedules to the live
gateway: :class:`AsyncFaultDriver` satisfies the installer's ``sim``
protocol over a live clock's timers, and the live injectors (ShardKill,
ShardStall, SocketBlackhole) hit shard children and sockets — the L3
chaos experiment drives them against the supervised gateway on
simulated time, ``pels gateway --chaos`` against shard processes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".injectors": "AckLoss AckReorder Callback FlowJoin FlowLeave "
                  "LinkCapacity LinkDown LinkFlap LinkUp RouteFlip "
                  "RouterRestart",
    ".live": "AsyncFaultDriver ShardKill ShardStall SocketBlackhole",
    ".schedule": "Fault FaultEvent FaultSchedule",
})
