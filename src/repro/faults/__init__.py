"""Scriptable fault injection for the simulator *and* the live stack.

``FaultSchedule`` + the injector taxonomy let experiments impair a
running simulation — link cuts and capacity renegotiation, router
restarts that wipe the Eq. 11 feedback state, reverse-path ACK loss
and reordering, route flips, and flow churn — without forking any
simulation component.  The R1 chaos experiment
(:mod:`repro.experiments.chaos`) and the fault-model section of
``docs/architecture.md`` document the semantics; determinism under a
fixed seed is pinned by the run-boundary tests.

:mod:`repro.faults.live` extends the same schedules to wall-clock
targets: :class:`AsyncFaultDriver` satisfies the installer's ``sim``
protocol over a live clock's timers, and the live injectors (ShardKill,
ShardStall, SocketBlackhole, RegistrationErrors) hit real shard
processes, sockets and the gateway control plane — the L3 chaos
experiment drives them against the supervised gateway.
"""

from .injectors import (AckLoss, AckReorder, Callback, FlowJoin, FlowLeave,
                        LinkCapacity, LinkDown, LinkFlap, LinkUp,
                        RouteFlip, RouterRestart)
from .live import (AsyncFaultDriver, RegistrationErrors, ShardKill,
                   ShardStall, SocketBlackhole)
from .schedule import Fault, FaultEvent, FaultSchedule

__all__ = [
    "Fault", "FaultEvent", "FaultSchedule",
    "LinkDown", "LinkUp", "LinkFlap", "LinkCapacity",
    "RouterRestart", "AckLoss", "AckReorder", "RouteFlip",
    "FlowLeave", "FlowJoin", "Callback",
    "AsyncFaultDriver", "ShardKill", "ShardStall",
    "SocketBlackhole", "RegistrationErrors",
]
