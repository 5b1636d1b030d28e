"""repro.live — the PELS stack over real UDP sockets and a wall clock.

Everything else in this repository runs inside the discrete-event
simulator; this package is the second leg the paper's own evaluation
methodology implies: the same controllers (Eq. 8 MKC, Eq. 4 gamma), the
same Eq. 11 virtual-loss feedback and the same tri-color strict-priority
AQM, but executed on real-time timers against ``time.monotonic`` with
datagrams crossing real loopback sockets.  Every live process — the
loopback session, the load generator, each router shard — is driven by
one :class:`~repro.core.clock.SelectorClock` (a timer heap and a
selector; no module here imports asyncio); on a
:class:`~repro.sim.engine.Simulator` clock the same components run in
virtual time, no socket needed.  If the equations only held
under the simulator's perfectly punctual timers, they would be a
modelling artifact; ``LiveSessionResult.score`` — the ``L1`` checks,
which L1 runs on simulated time — shows the wall-clock equilibrium
lands on the Lemma 6 oracle anyway.

Topology (one process, three UDP endpoints on 127.0.0.1)::

    LiveServer ──data──▶ LiveRouter ──data──▶ LiveClient
        ▲                                          │
        └────────────── ACKs (direct) ◀────────────┘

* :mod:`~repro.live.wire` — the struct-packed binary header carrying
  flow id, seq, color and the ``(router_id, z, p)`` feedback label.
* :mod:`~repro.live.router` — userspace software router: tri-color
  strict-priority PELS queue + Internet FIFO under deficit WRR,
  token-bucket capacity pacing, Eq. 11 label stamping every T wall
  seconds (via the clock-free
  :class:`~repro.core.feedback.FeedbackComputer`).
* :mod:`~repro.live.server` — wall-clock driver of the simulator's own
  :class:`~repro.core.flow.FlowSender` per flow: a credit pacer stepped
  by ``LiveServer.advance`` and an ACK intake that rejects labels no
  router can emit.
* :mod:`~repro.live.client` — feeds each flow's
  :class:`~repro.core.flow.FlowReceiver` (per-color one-way delay,
  frame receptions for offline PSNR reconstruction) and echoes every
  packet's label back to the server.
* :mod:`~repro.live.session` — assembles the three once and runs them
  over loopback sockets for a wall-clock duration, or on a pure-delay
  :class:`~repro.core.clock.SimNet` on a ``Simulator``; either run
  reads back as a :class:`~repro.core.report.SessionReport`.

The reverse (ACK) path deliberately bypasses the router, mirroring the
simulator's uncongested-reverse-path model (DESIGN.md §5).

Above the single-session stack sits the *gateway tier*, which scales
the same machinery to hundreds–thousands of concurrent flows:

* :mod:`~repro.live.gateway` — per-tenant admission control (token-
  bucket registration rate, concurrency caps, per-shard capacity
  budgets) and stable hashing of admitted flows onto the shard pool.
* :mod:`~repro.live.shard` — router shard processes: one
  :class:`LiveRouter` + bottleneck per ``core/proc.py`` child,
  control over a pipe (one ``apply_control``), data over the shard's
  own UDP socket; ``SimulatedShard`` is the same handle with its child
  in-process on a ``SimNet``.
* :mod:`~repro.live.loadgen` — the load generator: registers a flow
  population, streams it from one server (one pacer wheel), and
  measures goodput / delay percentiles / CPU per flow against the
  Lemma 6 oracle, over sockets and shard processes (``run_load``,
  ``pels gateway``, L3) or on simulated time (``simulate_load``, L2).
* :mod:`~repro.live.supervisor` — the self-healing layer (L3): shard
  health checks over pipe heartbeats, crash/hang failover with flow
  re-homing onto a fresh ``router_id``, and layered overload shedding
  (red, then yellow — never green).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".client": "LiveClient",
    ".gateway": "AdmissionDecision LiveGateway TenantPolicy TokenBucket",
    ".loadgen": "LoadConfig LoadResult run_load simulate_load",
    ".router": "LiveRouter",
    ".server": "LiveServer",
    ".session": "LiveConfig LiveSessionResult run_live_session",
    ".shard": "RouterShard ShardConfig ShardStats SimulatedShard",
    ".supervisor": "FailoverRecord ShardSupervisor SupervisorConfig",
    ".wire": "HEADER_SIZE LivePacket WireFormatError decode_packet "
             "encode_packet",
})
