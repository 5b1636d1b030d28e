"""Service layer: a long-running control plane over the experiment fleet.

``pels serve`` wraps the one-shot experiment runner and the live stack
in an operable service: jobs are submitted over HTTP, queued in
persistent storage, executed by a pool of worker processes (heartbeats,
stale-job requeue, crash isolation), their ``obs`` metric snapshots
streamed to subscribed clients while they run, and their artifacts kept
in a pluggable storage backend for later fetching and baseline
comparison.

Modules:

* :mod:`repro.service.storage` — ``StorageBackend`` protocol and the
  filesystem JSON backend (atomic writes, O_EXCL claims).
* :mod:`repro.service.queue` — persistent job queue and state machine
  (``queued -> running -> done/failed/cancelled``).
* :mod:`repro.service.worker` — worker processes pulling from the
  shared queue; jobs execute in disposable child processes.
* :mod:`repro.service.stream` — minimal RFC 6455 WebSocket framing and
  the live job-stream tail.
* :mod:`repro.service.api` — HTTP API + service orchestrator, served by
  one :class:`~repro.core.clock.SelectorClock` (no asyncio).
* :mod:`repro.service.client` — thin blocking client used by
  ``pels submit``/``status``/``artifacts`` and the tests.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".queue": "JOB_STATES Job JobQueue",
    ".storage": "FileStorage StorageBackend TERMINAL_STATES",
})
