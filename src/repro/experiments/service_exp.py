"""SV1 — service-fleet integration: mixed batch, worker kill, identical artifacts.

Stands up a real 3-worker :mod:`repro.service` fleet (the API's clock on
a background thread, worker processes against a temp storage directory),
submits a mixed batch over HTTP — the A4 meta-control ablation, the S2
capacity sweep and the L2 live-gateway load experiment — and SIGKILLs
the worker running A4 mid-job.  The scenario then asserts the fleet's
whole contract at once:

* **no lost jobs**: every job reaches ``done``; the killed worker's job
  is requeued (worker-death burns a requeue, not a retry) and completes
  on a surviving or respawned worker; the pool is back to 3 workers.
* **artifact fidelity**: each service-produced artifact is the same
  as direct ``runner`` execution of the experiment, as
  ``compare.diverging`` reads ``runner.HOST_FACTS``: A4 byte-equal but
  for ``wall_time``, S2 but for its declared host-fact metric families
  (``wall_s_*``/``epochs_per_s_*``/``peak_rss_bytes_*``); L2 drives a
  live wall-clock gateway, so it is checked for completion and its key,
  not byte equality.
* **stream fidelity**: each job's streamed ``metrics`` events carry
  exactly the ``--metrics-out`` JSONL line(s) of its final artifact,
  and the simulation-backed A4 job streamed live epoch snapshots.

Any violated assertion raises, so the runner reports SV1 as a
structured FAILED artifact and exits non-zero — this is the CI smoke
for the whole service layer.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core import proc
from .common import ExperimentResult

if TYPE_CHECKING:  # the service (sockets, http) loads when SV1 runs
    from ..service.api import ExperimentService, ServiceConfig
    from ..service.client import ServiceClient

__all__ = ["run", "BATCH", "KILL_TARGET"]

#: The mixed batch: a PelsSimulation ablation (long, snapshot-rich), a
#: fluid-engine sweep (fast, wall-clock metrics) and a live gateway run
#: (multi-process, inherently nondeterministic timing).
BATCH: Tuple[str, ...] = ("A4", "S2", "L2")

#: The job whose worker gets SIGKILLed mid-run — A4 is the longest
#: deterministic job in the batch, so the kill lands well inside it.
KILL_TARGET = "A4"

class _Fleet:
    """A live service instance whose clock runs on a background thread.

    The service starts (and its workers fork) on the entering thread;
    leaving writes one byte to a socketpair whose other end the clock
    reads, which stops the clock, and then stops the service.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service: Optional[ExperimentService] = None
        self._thread: Optional[threading.Thread] = None
        self._wakeup: Tuple = ()

    def __enter__(self) -> "_Fleet":
        import socket

        from ..service.api import ExperimentService
        service = ExperimentService(self.config).start()
        self.service = service
        self._wakeup = socket.socketpair()
        service.clock.add_reader(self._wakeup[1].fileno(),
                                 service.clock.stop)
        self._thread = threading.Thread(target=service.clock.run,
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._wakeup[0].send(b"\0")
            self._thread.join(timeout=30.0)
        if self.service is not None:
            self.service.stop()
            self.service.clock.close()
        for end in self._wakeup:
            end.close()

    @property
    def port(self) -> int:
        assert self.service is not None
        return self.service.port

    def worker_pid(self, worker_id: str) -> Optional[int]:
        assert self.service is not None
        worker = self.service.workers.get(worker_id)
        return None if worker is None else worker.pid


def _direct_run(key: str, fast: bool) -> dict:
    from .export import result_to_dict
    from .runner import _run_one
    return result_to_dict(_run_one(key, fast))


def _run_direct(key: str, fast: bool) -> dict:
    """Direct runner execution of ``key``; returns the exported dict.

    In a fresh child, mirroring the service's execution context, so the
    comparison is service-vs-runner, not service-vs-whatever-state this
    process accumulated.
    """
    outcome = proc.run_task(_direct_run, (key, fast))
    if outcome.kind != "ok":
        raise RuntimeError(
            f"direct run of {key} died (exitcode {outcome.exitcode})")
    return outcome.value


def _kill_worker_mid_job(fleet: _Fleet, client: ServiceClient,
                         deadline_s: float) -> Tuple[str, str]:
    """SIGKILL the worker running the KILL_TARGET job; returns
    (job_id, worker_id) of the victim."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        for record in client.jobs(state="running"):
            if record["params"].get("key") != KILL_TARGET:
                continue
            worker_id = record.get("worker") or ""
            pid = fleet.worker_pid(worker_id)
            if pid is None:
                break  # claimed by a worker we cannot see yet; re-poll
            # Let the claim turn into an actual executing child before
            # pulling the trigger, so the kill lands mid-experiment.
            time.sleep(1.0)
            os.kill(pid, signal.SIGKILL)
            return record["job_id"], worker_id
        time.sleep(0.05)
    raise RuntimeError(
        f"{KILL_TARGET} never observed running within {deadline_s:.0f}s; "
        f"cannot stage the worker kill")


def _collect_stream(client: ServiceClient, job_id: str,
                    timeout: float) -> List[dict]:
    return list(client.stream(job_id, timeout=timeout))


def run(fast: bool = False) -> ExperimentResult:
    import tempfile

    from ..service.api import ServiceConfig
    from ..service.client import ServiceClient

    result = ExperimentResult(
        experiment_id="SV1",
        title="service fleet: mixed batch survives a worker kill with "
              "runner-identical artifacts")
    wait_budget = 600.0 if fast else 7200.0
    problems: List[str] = []

    with tempfile.TemporaryDirectory(prefix="pels-sv1-") as storage_dir:
        config = ServiceConfig(storage_dir=storage_dir, workers=3, port=0,
                               heartbeat_timeout=1.5, sweep_interval=0.25)
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port)
            submitted = client.submit(
                [{"key": key, "fast": fast} for key in BATCH])
            by_key = {rec["params"]["key"]: rec["job_id"]
                      for rec in submitted}

            victim_job, victim_worker = _kill_worker_mid_job(
                fleet, client, deadline_s=60.0)
            if victim_job != by_key[KILL_TARGET]:
                problems.append(
                    f"killed worker of job {victim_job}, expected "
                    f"{by_key[KILL_TARGET]}")

            final = client.wait(list(by_key.values()), timeout=wait_budget)
            health = client.health()
            streams = {key: _collect_stream(client, job_id, wait_budget)
                       for key, job_id in by_key.items()}
            artifacts = {key: client.artifact(job_id)
                         for key, job_id in by_key.items()}

    # -- fleet-behaviour assertions (service has been torn down) -----------
    records = {key: final[job_id] for key, job_id in by_key.items()}
    for key, record in records.items():
        if record["state"] != "done":
            problems.append(f"{key} finished {record['state']!r} "
                            f"(error: {record.get('error')})")
    victim = records[KILL_TARGET]
    if victim["requeues"] < 1:
        problems.append(f"{KILL_TARGET} survived the worker kill without "
                        f"a requeue (requeues={victim['requeues']})")
    if victim["attempts"] < 2:
        problems.append(f"{KILL_TARGET} completed in {victim['attempts']} "
                        f"attempt(s) despite the kill")
    for key in BATCH:
        if key != KILL_TARGET and records[key]["requeues"] != 0:
            problems.append(f"{key} was requeued (requeues="
                            f"{records[key]['requeues']}) but its worker "
                            f"was never killed")
    alive = sum(1 for w in health["workers"].values() if w["alive"])
    if alive != 3:
        problems.append(f"pool not respawned: {alive}/3 workers alive "
                        f"at completion")

    # -- artifact fidelity vs direct runner execution -----------------------
    from .compare import diverging
    from .export import metrics_jsonl_lines, result_from_dict
    from .runner import HOST_FACTS

    live = {key for key in BATCH if HOST_FACTS.get(key, ()) is None}
    direct = [{"experiment_id": key} if key in live
              else _run_direct(key, fast) for key in BATCH]
    problems.extend(f"{line} (service vs direct runner)" for line in
                    diverging([artifacts[key] for key in BATCH], direct))

    # -- stream fidelity ----------------------------------------------------
    stream_match: Dict[str, str] = {}
    snapshot_counts: Dict[str, int] = {}
    for key in BATCH:
        events = streams[key]
        snapshot_counts[key] = sum(1 for e in events
                                   if e.get("type") == "snapshot")
        streamed = [e["line"] for e in events if e.get("type") == "metrics"]
        expected = list(
            metrics_jsonl_lines([result_from_dict(artifacts[key])]))
        stream_match[key] = "yes" if streamed == expected else "NO"
        if streamed != expected:
            problems.append(f"{key} streamed metrics lines differ from "
                            f"its artifact's --metrics-out JSONL")
        states = [e["state"] for e in events if e.get("type") == "state"]
        if states[:1] != ["running"] or states[-1:] != ["done"]:
            problems.append(f"{key} stream state sequence {states!r} "
                            f"(stream must cover exactly the final "
                            f"attempt, running -> done)")
    if snapshot_counts[KILL_TARGET] < 1:
        problems.append(f"{KILL_TARGET} streamed no live epoch snapshots")

    if problems:
        raise RuntimeError("SV1 service contract violated:\n  - " +
                           "\n  - ".join(problems))

    result.add_table(
        ["job", "state", "attempts", "requeues", "artifact", "stream"],
        [[key, records[key]["state"], records[key]["attempts"],
          records[key]["requeues"], "live" if key in live else "yes",
          stream_match[key]]
         for key in BATCH],
        title="SV1: 3-worker fleet, SIGKILL of the A4 worker mid-job")
    result.note(f"worker {victim_worker} was SIGKILLed while running "
                f"{KILL_TARGET}; the stale-heartbeat sweep requeued the "
                f"job and a surviving/respawned worker completed it")
    result.note("artifacts compared by compare.diverging under "
                "runner.HOST_FACTS: S2 but for its host-fact metric "
                "families, L2 (live wall-clock gateway) by key only")
    result.metrics["jobs_done"] = float(
        sum(1 for r in records.values() if r["state"] == "done"))
    result.metrics["victim_requeues"] = float(victim["requeues"])
    result.metrics["victim_attempts"] = float(victim["attempts"])
    result.metrics["workers_alive_at_end"] = float(alive)
    result.metrics["artifacts_identical"] = float(len(BATCH) - len(live))
    result.metrics["streams_matching"] = float(
        sum(1 for v in stream_match.values() if v == "yes"))
    result.metrics["snapshots_streamed_A4"] = float(
        snapshot_counts[KILL_TARGET])
    return result


if __name__ == "__main__":  # pragma: no cover - manual smoke
    print(run(fast=True).render())
    print(json.dumps({"ok": True}))
