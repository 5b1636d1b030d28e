"""Asyncio HTTP API and service orchestrator (``pels serve``).

Stdlib-only HTTP on ``asyncio.start_server`` — requests are small JSON
documents, responses are JSON, and the one long-lived route
(``GET /jobs/<id>/stream``) upgrades to the WebSocket tail in
:mod:`repro.service.stream` or falls back to offset-based long-polling
for plain-HTTP clients.

Routes::

    GET  /healthz                 service + worker liveness, queue counts
    GET  /experiments             submittable registry keys + descriptions
    POST /jobs                    submit experiment jobs (single or batch)
    GET  /jobs[?state=S]          list job records
    GET  /jobs/<id>               one job record
    POST /jobs/<id>/cancel        cancel (immediate or cooperative)
    GET  /jobs/<id>/artifact      the stored result artifact
    GET  /jobs/<id>/stream        live stream (WebSocket or ?offset= poll)
    GET  /artifacts               artifact ids
    GET  /baselines               baseline names
    GET  /baselines/<name>        one baseline
    PUT  /baselines/<name>        store a baseline

:class:`ExperimentService` owns the rest of the control plane: it
recovers interrupted jobs from storage on start, spawns the worker
pool, requeues jobs whose workers stopped heartbeating, and respawns
dead workers — the queue/storage layer guarantees none of that loses
or duplicates work.

Only the socket layer is asyncio: ``start_server``,
:func:`_read_request`, ``_handle_connection`` with the WebSocket
upgrade, and :func:`serve`.  Routing is a plain function of the parsed
request, ``(status, payload)`` out; the upgrade is decided there as
status 101 and carried out by ``_handle_connection`` alone.  The
stale-job / dead-worker sweep is one synchronous pass, ``_sweep()``,
re-armed with the loop's ``call_later``.  Every timestamp comes from
the queue's clock, ``self.queue.now``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core import proc
from .queue import JOB_STATES, JobQueue
from .storage import FileStorage
from .stream import accept_key, stream_job
from .worker import pool_worker_main

__all__ = ["ServiceConfig", "ExperimentService", "serve"]

_MAX_BODY = 16 << 20
_MAX_HEADER = 64 << 10
#: Heartbeat cadence of the pool's workers (seconds).
WORKER_HEARTBEAT = 0.5


@dataclass
class ServiceConfig:
    """Knobs of one ``pels serve`` instance."""

    storage_dir: str
    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    #: Seconds of heartbeat silence before a running job is requeued.
    heartbeat_timeout: float = 2.0
    #: Cadence of the stale-job / dead-worker sweep.
    sweep_interval: float = 0.5
    #: Worker fallback rescan (forwarded to workers) — the service
    #: wakes idle workers itself when it makes a job claimable.
    worker_poll: float = 0.2

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.heartbeat_timeout <= 0 or self.sweep_interval <= 0:
            raise ValueError("timeouts must be positive")


def _response(status: int, payload: dict, *, reason: str = "") -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    reasons = {200: "OK", 201: "Created", 400: "Bad Request",
               404: "Not Found", 405: "Method Not Allowed",
               409: "Conflict", 413: "Payload Too Large",
               500: "Internal Server Error"}
    head = (f"HTTP/1.1 {status} {reason or reasons.get(status, '')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + body


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: (method, path, lowercase headers, body)."""
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > _MAX_HEADER:
        raise _HttpError(413, "header block too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        raise _HttpError(400, "Content-Length must be a non-negative "
                              "integer")
    if length > _MAX_BODY:
        raise _HttpError(413, f"body of {length} bytes exceeds limit")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _number(request: dict, name: str, cast, default):
    """``cast(request[name])``, ``default`` if absent or null; a
    value that is no number is the client's mistake (400), not the
    server's (500)."""
    value = request.get(name)
    if value is None:
        return default
    try:
        if isinstance(value, bool):
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise _HttpError(400, f"{name} must be a number, not {value!r}")


def _json_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise _HttpError(400, f"request body is not JSON: {exc}")
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return payload


class ExperimentService:
    """The long-running control plane: queue + workers + HTTP API."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.storage = FileStorage(config.storage_dir)
        self.queue = JobQueue(self.storage)
        self.workers: Dict[str, proc.Child] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._sweeper: Optional[asyncio.TimerHandle] = None
        self._worker_seq = 0
        self.started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ExperimentService":
        """Recover state, spawn the pool, bind the API socket."""
        recovered = self.queue.recover()
        for _ in range(self.config.workers):
            self._spawn_worker()
        if recovered:
            self._wake_workers()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self._sweeper = asyncio.get_running_loop().call_later(
            self.config.sweep_interval, self._sweep)
        self.started_at = self.queue.now()
        if recovered:
            # Visible on the serving side: interrupted attempts from a
            # previous incarnation went back to the queue.
            print(f"-- recovered {len(recovered)} interrupted job(s) "
                  f"from {self.config.storage_dir} --")
        return self

    async def stop(self) -> None:
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for worker in self.workers.values():
            worker.reap()
        self.workers.clear()

    def _spawn_worker(self) -> str:
        self._worker_seq += 1
        worker_id = f"w{self._worker_seq:03d}"
        # Non-daemonic: jobs spawn their own execution children.
        self.workers[worker_id] = proc.spawn(
            pool_worker_main,
            (self.config.storage_dir, worker_id,
             self.config.worker_poll, WORKER_HEARTBEAT),
            daemon=False, name=f"pels-worker-{worker_id}")
        return worker_id

    def _wake_workers(self) -> None:
        """Tell the pool a job became claimable: one token per worker,
        whatever the size of the batch.  ``Child.wake`` cannot block
        the event loop, and a worker that is busy or stopped keeps the
        token for its next look at the queue."""
        for worker in self.workers.values():
            worker.wake()

    def _sweep(self) -> None:
        """One pass: requeue stale jobs, replace workers that died.

        While the service runs the pass re-arms itself on the loop
        first, so a pass that raises still gets its successor.
        """
        if self._sweeper is not None:
            self._sweeper = asyncio.get_running_loop().call_later(
                self.config.sweep_interval, self._sweep)
        try:
            if self.queue.requeue_stale(self.config.heartbeat_timeout):
                self._wake_workers()
        except OSError:  # pragma: no cover - disk hiccup
            pass
        for worker_id, worker in list(self.workers.items()):
            if not worker.alive:
                del self.workers[worker_id]
                exitcode = worker.reap()
                replacement = self._spawn_worker()
                print(f"-- worker {worker_id} exited "
                      f"(exitcode {exitcode}); spawned "
                      f"{replacement} --")

    # -- HTTP --------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await _read_request(reader)
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ConnectionError):
                return
            except _HttpError as exc:
                status, payload = exc.status, {"error": exc.message}
            else:
                status, payload = self._route(*request)
            if status != 101:
                writer.write(_response(status, payload))
                await writer.drain()
                return
            # The one route that keeps the socket: the WebSocket tail.
            writer.write(
                b"HTTP/1.1 101 Switching Protocols\r\n"
                b"Upgrade: websocket\r\n"
                b"Connection: Upgrade\r\n"
                b"Sec-WebSocket-Accept: "
                + payload["accept"].encode() + b"\r\n\r\n")
            await writer.drain()
            await stream_job(reader, writer, self.storage, self.queue,
                             payload["job_id"], offset=payload["offset"])
        except (ConnectionError, BrokenPipeError):
            pass
        except Exception as exc:  # noqa: BLE001 - API must not die
            try:
                writer.write(_response(500, {
                    "error": f"{type(exc).__name__}: {exc}"}))
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    def _route(self, method: str, target: str, headers: Dict[str, str],
               body: bytes) -> Tuple[int, dict]:
        """One parsed request in, ``(status, payload)`` out.

        Status 101 is the WebSocket upgrade of a job's stream: its
        payload names the job, the offset and the accept key, and the
        socket layer does the rest.
        """
        path, _, query_text = target.partition("?")
        query: Dict[str, str] = {}
        for pair in query_text.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value
        parts = [p for p in path.split("/") if p]
        try:
            return self._dispatch(method, parts, query, headers, body)
        except _HttpError as exc:
            return exc.status, {"error": exc.message}

    def _dispatch(self, method: str, parts: List[str],
                  query: Dict[str, str], headers: Dict[str, str],
                  body: bytes) -> Tuple[int, dict]:
        if parts == ["healthz"] and method == "GET":
            return 200, self._health()
        if parts == ["experiments"] and method == "GET":
            from ..experiments.runner import describe_registry
            return 200, {"experiments": [
                {"key": key, "description": description}
                for key, description in describe_registry()]}
        if parts == ["jobs"]:
            if method == "POST":
                return 201, self._submit(_json_body(body))
            if method == "GET":
                state = query.get("state") or None
                if state is not None and state not in JOB_STATES:
                    raise _HttpError(400, f"unknown state {state!r}; "
                                          f"have {sorted(JOB_STATES)}")
                return 200, {"jobs": [job.to_dict()
                                      for job in self.queue.jobs(state)]}
            raise _HttpError(405, f"{method} not supported on /jobs")
        if len(parts) >= 2 and parts[0] == "jobs":
            return self._job_routes(method, parts, query, headers)
        if parts == ["artifacts"] and method == "GET":
            return 200, {"artifacts": self.storage.list_artifact_ids()}
        if parts == ["baselines"] and method == "GET":
            return 200, {"baselines": self.storage.list_baseline_names()}
        if len(parts) == 2 and parts[0] == "baselines":
            name = parts[1]
            try:
                if method == "GET":
                    baseline = self.storage.load_baseline(name)
                    if baseline is None:
                        raise _HttpError(404, f"no baseline {name!r}")
                    return 200, baseline
                if method == "PUT":
                    self.storage.save_baseline(name, _json_body(body))
                    return 201, {"stored": name}
            except ValueError:
                raise _HttpError(404 if method == "GET" else 400,
                                 f"unusable baseline name {name!r}")
            raise _HttpError(405, f"{method} not supported on baselines")
        raise _HttpError(404, f"no route {method} /{'/'.join(parts)}")

    def _job_routes(self, method: str, parts: List[str],
                    query: Dict[str, str], headers: Dict[str, str]
                    ) -> Tuple[int, dict]:
        job_id = parts[1]
        try:
            job = self.queue.get(job_id)
        except ValueError:  # not a name storage will look up
            job = None
        if job is None:
            raise _HttpError(404, f"no job {job_id!r}")
        if len(parts) == 2 and method == "GET":
            return 200, job.to_dict()
        if parts[2:] == ["cancel"] and method == "POST":
            cancelled = self.queue.cancel(job_id)
            return 200, cancelled.to_dict() if cancelled else job.to_dict()
        if parts[2:] == ["artifact"] and method == "GET":
            artifact = self.storage.load_artifact(job_id)
            if artifact is None:
                raise _HttpError(
                    404, f"job {job_id!r} has no artifact yet "
                         f"(state {job.state})")
            return 200, artifact
        if parts[2:] == ["stream"] and method == "GET":
            try:
                offset = int(query.get("offset", "0") or "0")
            except ValueError:
                raise _HttpError(400, "offset must be an integer")
            if headers.get("upgrade", "").lower() == "websocket":
                client_key = headers.get("sec-websocket-key", "")
                if not client_key:
                    raise _HttpError(400, "missing Sec-WebSocket-Key")
                return 101, {"job_id": job_id, "offset": offset,
                             "accept": accept_key(client_key)}
            lines, new_offset = self.storage.read_stream(job_id, offset)
            current = self.queue.get(job_id)
            return 200, {"lines": lines, "offset": new_offset,
                         "state": current.state if current else "unknown",
                         "done": current is None or current.terminal}
        raise _HttpError(404, f"no route {method} /{'/'.join(parts)}")

    # -- handlers ----------------------------------------------------------

    def _health(self) -> dict:
        beats = self.storage.heartbeats()
        now = self.queue.now()
        return {
            "status": "ok",
            "uptime": (now - self.started_at) if self.started_at else 0.0,
            "workers": {
                worker_id: {
                    "alive": worker.alive,
                    "pid": worker.pid,
                    "beat_age": (now - beats[worker_id]["at"])
                    if worker_id in beats else None,
                    "job": beats.get(worker_id, {}).get("job"),
                } for worker_id, worker in self.workers.items()},
            "jobs": self.queue.counts(),
        }

    def _submit(self, payload: dict) -> dict:
        from ..experiments.runner import _registry
        registry = _registry()
        requests = payload.get("experiments")
        if requests is None:
            requests = [payload]  # single-job shorthand
        if not isinstance(requests, list) or not requests:
            raise _HttpError(400, "experiments must be a non-empty list")
        specs = []
        for request in requests:
            if not isinstance(request, dict):
                raise _HttpError(400, "each experiment must be an object")
            key = str(request.get("key", "")).strip().upper()
            if key not in registry:
                import difflib
                close = difflib.get_close_matches(key, sorted(registry),
                                                  n=3, cutoff=0.4)
                hint = f" (did you mean {', '.join(close)}?)" if close \
                    else ""
                raise _HttpError(400, f"unknown experiment {key!r}{hint}")
            timeout = _number(request, "timeout", float, None)
            if timeout is not None and not timeout > 0:
                raise _HttpError(400, "timeout must be positive")
            retries = _number(request, "retries", int, 1)
            if retries < 0:
                raise _HttpError(400, "retries must be non-negative")
            specs.append({
                "key": key,
                "fast": bool(request.get("fast", False)),
                "priority": _number(request, "priority", int, 0),
                "timeout": timeout,
                "max_retries": retries,
            })
        # Every entry passed before the first is stored: a batch is
        # accepted whole or not at all.
        jobs = [self.queue.submit(
            kind="experiment",
            params={"key": spec["key"], "fast": spec["fast"]},
            priority=spec["priority"], timeout=spec["timeout"],
            max_retries=spec["max_retries"]) for spec in specs]
        self._wake_workers()
        return {"jobs": [job.to_dict() for job in jobs]}


async def serve(config: ServiceConfig,
                ready: Optional[asyncio.Event] = None) -> None:
    """Run the service until cancelled (the ``pels serve`` main loop)."""
    service = await ExperimentService(config).start()
    print(f"-- pels service on http://{config.host}:{service.port} "
          f"({config.workers} worker(s), storage "
          f"{config.storage_dir}) --")
    if ready is not None:
        ready.set()
    try:
        await asyncio.Event().wait()  # until cancelled
    finally:
        await service.stop()
