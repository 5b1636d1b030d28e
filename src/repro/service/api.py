"""HTTP API and service orchestrator (``pels serve``) on one clock.

Stdlib-only HTTP served by a :class:`~repro.core.clock.SelectorClock`
— requests are small JSON documents, responses are JSON, and the one
long-lived route (``GET /jobs/<id>/stream``) upgrades to the WebSocket
tail in :mod:`repro.service.stream` or falls back to offset-based
long-polling for plain-HTTP clients.

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

The socket layer is the clock's: the listening socket's reader
accepts, and each :class:`_Connection` reads into a buffer until the
head (``\r\n\r\n``) and ``Content-Length`` bytes of body are in,
then queues the response for a writer callback to flush, as
:class:`~repro.core.clock.DatagramEndpoint` does for datagrams.
Routing is a plain function of the parsed request, ``(status,
payload)`` out; the upgrade is decided there as status 101 and carried
out by the connection alone.  The stale-job / dead-worker sweep is one
synchronous pass, ``_sweep()``, on a timer that re-arms itself with
``clock.call_later``.  Every timestamp comes from the queue's clock,
``self.queue.now``.  No module of the service imports asyncio.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core import proc
from ..core.clock import SelectorClock
from .queue import JOB_STATES, JobQueue
from .storage import FileStorage
from .stream import StreamTail, accept_key
from .worker import pool_worker_main

__all__ = ["ServiceConfig", "ExperimentService", "serve"]

_MAX_BODY = 16 << 20
_MAX_HEADER = 64 << 10
#: Most bytes one ``recv`` takes.
_RECV_SIZE = 64 << 10
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


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str], int]:
    """One request head (``\r\n\r\n`` included): (method, target,
    lowercase headers, body length)."""
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
    return method, target, headers, length


class _Connection:
    """One accepted socket on the service's clock.

    Its reader buffers bytes until a whole request is in, routes it and
    queues the response; the writer callback flushes the queue in order
    and the socket closes once it is empty.  EOF or a socket error
    before that closes it with no response.  A WebSocket upgrade keeps
    the socket and hands every later byte to a
    :class:`~repro.service.stream.StreamTail`, which writes through the
    same queue.
    """

    __slots__ = ("_service", "_clock", "_sock", "_fd", "_inbox", "_outbox",
                 "_tail", "closed")

    def __init__(self, service: "ExperimentService", sock) -> None:
        sock.setblocking(False)
        self._service = service
        self._clock = service.clock
        self._sock = sock
        self._fd = sock.fileno()
        self._inbox = bytearray()
        self._outbox = bytearray()
        self._tail: Optional[StreamTail] = None
        #: Set once no more bytes will be queued (closing or gone).
        self.closed = False
        self._clock.add_reader(self._fd, self._on_readable)

    def _on_readable(self) -> None:
        try:
            data = self._sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self.abort()
        elif self._tail is not None:
            self._tail.feed(data)
        else:
            self._inbox += data
            try:
                request = self._request()
            except _HttpError as exc:
                self._respond(exc.status, {"error": exc.message})
            else:
                if request is not None:
                    self._answer(*request)

    def _request(self) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """The buffered request, taken off the buffer once its head and
        body are both in."""
        inbox = self._inbox
        end = inbox.find(b"\r\n\r\n") + 4
        if end < 4 or end > _MAX_HEADER:
            if len(inbox) > _MAX_HEADER:
                raise _HttpError(413, "header block too large")
            return None
        method, target, headers, length = _parse_head(bytes(inbox[:end]))
        if len(inbox) < end + length:
            return None
        body = bytes(inbox[end:end + length])
        del inbox[:end + length]
        return method, target, headers, body

    def _answer(self, method: str, target: str, headers: Dict[str, str],
                body: bytes) -> None:
        service = self._service
        try:
            status, payload = service._route(method, target, headers, body)
        except Exception as exc:  # noqa: BLE001 - API must not die
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if status != 101:
            self._respond(status, payload)
            return
        # The one route that keeps the socket: the WebSocket tail.
        self.write(b"HTTP/1.1 101 Switching Protocols\r\n"
                   b"Upgrade: websocket\r\n"
                   b"Connection: Upgrade\r\n"
                   b"Sec-WebSocket-Accept: "
                   + payload["accept"].encode() + b"\r\n\r\n")
        self._tail = StreamTail(self._clock, self, service.storage,
                                service.queue, payload["job_id"],
                                offset=payload["offset"])
        if self._inbox:  # frames the client sent behind its handshake
            self._tail.feed(bytes(self._inbox))
            self._inbox.clear()

    def _respond(self, status: int, payload: dict) -> None:
        self.write(_response(status, payload))
        self.close()

    def write(self, data: bytes) -> None:
        """Queue ``data``; the writer callback sends it in order."""
        if self.closed:
            return
        if not self._outbox:
            self._clock.add_writer(self._fd, self._flush)
        self._outbox += data

    def _flush(self) -> None:
        """Writer callback: send what the socket takes of the queue."""
        try:
            sent = self._sock.send(self._outbox)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self.abort()
            return
        del self._outbox[:sent]
        if not self._outbox:
            self._clock.remove_writer(self._fd)
            if self.closed:
                self.abort()

    def close(self) -> None:
        """Read no more; close the socket once the queue is flushed."""
        self.closed = True
        self._clock.remove_reader(self._fd)
        if not self._outbox:
            self.abort()

    def abort(self) -> None:
        """Close the socket now; whatever is still queued is dropped."""
        self.closed = True
        if self._sock.fileno() < 0:
            return
        self._clock.remove_reader(self._fd)
        self._clock.remove_writer(self._fd)
        self._sock.close()
        self._service._connections.discard(self)


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
        #: Serves the API socket and the sweep once :meth:`start` made
        #: it; whoever started the service runs it.
        self.clock: Optional[SelectorClock] = None
        self.storage = FileStorage(config.storage_dir)
        self.queue = JobQueue(self.storage)
        self.workers: Dict[str, proc.Child] = {}
        self._listener: Optional[socket.socket] = None
        self._connections: Set[_Connection] = set()
        self._worker_seq = 0
        self.started_at: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("service is not started")
        return self._listener.getsockname()[1]

    def start(self) -> "ExperimentService":
        """Recover state, spawn the pool, bind the API socket and arm
        the sweep on the clock; the caller runs the clock."""
        recovered = self.queue.recover()
        for _ in range(self.config.workers):
            self._spawn_worker()
        if recovered:
            self._wake_workers()
        self.clock = SelectorClock()
        host, port = self.config.host, self.config.port
        try:  # after the pool forks: its workers do not hold the socket
            family = socket.getaddrinfo(host, port,
                                        type=socket.SOCK_STREAM)[0][0]
            self._listener = socket.create_server((host, port),
                                                  family=family)
        except OSError:  # a busy port: the pool must not outlive us
            self.stop()
            raise
        self._listener.setblocking(False)
        self.clock.add_reader(self._listener.fileno(), self._accept)
        self.clock.call_later(self.config.sweep_interval, self._sweep_timer)
        self.started_at = self.queue.now()
        if recovered:
            # Visible on the serving side: interrupted attempts from a
            # previous incarnation went back to the queue.
            print(f"-- recovered {len(recovered)} interrupted job(s) "
                  f"from {self.config.storage_dir} --")
        return self

    def stop(self) -> None:
        """Close the API socket and every connection, reap the pool;
        the sweep timer lapses."""
        if self._listener is not None:
            self.clock.remove_reader(self._listener.fileno())
            self._listener.close()
            self._listener = None
        for connection in list(self._connections):
            connection.abort()
        for worker in self.workers.values():
            worker.reap()
        self.workers.clear()

    def _accept(self) -> None:
        """Listening socket's reader: one connection per turn."""
        try:
            sock, _ = self._listener.accept()
        except OSError:  # EAGAIN, or a client that gave up queued
            return
        self._connections.add(_Connection(self, sock))

    def _spawn_worker(self) -> str:
        self._worker_seq += 1
        worker_id = f"w{self._worker_seq:03d}"
        self.workers[worker_id] = proc.spawn(
            pool_worker_main,
            (self.config.storage_dir, worker_id,
             self.config.worker_poll, WORKER_HEARTBEAT))
        return worker_id

    def _wake_workers(self) -> None:
        """Tell the pool a job became claimable: one token per worker,
        whatever the size of the batch.  ``Child.wake`` cannot block
        the clock, and a worker that is busy or stopped keeps the
        token for its next look at the queue."""
        for worker in self.workers.values():
            worker.wake()

    def _sweep_timer(self) -> None:
        """Run :meth:`_sweep` every ``sweep_interval`` while the service
        runs, re-arming first so a pass that raises still gets its
        successor (and the clock keeps serving)."""
        if self._listener is None:
            return
        self.clock.call_later(self.config.sweep_interval, self._sweep_timer)
        try:
            self._sweep()
        except Exception:  # noqa: BLE001 - the service outlives one pass
            import traceback
            traceback.print_exc()

    def _sweep(self) -> None:
        """One pass: requeue stale jobs, replace workers that died."""
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


def serve(config: ServiceConfig) -> None:
    """Run the service until interrupted (the ``pels serve`` main loop):
    ``KeyboardInterrupt`` stops it and propagates.  A start that fails
    (a busy port, an unusable storage directory) raises its ``OSError``
    before the banner, with the pool already reaped."""
    service = ExperimentService(config).start()
    print(f"-- pels service on http://{config.host}:{service.port} "
          f"({config.workers} worker(s), storage "
          f"{config.storage_dir}) --")
    try:
        service.clock.run()
    finally:
        service.stop()
        service.clock.close()
