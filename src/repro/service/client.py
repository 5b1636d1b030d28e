"""Thin blocking client for the service API.

Backs ``pels submit``/``status``/``artifacts`` and the test suites;
plain ``http.client`` requests plus the long-poll stream iterator (the
WebSocket path is exercised by the stream tests — for scripting, the
offset-based fallback is the simpler contract).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional

from ..core.retry import backoff_delay

__all__ = ["ServiceError", "ServiceClient"]


class ServiceError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """One service endpoint; every call opens a short-lived connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7475,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None \
                else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            text = response.read().decode()
            try:
                document = json.loads(text) if text else {}
            except json.JSONDecodeError:
                document = {"error": text}
            if response.status >= 400:
                raise ServiceError(response.status,
                                   document.get("error", text))
            return document
        finally:
            connection.close()

    # -- API surface -------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def experiments(self) -> List[dict]:
        return self._request("GET", "/experiments")["experiments"]

    def submit(self, experiments: List[dict]) -> List[dict]:
        """Submit a batch; each entry is ``{"key": ..., "fast": ...}``
        plus optional ``priority``/``timeout``/``retries``."""
        return self._request("POST", "/jobs",
                             {"experiments": experiments})["jobs"]

    def jobs(self, state: Optional[str] = None) -> List[dict]:
        suffix = f"?state={state}" if state else ""
        return self._request("GET", f"/jobs{suffix}")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def artifact(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/artifact")

    def artifacts(self) -> List[str]:
        return self._request("GET", "/artifacts")["artifacts"]

    def baselines(self) -> List[str]:
        return self._request("GET", "/baselines")["baselines"]

    def baseline(self, name: str) -> dict:
        return self._request("GET", f"/baselines/{name}")

    def put_baseline(self, name: str, payload: dict) -> dict:
        return self._request("PUT", f"/baselines/{name}", payload)

    # -- conveniences ------------------------------------------------------

    def wait(self, job_ids: List[str], timeout: float = 600.0,
             poll: float = 0.25) -> Dict[str, dict]:
        """Block until every job is terminal; returns final records.

        Looks again after 10 ms, then 20, 40, ... up to every ``poll``
        seconds: a short job is not reported a flat ``poll`` late, a
        long one is not polled any faster than before.
        """
        deadline = time.monotonic() + timeout
        final: Dict[str, dict] = {}
        pending = list(job_ids)
        looks = 0
        delay = 0.0
        while pending:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"jobs not terminal after {timeout:.0f}s: {pending}")
            for job_id in list(pending):
                record = self.job(job_id)
                if record["state"] in ("done", "failed", "cancelled"):
                    final[job_id] = record
                    pending.remove(job_id)
            if pending:
                if delay < poll:  # past the cap the ramp has nothing to add
                    delay = min(poll, backoff_delay(looks, 0.01))
                    looks += 1
                time.sleep(delay)
        return final

    def stream(self, job_id: str, poll: float = 0.2,
               timeout: float = 600.0) -> Iterator[dict]:
        """Yield parsed stream events via long-polling until the job
        settles (includes the final drain after the terminal state)."""
        offset = 0
        deadline = time.monotonic() + timeout
        while True:
            chunk = self._request(
                "GET", f"/jobs/{job_id}/stream?offset={offset}")
            offset = chunk["offset"]
            for line in chunk["lines"]:
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    continue
            if chunk["done"] and not chunk["lines"]:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"stream of {job_id} still open after "
                                   f"{timeout:.0f}s")
            if not chunk["lines"]:
                time.sleep(poll)
