"""Pluggable persistence for the service layer.

Everything the service remembers — job records, result artifacts,
benchmark baselines, worker heartbeats, live job streams — goes
through the :class:`StorageBackend` protocol, so the filesystem JSON
backend shipped here can be swapped for a database- or object-store
backend without touching the queue, workers or API.

Every record of the filesystem backend — and every ``--out-dir``
checkpoint of the experiment runner — goes through :func:`write_atomic`
(a uniquely named temp file ``rename``d into place), so a crash
mid-write never leaves a truncated document behind and concurrent
writers never interleave, and is read back by :func:`load_json`.
Claims use ``open(..., "x")`` (O_CREAT|O_EXCL), the one filesystem
primitive that is atomic across processes, so N workers scanning the
same queue directory agree on exactly one owner per job.  Which jobs
are worth looking at is answered by the open-job index — one entry per
non-terminal job, named in claim order — so a claim scan costs the
open jobs, not the history.  A corrupt
record — a partially copied backup, a flipped bit — is quarantined to
``<name>.corrupt`` and treated as absent rather than poisoning every
subsequent scan.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

__all__ = ["TERMINAL_STATES", "StorageBackend", "FileStorage",
           "write_atomic", "load_json"]

#: Job states nothing leaves; a record in one of them is off the
#: open-job index for good.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


@runtime_checkable
class StorageBackend(Protocol):
    """What the queue, workers and API need from persistence.

    All payloads are JSON-ready dicts; implementations own atomicity
    (a reader never observes a half-written record) and corruption
    recovery (an unreadable record loads as ``None``, never raises).

    ``save_job`` also keeps the **open-job index**: a job is listed by
    ``open_job_ids`` from before its first record is readable until
    after a record whose ``state`` is in :data:`TERMINAL_STATES` is, so
    the listing may name a job that is not open (whoever meets one
    calls ``drop_open_job``) but never misses one that is.  The order
    is the claim order: ``priority`` descending, job id ascending.
    """

    # -- job records -------------------------------------------------------

    def save_job(self, job_id: str, payload: dict) -> None: ...

    def load_job(self, job_id: str) -> Optional[dict]: ...

    def list_job_ids(self) -> List[str]: ...

    def open_job_ids(self) -> List[str]: ...

    def drop_open_job(self, job_id: str) -> None: ...

    # -- claims (atomic across processes) ----------------------------------

    def try_claim(self, job_id: str, owner: str) -> bool: ...

    def release_claim(self, job_id: str) -> None: ...

    def claim_owner(self, job_id: str) -> Optional[str]: ...

    # -- artifacts ---------------------------------------------------------

    def save_artifact(self, job_id: str, payload: dict) -> None: ...

    def load_artifact(self, job_id: str) -> Optional[dict]: ...

    def list_artifact_ids(self) -> List[str]: ...

    # -- baselines ---------------------------------------------------------

    def save_baseline(self, name: str, payload: dict) -> None: ...

    def load_baseline(self, name: str) -> Optional[dict]: ...

    def list_baseline_names(self) -> List[str]: ...

    # -- worker heartbeats -------------------------------------------------

    def beat(self, worker_id: str, payload: dict) -> None: ...

    def heartbeats(self) -> Dict[str, dict]: ...

    # -- job streams (append-only JSONL) -----------------------------------

    def append_stream(self, job_id: str, lines: List[str]) -> None: ...

    def reset_stream(self, job_id: str) -> None: ...

    def read_stream(self, job_id: str,
                    offset: int = 0) -> Tuple[List[str], int]: ...


def _safe_name(name: str) -> str:
    """Reject names that would escape the storage directory."""
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise ValueError(f"unsafe storage name: {name!r}")
    return name


def _temp_path(path: Path) -> Path:
    # Unique temp name (pid + monotonic ns): concurrent writers to
    # the same logical record must not truncate each other's temp
    # files, which a fixed ".tmp" suffix would allow.
    return path.with_name(
        f"{path.name}.{os.getpid()}.{time.monotonic_ns()}.tmp")


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path``'s content; readers see the old or the new."""
    tmp = _temp_path(path)
    tmp.write_text(text)
    tmp.replace(path)


def load_json(path: Path) -> Optional[dict]:
    """The JSON object at ``path``; None if absent or unreadable.

    An unreadable record is moved aside to ``<name>.corrupt`` so scans
    stop tripping on it.
    """
    try:
        payload = json.loads(path.read_text())
        if isinstance(payload, dict):
            return payload
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        pass
    try:
        path.replace(path.with_name(path.name + ".corrupt"))
    except OSError:  # pragma: no cover - lost a rename race
        pass
    return None


class FileStorage:
    """Filesystem JSON backend: one document per file, atomic writes.

    Layout under ``root``::

        jobs/<job_id>.json          job records (state machine inside)
        open/<priority>~<job_id>    open-job index: one name per
                                    non-terminal job, the claim order
                                    in it (a hard link, never read)
        claims/<job_id>.claim       O_EXCL ownership markers
        artifacts/<job_id>.json     exported results (schema-versioned)
        baselines/<name>.json       benchmark baselines
        heartbeats/<worker>.json    worker liveness
        streams/<job_id>.jsonl      append-only live job streams
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        for sub in ("jobs", "open", "claims", "artifacts", "baselines",
                    "heartbeats", "streams"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        # A plain string: the index is touched on every record save.
        self._open = str(self.root / "open")

    @staticmethod
    def _ids(directory: Path, suffix: str) -> List[str]:
        return sorted(p.name[:-len(suffix)] for p in directory.iterdir()
                      if p.name.endswith(suffix))

    # -- job records -------------------------------------------------------

    def save_job(self, job_id: str, payload: dict) -> None:
        """Store the record; index entry first, or dropped last.

        The order is the crash rule: whichever step a writer dies
        after, an open job still has its entry, and the worst left
        behind is an entry without an open job.  The entry is a
        function of the arguments alone — no record is read — and a
        second name of the temp file, not a file of its own: creating
        a file costs a submit ~200 us on the ledger host's ext4, a
        link ~8.
        """
        path = self.root / "jobs" / f"{_safe_name(job_id)}.json"
        entry = os.path.join(
            self._open, f"{int(payload.get('priority') or 0)}~{job_id}")
        text = json.dumps(payload, indent=2, sort_keys=True)
        if payload.get("state") in TERMINAL_STATES:
            write_atomic(path, text)
            self._unlink_entry(entry)
            return
        tmp = _temp_path(path)
        tmp.write_text(text)
        try:
            os.link(tmp, entry)
        except FileExistsError:
            pass
        tmp.replace(path)

    def load_job(self, job_id: str) -> Optional[dict]:
        return load_json(self.root / "jobs"
                         / f"{_safe_name(job_id)}.json")

    def list_job_ids(self) -> List[str]:
        return self._ids(self.root / "jobs", ".json")

    @staticmethod
    def _unlink_entry(entry: str) -> None:
        try:
            os.unlink(entry)
        except FileNotFoundError:
            pass

    def open_job_ids(self) -> List[str]:
        entries = []
        for name in os.listdir(self._open):
            priority, _, job_id = name.partition("~")
            try:
                entries.append((-int(priority), job_id))
            except ValueError:  # not an entry: someone else's file
                pass
        return [job_id for _, job_id in sorted(entries)]

    def drop_open_job(self, job_id: str) -> None:
        # The entry's priority is not the caller's to know (the record
        # may be gone): look the name up.  Off the hot path — a
        # terminal ``save_job`` unlinks its entry directly.
        for name in os.listdir(self._open):
            if name.partition("~")[2] == job_id:
                self._unlink_entry(os.path.join(self._open, name))

    # -- claims ------------------------------------------------------------

    def _claim_path(self, job_id: str) -> Path:
        return self.root / "claims" / f"{_safe_name(job_id)}.claim"

    def try_claim(self, job_id: str, owner: str) -> bool:
        """Atomically take ownership; False if someone else holds it."""
        try:
            with open(self._claim_path(job_id), "x") as handle:
                handle.write(json.dumps({"owner": owner}))
        except FileExistsError:
            return False
        return True

    def release_claim(self, job_id: str) -> None:
        try:
            self._claim_path(job_id).unlink()
        except FileNotFoundError:
            pass

    def claim_owner(self, job_id: str) -> Optional[str]:
        payload = load_json(self._claim_path(job_id))
        return payload.get("owner") if payload else None

    # -- artifacts ---------------------------------------------------------

    def save_artifact(self, job_id: str, payload: dict) -> None:
        path = self.root / "artifacts" / f"{_safe_name(job_id)}.json"
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))

    def load_artifact(self, job_id: str) -> Optional[dict]:
        return load_json(self.root / "artifacts"
                         / f"{_safe_name(job_id)}.json")

    def list_artifact_ids(self) -> List[str]:
        return self._ids(self.root / "artifacts", ".json")

    # -- baselines ---------------------------------------------------------

    def save_baseline(self, name: str, payload: dict) -> None:
        path = self.root / "baselines" / f"{_safe_name(name)}.json"
        write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))

    def load_baseline(self, name: str) -> Optional[dict]:
        return load_json(self.root / "baselines"
                         / f"{_safe_name(name)}.json")

    def list_baseline_names(self) -> List[str]:
        return self._ids(self.root / "baselines", ".json")

    # -- heartbeats --------------------------------------------------------

    def beat(self, worker_id: str, payload: dict) -> None:
        path = self.root / "heartbeats" / f"{_safe_name(worker_id)}.json"
        write_atomic(path, json.dumps(payload, sort_keys=True))

    def heartbeats(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        for worker_id in self._ids(self.root / "heartbeats", ".json"):
            payload = load_json(self.root / "heartbeats"
                                / f"{worker_id}.json")
            if payload is not None:
                out[worker_id] = payload
        return out

    # -- streams -----------------------------------------------------------

    def _stream_path(self, job_id: str) -> Path:
        return self.root / "streams" / f"{_safe_name(job_id)}.jsonl"

    def append_stream(self, job_id: str, lines: List[str]) -> None:
        """Append whole lines; a single write so tails never see halves.

        POSIX O_APPEND writes of this size are atomic enough for the
        one-writer-per-attempt discipline the queue enforces (the
        stream is reset when a job is claimed, and only the claiming
        worker's child appends during an attempt).
        """
        if not lines:
            return
        with open(self._stream_path(job_id), "a") as handle:
            handle.write("".join(line + "\n" for line in lines))

    def reset_stream(self, job_id: str) -> None:
        write_atomic(self._stream_path(job_id), "")

    def read_stream(self, job_id: str,
                    offset: int = 0) -> Tuple[List[str], int]:
        """Complete lines after byte ``offset`` and the new offset.

        A trailing partial line (writer mid-append) is left for the
        next read.  If the stream was reset below ``offset`` the read
        restarts from the beginning, so tailing clients survive a job
        being requeued to a fresh attempt.
        """
        path = self._stream_path(job_id)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return [], 0
        if size < offset:
            offset = 0
        if size == offset:
            return [], offset
        with open(path, "rb") as handle:
            handle.seek(offset)
            blob = handle.read(size - offset)
        end = blob.rfind(b"\n")
        if end < 0:
            return [], offset
        complete = blob[:end + 1]
        lines = complete.decode("utf-8", "replace").splitlines()
        return lines, offset + end + 1
