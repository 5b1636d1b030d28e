"""HTTP API of the experiment service, exercised over real sockets.

A live ``ExperimentService`` runs on a background thread (the same
harness SV1 uses); the blocking :class:`ServiceClient` talks to it from
the test thread.  Control-plane tests run with zero workers so no
experiment processes spawn; the end-to-end tests patch the registry
with instant fakes and run one real worker.
"""

from __future__ import annotations

import errno
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.experiments.service_exp import _Fleet
from repro.service.api import ExperimentService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue
from repro.service.storage import FileStorage


def _ok_run(fast=False):
    result = ExperimentResult("OK", "works")
    result.metrics["value"] = 42.0
    return result


@pytest.fixture()
def fleet(tmp_path):
    config = ServiceConfig(storage_dir=str(tmp_path / "store"),
                           workers=0, port=0)
    with _Fleet(config) as fleet:
        yield fleet


@pytest.fixture()
def client(fleet):
    return ServiceClient(port=fleet.port)


class TestHealth:
    def test_reports_status_workers_and_counts(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == {}
        assert health["jobs"]["queued"] == 0
        assert health["uptime"] >= 0.0


class TestExperimentsListing:
    def test_lists_registry_with_descriptions(self, client):
        entries = {e["key"]: e["description"] for e in client.experiments()}
        assert "T1" in entries and "SV1" in entries
        assert entries["A4"].startswith("A4")


class TestSubmitValidation:
    def test_unknown_key_suggests_neighbours(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit([{"key": "A44"}])
        assert err.value.status == 400
        assert "A4" in err.value.message

    def test_empty_batch_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit([])
        assert err.value.status == 400

    def test_non_object_entry_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit(["T1"])
        assert err.value.status == 400

    def test_non_positive_timeout_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit([{"key": "T1", "timeout": -5}])
        assert err.value.status == 400

    @pytest.mark.parametrize("option", [
        {"priority": "high"}, {"priority": [1]}, {"priority": True},
        {"timeout": "soon"}, {"timeout": {}}, {"retries": "many"},
        {"retries": -3}, {"retries": 1e400}])
    def test_option_that_is_no_number_rejected(self, client, option):
        with pytest.raises(ServiceError) as err:
            client.submit([dict({"key": "T1"}, **option)])
        assert err.value.status == 400
        assert list(option)[0] in err.value.message
        assert client.jobs() == []

    def test_null_option_means_default(self, client):
        job = client.submit([{"key": "T1", "priority": None,
                              "timeout": None, "retries": None}])[0]
        assert (job["priority"], job["timeout"], job["max_retries"]) == \
            (0, None, 1)

    def test_batch_is_stored_whole_or_not_at_all(self, client):
        for bad in ({"key": "NOPE"}, {"key": "T1", "retries": -1},
                    {"key": "T1", "priority": "high"}, "T1"):
            with pytest.raises(ServiceError) as err:
                client.submit([{"key": "T1"}, {"key": "F2"}, bad])
            assert err.value.status == 400
        assert client.jobs() == []
        assert client.health()["jobs"]["queued"] == 0

    def test_key_is_normalized(self, client):
        jobs = client.submit([{"key": " t1 "}])
        assert jobs[0]["params"]["key"] == "T1"

    def test_batch_submission_preserves_order_and_options(self, client):
        jobs = client.submit([
            {"key": "T1", "fast": True, "priority": 5},
            {"key": "F2", "retries": 3, "timeout": 60},
        ])
        assert [j["params"]["key"] for j in jobs] == ["T1", "F2"]
        assert jobs[0]["priority"] == 5 and jobs[0]["params"]["fast"]
        assert jobs[1]["max_retries"] == 3 and jobs[1]["timeout"] == 60.0


class TestJobRoutes:
    def test_listing_filters_by_state(self, client):
        client.submit([{"key": "T1"}])
        assert len(client.jobs(state="queued")) == 1
        assert client.jobs(state="done") == []

    def test_unknown_state_filter_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.jobs(state="zombie")
        assert err.value.status == 400

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("ghost")
        assert err.value.status == 404

    @pytest.mark.parametrize("job_id", [".hidden", "..%2fx", "..", "a\\b"])
    def test_job_id_storage_would_refuse_404(self, client, job_id):
        for method, suffix in (("GET", ""), ("GET", "/artifact"),
                               ("GET", "/stream"), ("POST", "/cancel")):
            with pytest.raises(ServiceError) as err:
                client._request(method, f"/jobs/{job_id}{suffix}")
            assert err.value.status == 404

    def test_artifact_of_unfinished_job_404(self, client):
        job = client.submit([{"key": "T1"}])[0]
        with pytest.raises(ServiceError) as err:
            client.artifact(job["job_id"])
        assert err.value.status == 404
        assert "queued" in err.value.message

    def test_cancel_queued_job(self, client):
        job = client.submit([{"key": "T1"}])[0]
        assert client.cancel(job["job_id"])["state"] == "cancelled"
        assert client.job(job["job_id"])["state"] == "cancelled"

    def test_long_poll_stream_of_settled_job(self, fleet, client):
        queue = fleet.service.queue
        record = queue.submit(params={"key": "X"})
        queue.complete(queue.claim_next("w001"), {"experiment_id": "X"})
        events = list(client.stream(record.job_id, timeout=30))
        states = [e["state"] for e in events if e.get("type") == "state"]
        assert states == ["running", "done"]


class TestBaselines:
    def test_put_get_list(self, client):
        client.put_baseline("bench", {"ns_per_epoch": 11.5})
        assert client.baseline("bench") == {"ns_per_epoch": 11.5}
        assert client.baselines() == ["bench"]

    def test_missing_baseline_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.baseline("ghost")
        assert err.value.status == 404

    def test_name_storage_would_refuse(self, client):
        with pytest.raises(ServiceError) as err:
            client.baseline(".hidden")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.put_baseline(".hidden", {"x": 1})
        assert err.value.status == 400
        assert client.baselines() == []


class TestRouting:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_method_not_allowed_405(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("DELETE", "/jobs")
        assert err.value.status == 405

    def test_malformed_json_body_400(self, fleet):
        import http.client
        connection = http.client.HTTPConnection("127.0.0.1", fleet.port,
                                                timeout=10)
        try:
            connection.request("POST", "/jobs", body=b"{not json",
                               headers={"Content-Type":
                                        "application/json"})
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    @pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3", b"0x10"])
    def test_unusable_content_length_400(self, fleet, length):
        with socket.create_connection(("127.0.0.1", fleet.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: "
                         + length + b"\r\n\r\n{}")
            reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in reply.partition(b"\r\n\r\n")[2]


class TestRequestRead:
    """The hand-written request read, over raw sockets: a request is
    answered once its head and ``Content-Length`` bytes of body are in,
    however the bytes arrive, and never blocks another connection."""

    @staticmethod
    def _exchange(port, *pieces, pause=0.05):
        """Send ``pieces`` with a pause between (each its own ``recv``
        on the server) and return the whole reply."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            for index, piece in enumerate(pieces):
                if index:
                    time.sleep(pause)
                sock.sendall(piece)
            return sock.makefile("rb").read()

    @pytest.mark.parametrize("pieces", [
        [b"POST /jo", b"bs HTTP/1.1\r\nContent-Le",
         b"ngth: 13\r\n\r\n{\"key\": \"T1\"}"],
        [b"POST /jobs HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"key\"",
         b": ", b"\"T1\"}"],
    ], ids=["head-split", "body-split"])
    def test_request_split_across_recvs(self, fleet, client, pieces):
        reply = self._exchange(fleet.port, *pieces)
        assert reply.startswith(b"HTTP/1.1 201 ")
        job = json.loads(reply.partition(b"\r\n\r\n")[2])["jobs"][0]
        assert job["params"]["key"] == "T1"
        assert [j["job_id"] for j in client.jobs()] == [job["job_id"]]

    def test_eof_mid_body_closes_without_response(self, fleet, client):
        with socket.create_connection(("127.0.0.1", fleet.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nContent-Length: 100"
                         b"\r\n\r\n{\"key\": ")
            sock.shutdown(socket.SHUT_WR)
            assert sock.makefile("rb").read() == b""
        assert client.jobs() == []

    @pytest.mark.parametrize("head, status, message", [
        (b"GARBAGE\r\n\r\n", 400, b"malformed request line"),
        (b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % ((16 << 20) + 1), 413, b"exceeds limit"),
        (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (64 << 10)
         + b"\r\n\r\n", 413, b"header block too large"),
    ], ids=["malformed-request-line", "body-over-limit",
            "header-block-over-limit"])
    def test_unusable_head_answered_without_a_body(self, fleet, head,
                                                   status, message):
        # No body follows: the answer cannot be waiting for one.
        reply = self._exchange(fleet.port, head)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert message in reply.partition(b"\r\n\r\n")[2]

    def test_stalled_client_does_not_block_others(self, fleet, client):
        with socket.create_connection(("127.0.0.1", fleet.port),
                                      timeout=10) as stalled:
            stalled.sendall(b"GET /heal")
            time.sleep(0.05)
            started = time.monotonic()
            assert client.health()["status"] == "ok"
            assert time.monotonic() - started < 5.0
            stalled.sendall(b"thz HTTP/1.1\r\n\r\n")
            assert stalled.makefile("rb").read().startswith(
                b"HTTP/1.1 200 ")


class TestClientWait:
    def test_ramps_from_10ms_up_to_poll(self, monkeypatch):
        from repro.service import client as client_module
        states = iter(["queued"] * 3 + ["running"] * 5 + ["done"])
        client = ServiceClient(port=1)
        monkeypatch.setattr(client, "job",
                            lambda job_id: {"state": next(states)})
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        final = client.wait(["j1"], poll=0.25)
        assert final == {"j1": {"state": "done"}}
        assert sleeps == [0.01, 0.02, 0.04, 0.08, 0.16, 0.25, 0.25, 0.25]

    def test_poll_below_the_first_step_is_honoured(self, monkeypatch):
        from repro.service import client as client_module
        states = iter(["running"] * 3 + ["done"])
        client = ServiceClient(port=1)
        monkeypatch.setattr(client, "job",
                            lambda job_id: {"state": next(states)})
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        client.wait(["j1"], poll=0.001)
        assert sleeps == [0.001] * 3


class TestEndToEnd:
    def test_submit_executes_on_a_real_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_REGISTRY", {"OK": _ok_run})
        config = ServiceConfig(storage_dir=str(tmp_path / "store"),
                               workers=1, port=0)
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port)
            job = client.submit([{"key": "OK", "fast": True}])[0]
            final = client.wait([job["job_id"]], timeout=60)
            record = final[job["job_id"]]
            assert record["state"] == "done"
            assert record["attempts"] == 1
            artifact = client.artifact(job["job_id"])
            assert artifact["experiment_id"] == "OK"
            assert artifact["metrics"]["value"] == 42.0
            assert artifact["schema_version"] >= 2
            assert client.artifacts() == [job["job_id"]]


class TestRestartResume:
    """Acceptance: kill the service, restart on the same storage, and
    queued/interrupted jobs resume with no lost or duplicated work."""

    def test_interrupted_and_queued_jobs_survive_restart(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(runner, "_REGISTRY", {"OK": _ok_run})
        store = str(tmp_path / "store")

        # First incarnation: no workers, so submissions only queue up;
        # one job is claimed by hand to simulate an in-flight attempt
        # at the moment the service dies.
        config = ServiceConfig(storage_dir=store, workers=0, port=0)
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port)
            interrupted = client.submit([{"key": "OK"}])[0]
            waiting = client.submit([{"key": "OK"}])[0]
            fleet.service.queue.claim_next("w001")

        # The "crashed" incarnation is gone; restart with real workers.
        config = ServiceConfig(storage_dir=store, workers=2, port=0)
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port)
            final = client.wait([interrupted["job_id"],
                                 waiting["job_id"]], timeout=60)
            assert all(r["state"] == "done" for r in final.values())
            assert final[interrupted["job_id"]]["requeues"] == 1
            # One artifact per job — nothing lost, nothing duplicated.
            assert sorted(client.artifacts()) == sorted(
                [interrupted["job_id"], waiting["job_id"]])


class TestOrphanRule:
    def test_sigkilled_service_takes_workers_and_job_child_down(
            self, tmp_path, orphans):
        # recover() requeues running jobs on the premise that nothing
        # of the previous incarnation still runs; workers that outlive
        # a SIGKILLed service (they used to, and kept claiming) make a
        # second writer for the same artifact.
        pids = orphans.after_sigkill(
            "import os, time\n"
            "from repro.experiments import runner\n"
            "from repro.service.api import ExperimentService, "
            "ServiceConfig\n"
            "def slow(fast=False):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "runner._REGISTRY = {'SLOW': slow}\n"
            f"config = ServiceConfig(storage_dir={str(tmp_path)!r}, "
            "workers=2, worker_poll=0.05)\n"
            "service = ExperimentService(config).start()\n"
            "print(*[w.pid for w in service.workers.values()], flush=True)\n"
            "service.queue.submit(params={'key': 'SLOW'})\n"
            "service.clock.run()\n", lines=2)
        assert len(pids) == 3  # two workers, then the job child
        assert orphans.survivors(pids, within=5.0) == []


class TestServeProcess:
    def test_sigint_stops_service_and_its_worker(self, tmp_path, orphans):
        # How a user and the perf ledger's teardown stop ``pels serve``.
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--workers",
             "1", "--port", "0", "--storage", str(tmp_path / "store")],
            stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True)
        try:
            assert select.select([process.stdout], [], [], 30.0)[0]
            banner = process.stdout.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner).group(1))
            client = ServiceClient(port=port, timeout=10.0)
            deadline = time.monotonic() + 30.0
            while True:
                workers = client.health()["workers"]
                if workers and all(w["alive"] for w in workers.values()):
                    break
                assert time.monotonic() < deadline, workers
                time.sleep(0.01)
            [worker_pid] = [w["pid"] for w in workers.values()]
            started = time.monotonic()
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=15.0) == 0
            assert time.monotonic() - started < 15.0
            assert "-- service stopped --" in process.stdout.read()
            assert orphans.gone(worker_pid)
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            process.stdout.close()


def _children() -> set:
    """Pids of this process's children, zombies included (``/proc``)."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return pids


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs Linux /proc")
class TestBindFailure:
    def test_busy_port_raises_and_reaps_the_pool(self, tmp_path):
        # The workers fork before the bind; left running, they kept
        # the process from ever exiting.
        before = _children()
        with socket.create_server(("127.0.0.1", 0)) as busy:
            config = ServiceConfig(storage_dir=str(tmp_path / "store"),
                                   workers=1,
                                   port=busy.getsockname()[1])
            service = ExperimentService(config)
            with pytest.raises(OSError):
                service.start()
        assert service.workers == {}
        assert _children() <= before

    def test_pels_serve_on_a_busy_port_exits_2_with_one_line(self,
                                                              tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "serve", "--workers",
                 "1", "--port", str(port), "--storage",
                 str(tmp_path / "store")],
                capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        [line] = done.stderr.splitlines()
        assert line.startswith(f"serve: [Errno {errno.EADDRINUSE}] ")
        assert str(port) in line


class TestServiceConfigValidation:
    def test_negative_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ServiceConfig(storage_dir=str(tmp_path), workers=-1)

    def test_non_positive_timeouts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ServiceConfig(storage_dir=str(tmp_path), heartbeat_timeout=0)
