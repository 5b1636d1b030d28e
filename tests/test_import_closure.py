"""Start-up fence: what each entry point imports, and that it still resolves.

Every package ``__init__`` except ``repro.obs`` is a lazy table
(:mod:`repro._lazy`): a public name imports its defining submodule when
first read, so ``import repro.x.y`` loads only what ``y`` needs.  The
controller registry (:mod:`repro.cc.base`) names the module of each
built-in and imports it when the name is first asked for, so a live
process running MKC loads neither the baselines nor the packet
simulator :mod:`repro.cc.tcp` drives.  Each check runs in a fresh
interpreter, because the test process itself has long since imported
everything.  On Python 3.11 (``import sys; import <entry>;
len(sys.modules)``), with ``repro.cc`` eager and ``core/assembly.py``
the home of the frame phase before (and, for the live session, of
``attach_readout``, with the tuner imported at module scope):

=============================================  ==========  ==========
modules loaded (in all / of them ``repro``)    before      now
=============================================  ==========  ==========
``import repro.live.shard`` (one router shard)  160 / 30    153 / 23
``import repro.live.loadgen``                   192 / 55    165 / 35
``import repro.fluid.engine``                   147 / 25    135 / 15
``import repro.analysis.oracles``               150 / 28    138 / 18
``import repro.core.session``                   172 / 44    169 / 41
``import repro.live.session``                   178 / 45    168 / 35
``describe_registry()`` (``--list``)            253 / 103   132 / 8
``import repro.cli, repro.service.api``         142 / 13    142 / 13
``import repro.experiments.runner``             132 / 8     132 / 8
``import repro.core.proc``                      112 / 4     112 / 4
=============================================  ==========  ==========

Every live process and ``pels serve`` run on ``SelectorClock``, so no
``repro.live`` import, no running shard child or load generator and no
serving ``pels serve`` loads asyncio or ``ssl`` (an asyncio router,
driver or API would add 40-45 modules, and the API's module-level
``hashlib`` OpenSSL's libcrypto); and ``core/proc.py`` forks on its
own, so none of them loads ``multiprocessing`` (17 modules more).

A forbidden set below that starts failing means an import moved to
module scope somewhere on that path: find it with
``python -X importtime -c "import <module>"`` before widening the set.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Entry point -> modules (with their submodules) it must not load.
FORBIDDEN = {
    "repro.sim.engine": {"repro.live", "repro.fluid", "repro.experiments",
                         "repro.service", "asyncio", "numpy"},
    "repro.core.session": {"repro.live", "repro.fluid", "repro.experiments",
                           "repro.service", "asyncio", "numpy"},
    # One router shard: the paper's Fig. 4 output port and nothing else:
    # no rate controller, no packet host or link.
    "repro.live.shard": {"repro.experiments", "repro.fluid", "repro.service",
                         "repro.core.session", "numpy", "asyncio",
                         "repro.cc.aimd", "repro.cc.kelly", "repro.cc.mkc",
                         "repro.cc.tcp", "repro.cc.tfrc", "repro.sim.node",
                         "repro.sim.link"},
    # The fluid engine and its oracles integrate the recurrences: no
    # packet simulator.
    "repro.fluid.engine": {"repro.sim"},
    "repro.analysis.oracles": {"repro.sim"},
    # The child primitive forks on its own.
    "repro.core.proc": {"multiprocessing", "subprocess"},
    # The ``pels serve`` start: no live stack, no experiment registry,
    # no asyncio, no libcrypto before the first WebSocket handshake,
    # and no pickle until something is sent to a child.
    "repro.cli, repro.service.api": {"repro.live", "repro.sim",
                                     "repro.experiments", "numpy",
                                     "asyncio", "ssl", "hashlib",
                                     "_hashlib", "multiprocessing",
                                     "subprocess", "pickle"},
    # The experiment registry is a table of names: a key's module loads
    # when the key runs, not when the registry does.
    "repro.experiments.runner": {"repro.sim", "repro.live", "repro.fluid",
                                 "repro.service", "asyncio", "numpy"},
    # Listing every experiment (``--list``, ``GET /experiments``) reads
    # the registry's descriptions: no experiment module, no engine.
    "from repro.experiments.runner import describe_registry; "
    "describe_registry()": {"asyncio", "ssl", "repro.sim", "repro.live",
                            "repro.fluid"},
    # The load generator and the loopback session drive SelectorClock.
    # The generator runs MKC over live shards: no packet simulator, no
    # baseline controller, no meta-control; faults only for a chaos
    # run, the supervisor only for a supervised one.
    "repro.live.loadgen": {"asyncio", "ssl", "repro.cc.tcp", "repro.sim.node",
                           "repro.sim.link", "repro.sim.chain",
                           "repro.core.assembly", "repro.control",
                           "repro.faults", "repro.live.supervisor"},
    # The session (both drivers) runs the live endpoints: no packet
    # host, link or source, and the tuner only for a tuned run.
    "repro.live.session": {"asyncio", "ssl", "repro.sim.link",
                           "repro.sim.node", "repro.sim.chain",
                           "repro.core.source", "repro.core.sink",
                           "repro.core.assembly", "repro.control.meta"},
    # A clock that only reads ``now`` (the gateway's) loads no asyncio.
    "from repro.core.clock import WallClock; WallClock()": {"asyncio",
                                                            "ssl"},
}

#: Every controller ``pels simulate --controller`` has offered.
CONTROLLERS = ["aimd", "kelly", "kelly-classic", "mkc", "tfrc"]


def run_fresh(*argv: str) -> str:
    """Run a new interpreter on this checkout; its stdout."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("entry", sorted(FORBIDDEN))
def test_import_closure(entry):
    statement = entry if entry.startswith("from ") else f"import {entry}"
    loaded = json.loads(run_fresh(
        "-c", f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(sys.modules)))"))
    hits = sorted(name for name in loaded for banned in FORBIDDEN[entry]
                  if name == banned or name.startswith(banned + "."))
    assert hits == [], f"import {entry} loads {hits}"


SUBMIT = """
import json, sys
from repro.service.api import ExperimentService, ServiceConfig, _HttpError
service = ExperimentService(ServiceConfig(storage_dir=root, workers=0))
[job] = service._submit({"key": "F2"})["jobs"]
try:
    service._submit({"key": "F22"})
except _HttpError as exc:
    error = [exc.status, exc.message]
print(json.dumps({"state": job["state"], "error": error,
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith("repro.experiments."))}))
"""


def test_submit_checks_keys_without_loading_experiments(tmp_path):
    """``pels serve`` accepts a job and rejects a typo (400, with a
    hint) against the registry's names: the runner and its result
    record load, no experiment module does."""
    report = json.loads(run_fresh(
        "-c", f"root = {str(tmp_path)!r}\n" + SUBMIT))
    assert report["state"] == "queued"
    assert report["error"][0] == 400
    assert "did you mean F2" in report["error"][1]
    assert report["loaded"] == ["repro.experiments.common",
                                "repro.experiments.runner"]


SERVE = """
import json, socket, sys, threading
from repro.service.api import ExperimentService, ServiceConfig
service = ExperimentService(ServiceConfig(storage_dir=root, workers=0))
service.start()
threading.Thread(target=service.clock.run, daemon=True).start()
def request(method, target, body=b""):
    with socket.create_connection(("127.0.0.1", service.port), 30) as sock:
        sock.sendall(f"{method} {target} HTTP/1.1\\r\\n"
                     f"Content-Length: {len(body)}\\r\\n\\r\\n".encode()
                     + body)
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    head, _, payload = reply.partition(b"\\r\\n\\r\\n")
    return int(head.split()[1]), json.loads(payload)
health, _ = request("GET", "/healthz")
submitted, jobs = request("POST", "/jobs", b'{"key": "F2", "fast": true}')
job_id = jobs["jobs"][0]["job_id"]
polled, chunk = request("GET", f"/jobs/{job_id}/stream?offset=0")
print(json.dumps({"statuses": [health, submitted, polled],
                  "state": chunk["state"],
                  "loaded": sorted(m for m in sys.modules if m.split(".")[0]
                                   in ("asyncio", "ssl", "hashlib",
                                       "_hashlib", "multiprocessing"))}))
"""


def test_serving_loads_no_asyncio_ssl_or_libcrypto(tmp_path):
    """The service on its own clock answers ``/healthz``, a ``POST
    /jobs`` and a stream long-poll over real sockets (a raw-socket
    client: ``http.client`` would load ``ssl`` itself) and ends with
    none of asyncio, ``ssl``, ``hashlib``, ``_hashlib`` or
    ``multiprocessing`` loaded."""
    report = json.loads(run_fresh(
        "-c", f"root = {str(tmp_path)!r}\n" + SERVE))
    assert report["statuses"] == [200, 201, 200]
    assert report["state"] == "queued"
    assert report["loaded"] == []


WORKER_RUN = """
import json, sys
from repro.service.queue import JobQueue
from repro.service.storage import FileStorage
from repro.service.worker import run_worker
queue = JobQueue(FileStorage(root))
job = queue.submit(params={"key": "F2", "fast": True})
ran = run_worker(root, "w001", max_jobs=1)
print(json.dumps({"ran": ran, "state": queue.get(job.job_id).state,
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith("repro.experiments."))}))
"""


def test_a_worker_holds_only_what_it_has_run(tmp_path):
    """A worker imports the claimed job's experiment before it forks
    the job child, and no other: after one F2 job it holds fig2 and
    none of the heavy or service-backed experiments."""
    report = json.loads(run_fresh(
        "-c", f"root = {str(tmp_path)!r}\n" + WORKER_RUN))
    assert report["ran"] == 1
    assert report["state"] == "done"
    assert "repro.experiments.fig2" in report["loaded"]
    for name in ("capacity", "live_load", "live_chaos", "service_exp"):
        assert f"repro.experiments.{name}" not in report["loaded"]


SHARD_CHILD = """
import json, socket, sys, threading
from repro.core.proc import Channel
from repro.live.shard import ShardConfig, _shard_main
parent, child = (Channel(end.detach()) for end in socket.socketpair())
shard = threading.Thread(target=_shard_main,
                         args=(child, ShardConfig(shard_id=3)))
shard.start()
def reply():
    assert parent.poll(30), "the shard did not answer"
    return parent.recv()
kind, port = reply()
parent.send(("stats",))
_, stats = reply()
parent.send(("stop",))
final_kind, final = reply()
shard.join(30)
print(json.dumps({"replies": [kind, final_kind], "port": port,
                  "shard_ids": [stats.shard_id, final.shard_id],
                  "alive": shard.is_alive(),
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] in ("asyncio",
                                                          "multiprocessing"))}))
"""


def test_running_shard_child_never_loads_asyncio():
    """The child side of the fork: ``_shard_main`` on a thread against
    a socketpair channel answers ``ready``, ``stats`` and ``stop`` and
    imports no asyncio or ``multiprocessing`` itself (a child forked
    from a process that loaded them inherits them, which this
    interpreter does not)."""
    report = json.loads(run_fresh("-c", SHARD_CHILD))
    assert report["replies"] == ["ready", "stopped"]
    assert report["port"] > 0
    assert report["shard_ids"] == [3, 3]
    assert not report["alive"]
    assert report["loaded"] == []


LOAD_RUN = """
import json, sys
from repro.live.loadgen import LoadConfig, run_load
result = run_load(LoadConfig(flows=4, shards=1, duration=0.3))
print(json.dumps({"admitted": result.admitted,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] in ("asyncio", "ssl"))}))
"""


@pytest.mark.live
def test_a_load_run_never_loads_asyncio_or_ssl():
    """The driver side of ``run_load``: a whole run (shard spawned,
    flows admitted, streamed, drained, shard stopped) on
    ``SelectorClock`` ends with neither module loaded."""
    report = json.loads(run_fresh("-c", LOAD_RUN))
    assert report["admitted"] == 4
    assert report["loaded"] == []


SURFACE = """
import importlib, json, pkgutil, sys
import repro
problems = []
packages = ["repro"] + [m.name for m in pkgutil.walk_packages(
    repro.__path__, "repro.") if m.ispkg]
for name in packages:
    package = importlib.import_module(name)
    for attr in getattr(package, "__all__", ()):
        try:
            getattr(package, attr)
        except AttributeError as exc:
            problems.append(f"{name}.{attr}: {exc}")
        if attr not in dir(package):
            problems.append(f"{name}.{attr}: not in dir()")
    try:
        exec(f"from {name} import *", {})
    except Exception as exc:
        problems.append(f"from {name} import *: {exc!r}")
from repro.obs import metrics, MetricsRegistry
registry = MetricsRegistry()
with metrics(registry) as active:
    if active is not registry:
        problems.append("repro.obs.metrics is not the context manager")
print(json.dumps({"packages": packages, "problems": problems}))
"""


def test_public_surface_resolves():
    report = json.loads(run_fresh("-c", SURFACE))
    assert report["problems"] == []
    assert {"repro", "repro.fluid", "repro.live", "repro.obs",
            "repro.cc"} <= set(report["packages"])


ALONE = """
import importlib, json, pkgutil, sys, traceback
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
failed = {}
for name in names:
    for loaded in [m for m in sys.modules
                   if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed[name] = traceback.format_exc(limit=-3)
print(json.dumps({"count": len(names), "failed": failed}))
"""


def test_every_module_imports_alone():
    """A cycle that eager ``__init__``s used to hide fails here."""
    report = json.loads(run_fresh("-c", ALONE))
    assert report["failed"] == {}
    assert report["count"] > 100


REGISTERS = """
import importlib, json, pkgutil
import repro.cc
from repro.cc import base
before = sorted(base._REGISTRY)
for module in pkgutil.iter_modules(repro.cc.__path__, "repro.cc."):
    importlib.import_module(module.name)
print(json.dumps({"before": before, "table": base.BUILTIN_CONTROLLERS,
                  "registered": {name: cls.__module__ for name, cls
                                 in base._REGISTRY.items()}}))
"""


def test_builtin_table_is_what_registers():
    """``BUILTIN_CONTROLLERS`` names every controller that any module of
    ``repro.cc`` registers, against the module that registers it, and
    nothing registers before it is asked for."""
    report = json.loads(run_fresh("-c", REGISTERS))
    assert report["before"] == []
    assert report["registered"] == {
        name: f"repro.cc.{module}" for name, module in report["table"].items()}
    assert sorted(report["table"]) == CONTROLLERS


SHADOW = """
import json, sys
from repro.cc.base import (RateController, make_controller,
                           register_controller, temporary_controller)
class Stub(RateController):
    pass
refused = []
try:
    with temporary_controller("kelly", Stub):
        pass
except ValueError as exc:
    refused.append(str(exc))
try:
    register_controller("tfrc")(Stub)
except ValueError as exc:
    refused.append(str(exc))
mkc = type(make_controller("mkc")).__name__
loaded = sorted(m for m in sys.modules if m.startswith("repro.cc."))
kelly = type(make_controller("kelly")).__name__
print(json.dumps({"refused": refused, "mkc": mkc, "loaded": loaded,
                  "kelly": kelly}))
"""


def test_unloaded_builtin_is_neither_shadowed_nor_loaded_early():
    """A fresh process refuses a stub under a built-in's name before
    that built-in has loaded, and ``make_controller`` loads only the
    module of the controller it makes."""
    report = json.loads(run_fresh("-c", SHADOW))
    assert report["refused"] == ["controller 'kelly' already registered",
                                 "controller 'tfrc' already registered"]
    assert report["mkc"] == "MkcController"
    assert report["loaded"] == ["repro.cc.base", "repro.cc.mkc"]
    assert report["kelly"] == "KellyController"


def test_controller_registry_is_complete():
    names = json.loads(run_fresh(
        "-c", "import json\nfrom repro.cc.base import available_controllers\n"
        "print(json.dumps(available_controllers()))"))
    assert sorted(names) == CONTROLLERS
    help_text = run_fresh("-m", "repro.cli", "simulate", "--help")
    choices = re.search(r"--controller \{([^}]*)\}", help_text)
    assert choices is not None, help_text
    assert sorted(choices.group(1).split(",")) == CONTROLLERS
