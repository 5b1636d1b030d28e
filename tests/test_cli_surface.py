"""The ``pels`` front door, pinned.

``cli_surface_parent.json`` was generated from the commit *before*
``cli.py`` began reading flag types and defaults off the config records
(per verb and ``dest``: option strings, type name, default, choices,
nargs, required).  The projection must reproduce it exactly; the only
additions are the two flags ``pels experiments`` gains by being the
runner's own parser.  The per-verb cases then check that the record a
verb builds from its flags is the record built by hand from the same
values — without running the verb.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.core.pels_queue import PelsQueueConfig
from repro.experiments import runner

VECTOR = json.loads(
    (Path(__file__).parent / "cli_surface_parent.json").read_text())


def _surface() -> dict:
    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {verb: {action.dest: {
        "flags": list(action.option_strings),
        "type": getattr(action.type, "__name__", None),
        "default": action.default,
        "choices": (list(action.choices) if action.choices is not None
                    else None),
        "nargs": action.nargs, "required": action.required}
        for action in verb_parser.declared()._actions
        if not isinstance(action, argparse._HelpAction)}
        for verb, verb_parser in sub.choices.items()}


class TestSurface:
    def test_every_verb_matches_the_parent_vector(self):
        surface = _surface()
        gained = {dest: surface["experiments"].pop(dest, None)
                  for dest in ("plot", "profile")}
        assert surface == VECTOR
        assert gained["plot"]["flags"] == ["--plot"]
        assert gained["profile"]["flags"] == ["--profile"]

    def test_experiments_accepts_plot(self):
        assert cli.main(["experiments", "--fast", "--only", "A1",
                         "--plot"]) == 0

    def test_experiments_help_is_the_runners_help(self, capsys):
        texts = []
        for entry, argv in ((cli.main, ["experiments", "-h"]),
                            (runner.main, ["-h"])):
            with pytest.raises(SystemExit) as exc:
                entry(argv)
            assert exc.value.code == 0
            usage = capsys.readouterr().out
            prog = re.match(r"usage: (.*?) \[-h\]", usage).group(1)
            texts.append(" ".join(usage.replace(prog, "PROG").split()))
        assert texts[0] == texts[1]

    def test_validation_errors_name_the_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiments", "--jobs", "0"])
        assert exc.value.code == 2
        assert "pels experiments: error: --jobs" in capsys.readouterr().err


class _Built(Exception):
    """Raised in place of running a verb; carries what it was given."""


def _stop(*args, **kwargs):
    raise _Built(args, kwargs)


def _built(monkeypatch, target: str, argv) -> tuple:
    monkeypatch.setattr(target, _stop)
    with pytest.raises(_Built) as exc:
        cli.main(argv)
    return exc.value.args


def _flat(record) -> dict:
    """Field values, the eq-less queue config by its own fields."""
    return {name: vars(value) if isinstance(value, PelsQueueConfig)
            else value for name, value in vars(record).items()}


class TestVerbsBuildTheirRecords:
    def test_live(self, monkeypatch):
        from repro.live.session import LiveConfig
        (config,), _ = _built(
            monkeypatch, "repro.live.session.run_live_session",
            ["live", "--flows", "3", "--duration", "1.5", "--alpha", "15000",
             "--beta", "0.4", "--p-thr", "0.7", "--sigma", "0.3",
             "--controller", "aimd", "--bottleneck", "3000000",
             "--interval", "0.02", "--cross-traffic", "none", "--seed", "5",
             "--tune"])
        assert _flat(config) == _flat(LiveConfig(
            n_flows=3, duration=1.5, alpha_bps=15000.0, beta=0.4, p_thr=0.7,
            sigma=0.3, controller_name="aimd", bottleneck_bps=3000000.0,
            feedback_interval=0.02, cross_traffic="none", seed=5,
            tune=True))

    def test_live_defaults_are_the_records(self, monkeypatch):
        from repro.live.session import LiveConfig
        (config,), _ = _built(
            monkeypatch, "repro.live.session.run_live_session", ["live"])
        assert _flat(config) == _flat(LiveConfig())

    def test_gateway(self, monkeypatch):
        from repro.live.loadgen import LoadConfig
        from repro.live.supervisor import SupervisorConfig
        (config,), kwargs = _built(
            monkeypatch, "repro.live.loadgen.run_load",
            ["gateway", "--flows", "20", "--shards", "3", "--duration", "6",
             "--tenants", "2", "--flow-share", "9000", "--alpha", "800",
             "--beta", "0.6", "--churn", "4", "--seed", "9", "--supervise"])
        assert kwargs == {"chaos": None}
        assert _flat(config) == _flat(LoadConfig(
            flows=20, shards=3, duration=6.0, tenants=2,
            flow_share_bps=9000.0, alpha_bps=800.0, beta=0.6, churn_flows=4,
            seed=9, supervisor=SupervisorConfig()))

    def test_gateway_chaos_implies_supervision_and_watchdog(
            self, monkeypatch):
        from repro.live.loadgen import LoadConfig
        from repro.live.supervisor import SupervisorConfig
        (config,), kwargs = _built(
            monkeypatch, "repro.live.loadgen.run_load",
            ["gateway", "--duration", "6", "--chaos", "kill"])
        assert callable(kwargs["chaos"])
        assert _flat(config) == _flat(LoadConfig(
            flows=100, shards=2, duration=6.0, supervisor=SupervisorConfig(),
            feedback_timeout=0.4, post_window=2.0))

    def test_fluid(self, monkeypatch):
        from repro.fluid import FluidScenario
        (scenario,), kwargs = _built(
            monkeypatch, "repro.fluid.FluidEngine",
            ["fluid", "--flows", "50", "--duration", "20", "--capacity",
             "1000000", "3000000", "--alpha", "10000", "--beta", "0.4",
             "--p-thr", "0.8", "--sigma", "0.25", "--rtt", "0.1",
             "--backend", "list"])
        assert kwargs == {"backend": "list"}
        assert scenario == FluidScenario(
            n_flows=50, duration=20.0,
            capacities_bps=(1000000.0, 3000000.0), alpha_bps=10000.0,
            beta=0.4, p_thr=0.8, sigma=0.25, rtt_s=0.1)

    def test_serve(self, monkeypatch):
        from repro.service.api import ServiceConfig
        (config,), _ = _built(
            monkeypatch, "repro.service.api.serve",
            ["serve", "--workers", "3", "--storage", "runs", "--host",
             "0.0.0.0", "--port", "0", "--heartbeat-timeout", "1.5"])
        assert config == ServiceConfig(
            storage_dir="runs", workers=3, host="0.0.0.0", port=0,
            heartbeat_timeout=1.5)

    @pytest.mark.parametrize("argv, method, sent", [
        (["submit", "A4", "S2", "--fast", "--priority", "2", "--timeout",
          "30", "--retries", "3"], "submit",
         ([{"key": key, "fast": True, "priority": 2, "timeout": 30.0,
            "retries": 3} for key in ("A4", "S2")],)),
        (["status", "job-1"], "job", ("job-1",)),
        (["artifacts", "job-1"], "artifact", ("job-1",)),
    ])
    def test_service_clients(self, monkeypatch, argv, method, sent):
        from repro.service.client import ServiceClient
        where = []
        init = ServiceClient.__init__

        def record_address(self, host, port):
            where.append((host, port))
            init(self, host, port)

        monkeypatch.setattr(ServiceClient, "__init__", record_address)
        args, _ = _built(
            monkeypatch, f"repro.service.client.ServiceClient.{method}",
            argv + ["--host", "10.0.0.7", "--port", "8000"])
        assert where == [("10.0.0.7", 8000)]
        assert args[1:] == sent  # args[0] is the client itself
