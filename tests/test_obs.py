"""Unit and integration coverage for the observability layer.

Tracer ring semantics, metrics instruments, profiling hooks, the
per-epoch simulation monitor, and the user-facing surfaces (``pels
trace <experiment>``, ``--metrics-out``).  The determinism suite
separately pins that none of this perturbs an instrumented run.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main as cli_main
from repro.core.session import PelsScenario, PelsSimulation
from repro.experiments.export import metrics_jsonl_lines
from repro.experiments.runner import main as runner_main
from repro.obs import (EVENT_TYPES, Counter, Gauge, Histogram,
                       MetricsRegistry, Tracer, activate, activate_metrics,
                       current_registry, current_tracer, deactivate,
                       deactivate_metrics, disable_profiling, merge_profile,
                       metrics, profile_snapshot, reset_profile, tracing,
                       write_profile_report)
from repro.obs.monitor import SimulationMonitor


class TestTracer:
    def test_ring_evicts_oldest_beyond_capacity(self):
        tracer = Tracer(capacity=3)
        for flow in range(5):
            tracer.gamma_step(float(flow), flow, 0.5)
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.evicted() == 2
        assert [e["flow"] for e in tracer.to_dicts()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_typed_emitters_cover_the_event_taxonomy(self):
        tracer = Tracer()
        tracer.epoch(1.0, 7, 3, 1e6, 0.1)
        tracer.rate(1.0, 0, 0.1, 1e6)
        tracer.gamma_step(1.0, 0, 0.8)
        tracer.enqueue("q", 2, 0, True)
        tracer.dequeue("q", 2, 0)
        tracer.drop("q", "overflow", 2, 0)
        tracer.wrr(0, 2, 1500.0)
        tracer.link_state("bottleneck", False)
        tracer.fault(2.0, "link-down:bottleneck")
        tracer.blind(3.0, 0, True)
        tracer.fluid_sample(4.0, 100, 5e5, 0.05)
        assert {e["type"] for e in tracer.to_dicts()} == EVENT_TYPES

    def test_now_without_clock_is_sentinel(self):
        tracer = Tracer()
        tracer.enqueue("q", 0, 0, True)
        assert tracer.to_dicts()[0]["t"] == -1.0

    def test_bound_clock_stamps_events(self):
        class Clock:
            now = 42.5

        tracer = Tracer()
        tracer.bind_clock(Clock())
        tracer.dequeue("q", 1, 3)
        assert tracer.to_dicts()[0]["t"] == 42.5

    def test_clear_resets_ring_and_counters(self):
        tracer = Tracer()
        tracer.fault(1.0, "x")
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.epoch(0.03, 1, 2, 2e6, 0.2)
        tracer.drop("pels", "overflow", 2, 1)
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "epoch" and records[0]["z"] == 2
        assert records[1]["reason"] == "overflow"

    def test_activation_scoping(self):
        assert current_tracer() is None
        with tracing() as tracer:
            assert current_tracer() is tracer
            with tracing(Tracer(capacity=8)) as inner:
                assert current_tracer() is inner
        assert current_tracer() is None
        explicit = activate(Tracer())
        assert deactivate() is explicit
        assert current_tracer() is None


class TestMetrics:
    def test_counter_is_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.to_value() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_keeps_last_value(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.to_value() == 1.5

    def test_histogram_buckets_and_summary(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        summary = hist.to_value()
        assert summary["buckets"] == [1, 1, 1]
        assert summary["count"] == 3
        assert summary["min"] == 0.5 and summary["max"] == 50.0
        assert hist.mean() == pytest.approx(55.5 / 3)
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_registry_creates_instruments_once(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert registry.names() == ["a", "b", "c"]

    def test_snapshot_ring_is_bounded(self):
        registry = MetricsRegistry(snapshot_capacity=2)
        registry.counter("hits").inc()
        for t in range(4):
            registry.snapshot(float(t))
        assert [s["t"] for s in registry.snapshots] == [2.0, 3.0]
        with pytest.raises(ValueError):
            MetricsRegistry(snapshot_capacity=0)

    def test_snapshot_is_isolated_from_later_mutation(self):
        # The returned dict and the ring entry must be independent deep
        # copies: callers aggregate into the returned snapshot (summing
        # histogram buckets across runs), and a shared reference would
        # silently corrupt the archived ring entry.
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        returned = registry.snapshot(1.0)
        ring = registry.snapshots[-1]
        assert returned == ring and returned is not ring

        returned["counters"]["hits"] = 999
        returned["histograms"]["lat"]["buckets"][0] += 7
        assert ring["counters"]["hits"] == 3
        assert ring["histograms"]["lat"]["buckets"] == [1, 0]

        ring["histograms"]["lat"]["buckets"][0] = -1
        assert returned["histograms"]["lat"]["buckets"] == [8, 0]
        # and neither touched the live instruments
        assert registry.counter("hits").to_value() == 3

    def test_jsonl_export(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("queue.depth").set(7)
        registry.snapshot(0.03)
        path = tmp_path / "metrics.jsonl"
        assert registry.write_jsonl(str(path)) == 1
        record = json.loads(path.read_text())
        assert record["t"] == 0.03
        assert record["gauges"]["queue.depth"] == 7

    def test_activation_scoping(self):
        assert current_registry() is None
        with metrics() as registry:
            assert current_registry() is registry
        assert current_registry() is None
        explicit = activate_metrics(MetricsRegistry())
        assert deactivate_metrics() is explicit


class TestProfiling:
    def teardown_method(self):
        disable_profiling()
        reset_profile()

    def test_merge_accumulates_counts_and_seconds(self):
        reset_profile()
        merge_profile({"f": [2, 0.5]})
        merge_profile({"f": [1, 0.25], "g": [3, 0.1]})
        snap = profile_snapshot()
        assert snap["f"] == [3, 0.75]
        assert snap["g"] == [3, 0.1]
        # Snapshots are copies, not views.
        snap["f"][0] = 99
        assert profile_snapshot()["f"][0] == 3

    def test_report_formats_hottest_first(self):
        reset_profile()
        merge_profile({"cold": [1, 0.001], "hot": [10, 2.0]})
        stream = io.StringIO()
        write_profile_report(stream)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[profile]")
        assert "hot" in lines[1] and "cold" in lines[2]

    def test_empty_report_says_so(self):
        reset_profile()
        stream = io.StringIO()
        write_profile_report(stream)
        assert "no instrumented callbacks" in stream.getvalue()


class TestSimulationMonitor:
    def test_plain_run_attaches_no_monitor(self):
        sim = PelsSimulation(PelsScenario(n_flows=2, duration=0.0))
        assert sim.monitor is None

    def test_traced_run_snapshots_every_epoch(self):
        scenario = PelsScenario(n_flows=2, duration=3.0, seed=5)
        with tracing() as tracer, metrics() as registry:
            sim = PelsSimulation(scenario).run()
        monitor = sim.monitor
        assert isinstance(monitor, SimulationMonitor)
        # One snapshot per 30 ms feedback epoch over 3 s (t=3.00 fires).
        assert monitor.epochs_observed == len(registry.snapshots) == 100
        last = registry.snapshots[-1]
        gauges = last["gauges"]
        assert "queue.pels-bottleneck.red" in gauges
        assert "flow.0.conv_err" in gauges and "flow.1.rate_bps" in gauges
        assert gauges["engine.heap_depth"] > 0
        hist = last["histograms"]["engine.wall_per_sim_s"]
        assert hist["count"] > 0
        # The tracer rode along on the same run.
        types = {e["type"] for e in tracer.to_dicts()}
        assert {"epoch", "rate", "gamma", "enqueue", "dequeue",
                "wrr"} <= types

    def test_conv_err_tracks_lemma6(self):
        scenario = PelsScenario(n_flows=2, duration=20.0, seed=5)
        with metrics() as registry:
            PelsSimulation(scenario).run()
        conv = registry.snapshots[-1]["gauges"]["flow.0.conv_err"]
        assert conv < 0.25  # converged to within 25% of r* by t=20

    def test_multihop_monitor_covers_every_hop(self):
        from repro.core.multihop import (MultiHopPelsSimulation,
                                         MultiHopScenario)
        scenario = MultiHopScenario(n_flows=2, duration=2.0, seed=5)
        with metrics() as registry:
            sim = MultiHopPelsSimulation(scenario).run()
        assert sim.monitor is not None
        gauges = registry.snapshots[-1]["gauges"]
        assert "queue.hop0-pels.red" in gauges
        assert "queue.hop1-pels.red" in gauges


class TestCliSurfaces:
    def test_trace_experiment_emits_valid_jsonl(self, tmp_path, capsys):
        out = tmp_path / "f2.jsonl"
        assert cli_main(["trace", "F2", "--fast", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "run"
        assert header["experiment_id"] == "F2"
        assert header["failed"] is False
        for line in lines[1:]:
            json.loads(line)

    def test_trace_experiment_to_stdout(self, capsys):
        assert cli_main(["trace", "f2", "--fast"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["experiment_id"] == "F2"

    def test_trace_unknown_experiment_fails_with_hint(self, capsys):
        assert cli_main(["trace", "F99", "--fast"]) == 2
        err = capsys.readouterr().err
        assert "no experiment matches" in err

    def test_trace_legacy_video_mode_still_works(self, capsys):
        assert cli_main(["trace", "--frames", "5", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["frames"]) == 5

    def test_runner_metrics_out_is_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "metrics.jsonl"
        code = runner_main(["--fast", "--only", "T1,F2",
                            "--metrics-out", str(path)])
        capsys.readouterr()
        assert code == 0
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["experiment_id"] for r in records] == ["T1", "F2"]
        assert all(r["failed"] is False for r in records)
        assert all(isinstance(r["metrics"], dict) for r in records)

    def test_metrics_lines_exclude_wall_times(self):
        from repro.experiments.common import ExperimentResult
        result = ExperimentResult("T9", "demo")
        result.metrics["x"] = 1.0
        result.wall_time = 123.4
        (line,) = metrics_jsonl_lines([result])
        assert "123.4" not in line
        assert json.loads(line)["metrics"] == {"x": 1.0}
