"""Determinism regression tests.

The engine guarantees that a run is a pure function of its scenario and
seed: (time, seq) event ordering, simulator-owned randomness, and
per-simulator id allocation.  These tests pin that property end to end
— same seed, same everything — and check that the experiment runner's
process-pool mode reproduces serial results bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.session import PelsScenario, PelsSimulation
from repro.experiments.compare import diverging
from repro.experiments.export import result_to_dict
from repro.experiments.runner import _run_one, main as runner_main, run_all
from repro.experiments import ablations
from repro.faults import FaultSchedule, LinkFlap, RouterRestart
from repro.obs import metrics, tracing


def _fingerprint(sim: PelsSimulation) -> dict:
    """Everything a rerun must reproduce exactly."""
    queue = sim.bottleneck_queue
    return {
        "events": sim.sim.events_dispatched,
        "rates": [list(src.rate_series) for src in sim.sources],
        "gammas": [list(src.gamma_series) for src in sim.sources],
        "flow_rates": sim.flow_rates_bps(),
        "drops": {name: leaf.stats.drops for name, leaf in
                  (("green", queue.green_queue),
                   ("yellow", queue.yellow_queue),
                   ("red", queue.red_queue),
                   ("internet", queue.internet_queue))},
        "virtual_loss": list(sim.feedback.loss_series),
        "received": [sink.packets_received for sink in sim.sinks],
    }


class TestSimulationDeterminism:
    def test_same_seed_reproduces_run_exactly(self):
        scenario = PelsScenario(n_flows=2, duration=8.0, seed=7)
        first = _fingerprint(PelsSimulation(scenario).run())
        second = _fingerprint(PelsSimulation(scenario).run())
        assert first == second

    def test_same_seed_reproduces_stochastic_run_exactly(self):
        # ack_loss_rate drives the simulator rng on the hot path, so
        # this covers the seeded-randomness half of the guarantee.
        scenario = PelsScenario(n_flows=2, duration=8.0, seed=7,
                                ack_loss_rate=0.2)
        first = PelsSimulation(scenario).run()
        second = PelsSimulation(scenario).run()
        assert _fingerprint(first) == _fingerprint(second)
        assert [s.acks_dropped for s in first.sinks] == \
               [s.acks_dropped for s in second.sinks]

    def test_different_seed_diverges(self):
        scenario = PelsScenario(n_flows=2, duration=8.0, seed=7,
                                ack_loss_rate=0.2)
        other = PelsScenario(n_flows=2, duration=8.0, seed=8,
                             ack_loss_rate=0.2)
        a = PelsSimulation(scenario).run()
        b = PelsSimulation(other).run()
        assert [s.acks_dropped for s in a.sinks] != \
               [s.acks_dropped for s in b.sinks]

    def test_node_ids_are_scenario_deterministic(self):
        scenario = PelsScenario(n_flows=2, duration=0.0)
        a = PelsSimulation(scenario)
        b = PelsSimulation(scenario)
        assert [h.node_id for h in a.barbell.sources + a.barbell.sinks] == \
               [h.node_id for h in b.barbell.sources + b.barbell.sinks]
        assert a.feedback.router_id == b.feedback.router_id


class TestRunnerDeterminism:
    def test_only_selects_single_ablation(self):
        results = run_all(fast=True, only="A1")
        assert [r.experiment_id for r in results] == ["A1"]

    def test_only_is_case_insensitive(self):
        results = run_all(fast=True, only="a1")
        assert [r.experiment_id for r in results] == ["A1"]

    def test_ablation_registry_is_complete(self):
        assert list(ablations.ABLATIONS) == [f"A{i}" for i in range(1, 9)]

    def test_worker_process_matches_in_process_run(self):
        serial = _run_one("A1", True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_run_one, "A1", True).result()
        assert diverging([result_to_dict(serial)],
                         [result_to_dict(pooled)]) == []


class TestInstrumentationDeterminism:
    """Observability must not perturb a run: tracing, metrics and
    profiling never schedule events or draw randomness, so an
    instrumented run is event-for-event identical to a plain one."""

    SCENARIO = dict(n_flows=2, duration=6.0, seed=7, ack_loss_rate=0.1)

    def _plain(self) -> dict:
        return _fingerprint(
            PelsSimulation(PelsScenario(**self.SCENARIO)).run())

    def test_traced_run_is_event_identical_to_plain(self):
        plain = self._plain()
        with tracing() as tracer, metrics():
            traced = _fingerprint(
                PelsSimulation(PelsScenario(**self.SCENARIO)).run())
        assert traced == plain
        assert len(tracer) > 0  # the tracer really was recording

    def test_metrics_jsonl_identical_serial_and_jobs(self, tmp_path,
                                                     capsys):
        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        args = ["--fast", "--only", "T1,F2,A1"]
        assert runner_main(args + ["--metrics-out", str(serial)]) == 0
        assert runner_main(args + ["--jobs", "3",
                                   "--metrics-out", str(pooled)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == pooled.read_bytes()


class TestMetaControlDeterminism:
    """Online tuning must preserve both determinism properties: a
    tuned run is a pure function of (scenario, seed) across process
    boundaries, and an attached-but-idle meta-controller perturbs
    nothing."""

    def test_a4_identical_serial_and_pooled(self):
        serial = _run_one("A4", True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_run_one, "A4", True).result()
        assert diverging([result_to_dict(serial)],
                         [result_to_dict(pooled)]) == []

    def test_disabled_meta_is_event_identical_to_none(self):
        from repro.control import MetaControllerConfig

        base = dict(n_flows=2, duration=6.0, seed=7)
        plain = _fingerprint(PelsSimulation(PelsScenario(**base)).run())
        idle = PelsSimulation(PelsScenario(
            **base, meta_controller=MetaControllerConfig(
                tune_rate=False, tune_gamma=False,
                tune_wrr=False))).run()
        assert idle.meta is not None
        assert idle.meta.steps > 0
        assert idle.meta.adjustments == 0
        assert _fingerprint(idle) == plain

    def test_tuned_run_reproduces_across_processes(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_tuned_fingerprint).result()
        assert _tuned_fingerprint() == pooled


def _tuned_fingerprint() -> dict:
    from repro.control import MetaControllerConfig

    scenario = PelsScenario(n_flows=2, duration=6.0, seed=7,
                            meta_controller=MetaControllerConfig())
    sim = PelsSimulation(scenario).run()
    fp = _fingerprint(sim)
    fp["adjustment_log"] = sim.meta.backend.history()
    return fp


class TestFaultedRunDeterminism:
    """A faulted run is a pure function of (scenario, schedule, seed)."""

    @staticmethod
    def _faulted_run() -> PelsSimulation:
        scenario = PelsScenario(n_flows=2, duration=12.0, seed=9,
                                feedback_timeout=1.0)
        sim = PelsSimulation(scenario)
        (FaultSchedule()
         .add(4.0, LinkFlap(sim.barbell.bottleneck, down_for=1.5))
         .add(8.0, RouterRestart(sim.feedback))
         ).install(sim.sim)
        return sim.run()

    def test_same_seed_and_schedule_reproduce_exactly(self):
        first = self._faulted_run()
        second = self._faulted_run()
        assert _fingerprint(first) == _fingerprint(second)
        assert [s.tracker.stale_discarded for s in first.sources] == \
               [s.tracker.stale_discarded for s in second.sources]
        assert [s.blind_intervals for s in first.sources] == \
               [s.blind_intervals for s in second.sources]

    @pytest.mark.slow
    def test_chaos_experiment_matches_across_process_boundary(self):
        """R1 renders byte-identically serially and in a --jobs worker."""
        serial = _run_one("R1", True)
        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_run_one, "R1", True).result()
        assert diverging([result_to_dict(serial)],
                         [result_to_dict(pooled)]) == []
