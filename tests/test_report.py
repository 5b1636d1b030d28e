"""Tests for the structured session report."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.report import build_report


@pytest.mark.slow
class TestSessionReport:
    @pytest.fixture(scope="class")
    def report(self, converged_four_flow):
        return build_report(converged_four_flow.view)

    def test_theory_columns_match_measurement(self, report):
        assert report.virtual_loss == pytest.approx(
            report.virtual_loss_theory, rel=0.1)
        for flow in report.flows:
            assert flow.mean_rate_bps == pytest.approx(
                report.rate_theory_bps, rel=0.1)

    def test_protection_summary(self, report):
        assert report.drops["green"] == 0
        assert report.drops["yellow"] == 0
        assert report.drops["red"] > 0
        assert report.red_loss == pytest.approx(0.75, abs=0.1)

    def test_per_flow_quality(self, report):
        for flow in report.flows:
            assert flow.mean_utility > 0.9
            assert flow.base_intact_ratio == 1.0
            assert flow.delays_ms["green"] < flow.delays_ms["yellow"] \
                < flow.delays_ms["red"]

    def test_fairness(self, report):
        assert report.fairness() > 0.9

    def test_serializable(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_flows"] == 4
        assert len(payload["flows"]) == 4

    def test_render_is_readable(self, report):
        text = report.render()
        assert "PELS session" in text
        assert "flow 0" in text and "flow 3" in text
        assert "fairness" in text

    def test_warmup_validation(self, converged_four_flow):
        with pytest.raises(ValueError):
            build_report(converged_four_flow.view, warmup_fraction=1.0)


class TestEmptyishReport:
    def test_report_on_short_run(self):
        from repro.core.session import PelsScenario, PelsSimulation
        sim = PelsSimulation(PelsScenario(n_flows=1, duration=2.0,
                                          seed=3)).run()
        report = build_report(sim.view)
        assert report.n_flows == 1
        assert report.duration_s == pytest.approx(2.0)
        # Early in the run there may be no red samples yet.
        assert report.red_loss is None or 0 <= report.red_loss <= 1
