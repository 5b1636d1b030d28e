"""Tests for the CLI and the result exporters."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.common import ExperimentResult
from repro.experiments.export import (result_to_dict, write_json,
                                      write_series_csv)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.flows == 2
        assert args.controller == "mkc"

    def test_invalid_cross_traffic_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--cross-traffic", "x"])


class TestAnalyze:
    def test_prints_closed_forms(self, capsys):
        assert main(["analyze", "--loss", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "9.00 packets" in out       # E[Y] at p=0.1, H=100
        assert "0.1000" in out             # Eq. 3 utility
        assert "1040.0 kb/s" in out        # Lemma 6

    def test_respects_parameters(self, capsys):
        main(["analyze", "--loss", "0.5", "--frame", "10",
              "--flows", "4", "--capacity", "4000000"])
        out = capsys.readouterr().out
        assert "1040.0 kb/s" in out  # 4M/4 + 40k

    #: Byte-exact stdout below, at and above p_thr (gamma* > 1: bound 0).
    PINNED = {
        "0.1": """Closed forms at p = 0.1, H = 100, p_thr = 0.75:
  E[Y] best-effort (Eq. 2)   : 9.00 packets
  E[Y] optimal               : 90.00 packets
  utility best-effort (Eq. 3): 0.1000
  utility PELS bound (Eq. 6) : 0.9630
  gamma* = p/p_thr           : 0.1333
  MKC r* (Lemma 6)           : 1040.0 kb/s for 2 flows on 2.0 mb/s
  MKC equilibrium loss p*    : 0.0385
""",
        "0.75": """Closed forms at p = 0.75, H = 100, p_thr = 0.75:
  E[Y] best-effort (Eq. 2)   : 0.33 packets
  E[Y] optimal               : 25.00 packets
  utility best-effort (Eq. 3): 0.0133
  utility PELS bound (Eq. 6) : 0.0000
  gamma* = p/p_thr           : 1.0000
  MKC r* (Lemma 6)           : 1040.0 kb/s for 2 flows on 2.0 mb/s
  MKC equilibrium loss p*    : 0.0385
""",
        "0.9": """Closed forms at p = 0.9, H = 100, p_thr = 0.75:
  E[Y] best-effort (Eq. 2)   : 0.11 packets
  E[Y] optimal               : 10.00 packets
  utility best-effort (Eq. 3): 0.0111
  utility PELS bound (Eq. 6) : 0.0000
  gamma* = p/p_thr           : 1.2000
  MKC r* (Lemma 6)           : 1040.0 kb/s for 2 flows on 2.0 mb/s
  MKC equilibrium loss p*    : 0.0385
"""}

    @pytest.mark.parametrize("loss", sorted(PINNED))
    def test_pinned_output(self, capsys, loss):
        assert main(["analyze", "--loss", loss, "--p-thr", "0.75"]) == 0
        captured = capsys.readouterr()
        assert captured.out == self.PINNED[loss]
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["--loss", "1.0"], ["--loss", "-0.1"],
        ["--loss", "0.1", "--p-thr", "0"], ["--loss", "0.1", "--frame", "-3"],
        ["--loss", "0.1", "--beta", "0"],
        ["--loss", "0.1", "--capacity", "-1"],
        ["--loss", "0.1", "--alpha", "nan"]])
    def test_out_of_domain_is_one_line_and_exit_2(self, capsys, argv):
        assert main(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1


class TestTrace:
    def test_writes_json_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(["trace", "--frames", "12", "--out",
                     str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["frames"]) == 12
        assert payload["frames"][0]["intra"] is True

    def test_stdout_mode(self, capsys):
        main(["trace", "--frames", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["frames"]) == 3

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["trace", "--frames", "20", "--seed", "3", "--out", str(a)])
        main(["trace", "--frames", "20", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()


@pytest.mark.slow
class TestSimulateCommand:
    def test_runs_and_reports(self, capsys, tmp_path):
        out_file = tmp_path / "summary.json"
        assert main(["simulate", "--flows", "2", "--duration", "10",
                     "--json", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "flow 0" in out
        report = json.loads(out_file.read_text())
        assert report["n_flows"] == 2
        assert report["drops"]["yellow"] == 0
        assert len(report["flows"]) == 2
        assert report["flows"][0]["mean_rate_bps"] > 0

    def test_experiments_passthrough(self, capsys):
        assert main(["experiments", "--fast", "--only", "T1"]) == 0
        assert "T1" in capsys.readouterr().out


class TestExport:
    def _result(self) -> ExperimentResult:
        result = ExperimentResult("T0", "demo")
        result.add_table(["a"], [[1]])
        result.metrics["m"] = 1.5
        result.series["timed"] = ([0.0, 1.0], [2.0, 3.0])
        result.series["plain"] = [4.0, 5.0]
        return result

    def test_result_to_dict_roundtrips_json(self):
        payload = result_to_dict(self._result())
        restored = json.loads(json.dumps(payload))
        assert restored["experiment_id"] == "T0"
        assert restored["metrics"]["m"] == 1.5
        assert restored["series"]["timed"]["values"] == [2.0, 3.0]
        assert restored["series"]["plain"] == [4.0, 5.0]

    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_json([self._result()], str(path))
        payload = json.loads(path.read_text())
        assert len(payload["artifacts"]) == 1

    def test_write_series_csv_timed(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(self._result(), "timed", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,value"
        assert lines[1] == "0.0,2.0"

    def test_write_series_csv_plain(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(self._result(), "plain", str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert lines[2] == "1,5.0"

    def test_unknown_series_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            write_series_csv(self._result(), "nope", str(tmp_path / "x"))


class TestSchemaVersion:
    def _payload(self) -> dict:
        result = ExperimentResult("T0", "demo")
        result.metrics["m"] = 1.5
        return result_to_dict(result)

    def test_exports_are_stamped(self):
        from repro.experiments.export import SCHEMA_VERSION
        assert self._payload()["schema_version"] == SCHEMA_VERSION

    def test_current_version_round_trips(self):
        from repro.experiments.export import result_from_dict
        restored = result_from_dict(self._payload())
        assert restored.experiment_id == "T0"
        assert restored.metrics["m"] == 1.5

    def test_unstamped_v1_payload_is_upgraded(self):
        from repro.experiments.export import result_from_dict
        payload = self._payload()
        del payload["schema_version"]  # the seed's unversioned format
        restored = result_from_dict(payload)
        assert restored.experiment_id == "T0"
        assert restored.metrics["m"] == 1.5

    def test_newer_writer_is_rejected(self):
        from repro.experiments.export import SCHEMA_VERSION, \
            result_from_dict
        payload = self._payload()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            result_from_dict(payload)

    @pytest.mark.parametrize("stamp", ["two", None, 0, -3])
    def test_invalid_stamps_are_rejected(self, stamp):
        from repro.experiments.export import result_from_dict
        payload = self._payload()
        payload["schema_version"] = stamp
        with pytest.raises(ValueError):
            result_from_dict(payload)


class TestPlotCommand:
    def _results_file(self, tmp_path):
        from repro.experiments.export import write_json
        result = ExperimentResult("F0", "demo")
        result.series["timed"] = ([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        result.series["plain"] = [3.0, 2.0, 1.0]
        path = tmp_path / "results.json"
        write_json([result], str(path))
        return path

    def test_plots_named_series(self, tmp_path, capsys):
        path = self._results_file(tmp_path)
        assert main(["plot", str(path), "F0", "timed"]) == 0
        out = capsys.readouterr().out
        assert "[F0]" in out
        assert "* timed" in out

    def test_plots_all_series_by_default(self, tmp_path, capsys):
        path = self._results_file(tmp_path)
        assert main(["plot", str(path), "F0"]) == 0
        out = capsys.readouterr().out
        assert "timed" in out and "plain" in out

    def test_unknown_artifact_errors(self, tmp_path, capsys):
        path = self._results_file(tmp_path)
        assert main(["plot", str(path), "ZZ"]) == 2

    def test_unknown_series_errors(self, tmp_path, capsys):
        path = self._results_file(tmp_path)
        assert main(["plot", str(path), "F0", "nope"]) == 2
