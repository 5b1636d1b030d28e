"""Bounds, directions and the unresolved rule of compare.py."""

import json

from perfledger import compare, harness


def runs(*values, q=0.0):
    return [(v, v * (1 - q), v * (1 + q)) for v in values]


class TestVerdict:
    def test_lower_is_better(self):
        assert compare.verdict(runs(100), runs(104), "lower", 0.10)[0] == "ok"
        assert compare.verdict(runs(100), runs(115), "lower", 0.10)[0] \
            == "REGRESSED"
        assert compare.verdict(runs(100), runs(80), "lower", 0.10)[0] \
            == "improved"

    def test_higher_is_better(self):
        word, worse = compare.verdict(runs(100), runs(85), "higher", 0.10)
        assert word == "REGRESSED" and abs(worse - 0.15) < 1e-12
        assert compare.verdict(runs(100), runs(120), "higher", 0.10)[0] \
            == "improved"

    def test_wide_spread_is_unresolved_not_unchanged(self):
        noisy = runs(100, q=0.2)     # quartiles 80..120: spread 40 %
        assert compare.verdict(noisy, runs(104), "lower", 0.10)[0] \
            == "unresolved"
        # ... unless every run of the change beats every parent run.
        parent = runs(100, 130, 90, 120, 105)
        change = runs(60, 70, 65, 80, 75)
        assert compare.spread(parent) > 0.10
        assert compare.verdict(parent, change, "lower", 0.10)[0] \
            == "improved"

    def test_spread_across_runs_when_there_are_four(self):
        assert compare.spread(runs(10, 10, 10, 10, q=0.5)) == 0.0
        assert compare.spread(runs(10, q=0.5)) == 1.0


def test_main_reads_single_and_combined_files(tmp_path, capsys):
    def result(path, value, workload="sim_cbr_100"):
        rows = [harness.summarise("work_per_s", "1/s", [value], 1)]
        harness.write_result(path, {"workload": workload, "trace": 0}, rows)
        return json.loads(path.read_text())

    one = result(tmp_path / "a.json", 6.0)
    two = result(tmp_path / "b.json", 3.0)
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "a.json")]) == 0
    assert compare.main([str(tmp_path / "a.json"),
                         str(tmp_path / "b.json")]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    combined = tmp_path / "c.json"
    combined.write_text(json.dumps(
        {"schema": harness.SCHEMA, "runs": [one, two]}))
    assert compare.main([str(combined), str(combined)]) == 0
    assert compare.main([str(tmp_path / "missing.json"),
                         str(combined)]) == 2
