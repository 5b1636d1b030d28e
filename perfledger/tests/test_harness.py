"""Percentile rule, quartiles, lateness accounting, result round trip."""

import statistics

import pytest

from perfledger import harness


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond it, p99.9 one.
        label, value = harness.tail_percentile(list(range(1, 1001)))
        assert (label, value) == ("p99", 990)

    def test_small_sample_falls_back_to_lower_percentiles(self):
        # 40 samples: p75 leaves 10 beyond, p90 only 4.
        label, value = harness.tail_percentile(list(range(1, 41)))
        assert (label, value) == ("p75", 30)
        # 15 samples: not even p75 has ten beyond it -> the median.
        label, value = harness.tail_percentile(list(range(1, 16)))
        assert (label, value) == ("p50", 8)

    def test_large_sample_reaches_p99_9(self):
        label, _ = harness.tail_percentile(list(range(10_000)))
        assert label == "p99_9"

    def test_percentile_is_nearest_rank(self):
        assert harness.percentile([5, 1, 3], 0.5) == 3
        assert harness.percentile([5, 1, 3], 1.0) == 5
        assert harness.percentile([4, 2], 0.5) == 2


class TestSummarise:
    def test_quartiles_match_the_driver(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q = statistics.quantiles(values, n=4)
        row = harness.summarise("sim.engine.events", "count", values, 7)
        assert (row.q1, row.q3) == (q[0], q[2])
        assert row.value == statistics.median(values)
        assert (row.layer, row.metric, row.n, row.seed) == \
            ("sim.engine", "events", 7, 7)
        assert row.name == "sim.engine.events"

    def test_single_sample_is_its_own_quartiles(self):
        row = harness.summarise("setup_s", "s", [0.25], 1)
        assert (row.layer, row.name) == ("e2e", "setup_s")
        assert (row.value, row.q1, row.q3, row.n) == (0.25, 0.25, 0.25, 1)


class TestLateness:
    def test_open_loop_lateness(self):
        late = harness.Lateness()
        assert late.note(due=1.0, now=1.0) == 0.0
        assert late.note(due=2.0, now=2.25) == 0.25
        # Early wake-ups are not negative lateness.
        assert late.note(due=3.0, now=2.9) == 0.0
        assert late.max_s == 0.25
        assert late.count == 3

    def test_latency_from_due_time_includes_the_stall(self):
        # A generator stalled 0.5 s sends request 2 late; its latency
        # is measured from when it was due, so the stall is counted.
        due, sent, done = 10.0, 10.5, 10.6
        late = harness.Lateness()
        late.note(due, sent)
        assert done - due == pytest.approx(0.6)
        assert late.max_s == pytest.approx(0.5)


class TestMeasure:
    def test_scales_by_bracketing_calibrations(self, monkeypatch):
        # A host running at half the reference speed: every measured
        # second is worth half a reference-host second.
        monkeypatch.setattr(harness, "calibrate",
                            lambda: 2 * harness.REF_CAL_S)
        ticks = iter([0.0, 1.0, 1.0, 4.0])
        monkeypatch.setattr(harness.time, "perf_counter",
                            lambda: next(ticks))
        monkeypatch.setattr(harness.time, "process_time", lambda: 0.0)
        timing = harness.measure([lambda: None, lambda: None])
        assert timing.wall_s == 4.0
        assert timing.wall_ref_s == pytest.approx(2.0)


class TestResultFile:
    def test_round_trip(self, tmp_path):
        rows = [harness.summarise("work_per_s", "1/s", [5.0, 6.0, 7.0], 3),
                harness.summarise("live.wire.peek_ns", "ns", [299.5], 3)]
        header = {"workload": "sim_cbr_100", "seed": 3, "trace": 0,
                  "host": {"nproc": 2}}
        path = tmp_path / "out" / "r.json"
        harness.write_result(path, header, rows)
        [(got_header, got_rows)] = harness.read_result(path)
        assert got_rows == rows
        assert got_header["schema"] == harness.SCHEMA
        assert got_header["workload"] == "sim_cbr_100"
        for row in got_rows:
            assert set(vars(row)) == {"layer", "metric", "unit", "value",
                                      "q1", "q3", "n", "seed"}

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"benchmarks": []}')
        with pytest.raises(ValueError):
            harness.read_result(path)

    def test_fingerprint_fields(self):
        host = harness.host_fingerprint()
        assert {"nproc", "cpu_model", "python", "numpy",
                "git_sha"} <= set(host)
