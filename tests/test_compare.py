"""One comparison of two sweeps: ``compare.diverging`` over ``HOST_FACTS``.

Synthetic artifacts pin what a mismatch is for each kind of key (exact,
host-fact families, live) and for the pairing itself; the table is
checked against the registry and against real ``--fast`` S1/S2 runs.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.compare import diverging, main
from repro.experiments.export import result_to_dict
from repro.experiments.runner import HOST_FACTS, _registry, run_all


def _artifact(key: str, **metrics: float) -> dict:
    result = ExperimentResult(key, f"{key} title")
    result.metrics.update(metrics)
    result.add_table(["a"], [[1]])
    result.note("a note")
    result.series["s"] = [1.0, 2.0]
    return result_to_dict(result)


def _sweep() -> list:
    return [_artifact("T1", x=1.0),
            _artifact("S2", loss_err_a=0.1, wall_s_a=2.0),
            _artifact("SV1", goodput=3.0)]


class TestDiverging:
    def test_equal_sweeps_are_clean(self):
        assert diverging(_sweep(), _sweep()) == []

    def test_wall_time_is_not_compared(self):
        other = _sweep()
        other[0]["wall_time"] = 99.0
        assert diverging(_sweep(), other) == []

    def test_exact_key_with_a_metric_changed_is_reported(self):
        other = _sweep()
        other[0]["metrics"]["x"] = 1.5
        assert diverging(_sweep(), other) == ["T1: differs"]

    @pytest.mark.parametrize("field", ["title", "tables", "notes", "series"])
    def test_exact_key_with_another_field_changed_is_reported(self, field):
        other = _sweep()
        other[0][field] = ["changed"]
        assert diverging(_sweep(), other) == ["T1: differs"]

    def test_declared_family_is_not_compared(self):
        other = _sweep()
        other[1]["metrics"]["wall_s_a"] = 7.0
        assert diverging(_sweep(), other) == []

    def test_undeclared_metric_of_a_family_key_is_reported(self):
        other = _sweep()
        other[1]["metrics"]["loss_err_a"] = 0.2
        assert diverging(_sweep(), other) == ["S2: differs"]

    def test_live_key_with_different_tables_is_not_reported(self):
        other = _sweep()
        other[2]["tables"] = ["another run"]
        other[2]["metrics"]["goodput"] = 2.5
        assert diverging(_sweep(), other) == []

    def test_missing_live_key_is_reported(self):
        assert diverging(_sweep(), _sweep()[:2]) == ["SV1: only in A"]
        assert diverging(_sweep()[:2], _sweep()) == ["SV1: only in B"]

    def test_missing_exact_key_is_reported(self):
        assert diverging(_sweep()[1:], _sweep()) == ["T1: only in B"]

    def test_reordered_keys_are_reported(self):
        assert diverging(_sweep(), _sweep()[::-1]) == [
            "order: T1 S2 SV1 vs SV1 S2 T1"]


class TestEntryPoint:
    def _write(self, path, artifacts):
        path.write_text(json.dumps({"artifacts": artifacts}))
        return str(path)

    def test_exit_code_and_lines(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json", _sweep())
        other = _sweep()
        other[0]["metrics"]["x"] = 2.0
        b = self._write(tmp_path / "b.json", other)
        assert main([a, a]) == 0
        assert capsys.readouterr().out == ""
        assert main([a, b]) == 1
        assert capsys.readouterr().out == "T1: differs\n"

    def test_usage(self, capsys):
        assert main(["only-one.json"]) == 2
        assert "usage" in capsys.readouterr().err


class TestHostFacts:
    def test_every_key_is_a_registry_key(self):
        assert set(HOST_FACTS) <= set(_registry())

    def test_entries_are_families_or_live(self):
        for families in HOST_FACTS.values():
            assert families is None or (
                isinstance(families, tuple)
                and all(isinstance(p, str) and p for p in families))

    def test_each_family_names_a_metric_of_its_fast_run(self):
        keys = [key for key, families in HOST_FACTS.items() if families]
        for result in run_all(fast=True, only=",".join(keys)):
            for prefix in HOST_FACTS[result.experiment_id]:
                assert any(name.startswith(prefix)
                           for name in result.metrics), \
                    (result.experiment_id, prefix)

    def test_two_s1_s2_runs_compare_clean(self):
        first, second = ([result_to_dict(r)
                          for r in run_all(fast=True, only="S1,S2")]
                         for _ in range(2))
        assert diverging(first, second) == []
