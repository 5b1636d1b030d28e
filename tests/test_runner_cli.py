"""CLI-path coverage for the experiment runner.

Pins the runner's contract surface: the same artifacts between serial
and ``--jobs`` runs (``compare.diverging``), ``--profile`` forcing
serial mode, comma-separated ``--only`` selection, exit code 2 with
near-miss suggestions on unknown artifacts, and whole-series ``--plot``
validation.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.experiments.compare import diverging
from repro.experiments.runner import (_is_plottable, _parse_only, _registry,
                                      main, run_all)


class TestRegistry:
    def test_registry_is_memoized(self):
        assert _registry() is _registry()

    def test_registry_covers_experiments_and_ablations(self):
        registry = _registry()
        assert set(runner.EXPERIMENTS) <= set(registry)
        assert "A1" in registry
        assert "S1" in registry

    def test_ablation_names_follow_the_ablations_table(self):
        from repro.experiments import ablations
        assert list(runner.ABLATIONS) == list(ablations.ABLATIONS)
        for key, fn in ablations.ABLATIONS.items():
            assert _registry()[key] is fn

    def test_every_figure_key_resolves_to_its_module_run(self):
        import importlib
        for key, (module, _, _) in runner.EXPERIMENTS.items():
            run = importlib.import_module(f"repro.experiments.{module}").run
            assert _registry()[key] is run

    def test_descriptions_match_the_docstrings(self):
        """Each table's description is the first line of the docstring
        ``--list`` used to import its module to read: the module's for
        a figure, the entry function's for an ablation (its defining
        module's when the function has none, as A4's)."""
        import importlib
        import inspect
        import sys
        for key, (module, attr, description) in {
                **runner.EXPERIMENTS, **runner.ABLATIONS}.items():
            owner = importlib.import_module(f"repro.experiments.{module}")
            fn = getattr(owner, attr)
            doc = inspect.getdoc(owner)
            if key in runner.ABLATIONS:
                doc = inspect.getdoc(fn) \
                    or inspect.getdoc(sys.modules[fn.__module__])
            assert description == doc.splitlines()[0].strip(), key


class TestListFlag:
    def test_list_prints_every_key_with_description(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        keys = {line.split()[0] for line in lines}
        assert set(_registry()) <= keys
        a4_line = next(line for line in lines if line.startswith("A4"))
        assert "meta-control" in a4_line

    def test_describe_registry_covers_every_key(self):
        from repro.experiments.runner import describe_registry
        entries = dict(describe_registry())
        assert set(entries) == set(_registry())
        # Every runnable artifact documents itself with a one-liner.
        assert all(entries.values())


class TestOnlySelection:
    def test_multi_select_keeps_user_order(self):
        results = run_all(fast=True, only="A1,F2")
        assert [r.experiment_id for r in results] == ["A1", "F2"]

    def test_multi_select_dedupes_and_ignores_spaces(self):
        known, unknown = _parse_only(" f2 , a1 ,F2,")
        assert known == ["F2", "A1"]
        assert unknown == []

    def test_any_unknown_key_selects_nothing(self):
        # Running the valid half of a typo'd list would report success
        # for the wrong set.
        assert run_all(fast=True, only="F2,BOGUS") == []

    def test_unknown_key_exits_2_with_suggestion(self, capsys):
        assert main(["--fast", "--only", "S9"]) == 2
        err = capsys.readouterr().err
        assert "no experiment matches 'S9'" in err
        assert "did you mean" in err
        assert "S1" in err

    def test_unknown_key_without_near_miss_lists_registry(self, capsys):
        assert main(["--fast", "--only", "QQQQQ"]) == 2
        err = capsys.readouterr().err
        assert "no experiment matches 'QQQQQ'" in err
        assert "'T1'" in err


class TestJobsByteIdentical:
    @pytest.mark.slow
    def test_jobs_stdout_matches_serial(self, capsys, tmp_path):
        """Serial and --jobs N must export the same artifacts (reports,
        metrics and series), including the fluid S1 family."""
        argv = ["--fast", "--only", "A1,F2,S1", "--json"]
        serial, parallel = tmp_path / "serial.json", tmp_path / "jobs.json"
        assert main(argv + [str(serial)]) == 0
        assert main(argv + [str(parallel), "--jobs", "2"]) == 0
        assert "== S1:" in capsys.readouterr().out
        assert diverging(*(json.loads(path.read_text())["artifacts"]
                           for path in (serial, parallel))) == []

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "0", "--only", "F2"])
        assert exc.value.code == 2

    def test_chunk_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--chunk", "0", "--only", "S2"])
        assert exc.value.code == 2

    def test_s2_chunked_sweep_stdout_matches_serial(self, capsys):
        """--jobs/--chunk on a single sweep experiment parallelizes its
        internal scenario grid; the rendered report must stay
        byte-identical to the serial run."""
        argv = ["--fast", "--only", "S2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--chunk", "1"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "== S2:" in serial


class TestProfileForcesSerial:
    def test_profile_overrides_jobs(self, capsys, tmp_path):
        out = tmp_path / "prof.pstats"
        assert main(["--fast", "--only", "F2", "--jobs", "4",
                     "--profile", str(out)]) == 0
        err = capsys.readouterr().err
        assert "profiling runs serially; ignoring --jobs" in err
        assert out.exists()


class TestIsPlottable:
    def test_accepts_numeric_series(self):
        assert _is_plottable([1, 2.5, 3])
        assert _is_plottable(([0.0, 1.0], [5, 6]))

    def test_rejects_poison_beyond_first_three(self):
        # The old check sampled only the head of the series.
        assert not _is_plottable([1, 2, 3, "boom"])
        assert not _is_plottable(([0, 1, 2, 3], [1, 2, 3, None]))

    def test_rejects_poisoned_times(self):
        assert not _is_plottable((["a", "b"], [1, 2]))

    def test_rejects_length_mismatch_and_bools(self):
        assert not _is_plottable(([0, 1, 2], [1, 2]))
        assert not _is_plottable([True, False, True])

    def test_rejects_empty_and_non_iterable(self):
        assert not _is_plottable([])
        assert not _is_plottable(((), ()))
        assert not _is_plottable(42)

    def test_plot_skips_mixed_series_without_crashing(self, capsys,
                                                      monkeypatch):
        def fake_run(fast=False):
            result = ExperimentResult("ZZ", "poisoned series")
            result.series["bad"] = ([0, 1, 2], [1.0, "oops", 3.0])
            result.series["good"] = ([0, 1, 2], [1.0, 2.0, 3.0])
            return result

        monkeypatch.setattr(runner, "_REGISTRY", {"ZZ": fake_run})
        assert main(["--fast", "--only", "ZZ", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "good" in out
        assert "bad" not in out
