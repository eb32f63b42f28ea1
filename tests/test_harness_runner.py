"""Tests for the one-shot experiment runner and its command-line interface."""

from __future__ import annotations

import pytest

from repro.harness.runner import EXPERIMENTS, build_report, main, run_experiments


class TestRunExperiments:
    def test_registry_covers_every_paper_artifact(self):
        keys = {spec.key for spec in EXPERIMENTS}
        assert keys == {
            "fig01", "tab02", "tab03", "fig10", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "temporal", "isa", "ablations",
            "dse",
        }

    def test_temporal_experiment_runs_whole_networks(self):
        results = run_experiments(keys=["temporal"], benchmarks=("LeNet-5",))
        _, rendered, _ = results[0]
        assert "temporal" in rendered.lower()
        assert "LeNet-5" in rendered
        assert "geomean speedup" in rendered

    def test_run_single_experiment(self):
        results = run_experiments(keys=["fig01"])
        assert len(results) == 1
        spec, rendered, elapsed = results[0]
        assert spec.key == "fig01"
        assert "bitwidth" in rendered.lower()
        assert elapsed >= 0.0

    def test_run_with_benchmark_subset(self):
        results = run_experiments(keys=["tab02"], benchmarks=("LeNet-5",))
        _, rendered, _ = results[0]
        assert "LeNet-5" in rendered
        assert "AlexNet" not in rendered

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiments(keys=["fig99"])

    def test_platform_table_ignores_benchmark_subset(self):
        _, rendered, _ = run_experiments(keys=["tab03"], benchmarks=("LeNet-5",))[0]
        assert "Eyeriss" in rendered


class TestBuildReport:
    def test_report_contains_sections_and_code_blocks(self):
        report = build_report(keys=["fig01", "fig10"], benchmarks=("LeNet-5",))
        assert report.startswith("# Bit Fusion reproduction")
        assert "## Figure 1" in report
        assert "## Figure 10" in report
        assert "```" in report


class TestCommandLine:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "ablations" in out

    def test_report_to_stdout(self, capsys):
        assert main(["--experiments", "fig01", "--benchmarks", "LeNet-5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert (
            main(
                [
                    "--experiments",
                    "tab02",
                    "--benchmarks",
                    "LeNet-5",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        assert target.exists()
        assert "Table II" in target.read_text()
        assert "wrote report" in capsys.readouterr().out

    def test_unknown_experiment_is_a_clean_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--experiments", "nosuch"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment(s) 'nosuch'" in err
        assert "Traceback" not in err
        for spec in EXPERIMENTS:
            assert spec.key in err

    @pytest.mark.parametrize("command", ["report", "sweep", "worker"])
    def test_cache_dir_that_is_a_file_is_a_clean_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "not-a-dir"
        path.write_text("x", encoding="utf-8")
        spec = tmp_path / "sweep.json"
        spec.write_text('{"networks": ["LeNet-5"]}', encoding="utf-8")
        argv = {
            "report": ["--experiments", "tab02", "--benchmarks", "LeNet-5"],
            "sweep": ["sweep", str(spec)],
            "worker": ["worker"],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--cache-dir", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"cache directory {str(path)!r} is not a directory" in err
        assert "Traceback" not in err
