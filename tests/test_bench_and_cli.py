"""Tests for the benchmark harness, reporting utilities, experiment drivers and CLI."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    INF,
    OUT,
    Measurement,
    bench_scale,
    format_seconds,
    format_table,
    pivot,
    run_algorithms,
    run_imb,
    run_inflation,
    run_itraversal,
    scaled,
    time_call,
)
from repro.bench.experiments import (
    experiment_fig7a,
    experiment_fig7de,
    experiment_fig8b,
    experiment_fig9b,
    experiment_fig10,
    experiment_fig11cd,
    experiment_fig12,
    experiment_table1,
)
from repro.cli import main
from repro.graph import paper_example_graph, write_edge_list


class TestReporting:
    def test_format_seconds(self):
        assert format_seconds(None) == INF
        assert format_seconds(0.01234) == "0.0123"
        assert format_seconds(3.14159) == "3.14"
        assert format_seconds(250.0) == "250"
        assert format_seconds(OUT) == OUT

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": None}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "ND" in text  # None rendered as the paper's "ND"

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_pivot(self):
        rows = [
            {"dataset": "a", "algorithm": "x", "seconds": 1.0},
            {"dataset": "a", "algorithm": "y", "seconds": 2.0},
            {"dataset": "b", "algorithm": "x", "seconds": 3.0},
        ]
        wide = pivot(rows, index="dataset", column="algorithm", value="seconds")
        assert wide[0] == {"dataset": "a", "x": 1.0, "y": 2.0}
        assert wide[1]["x"] == 3.0


class TestHarness:
    def test_bench_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        assert scaled(100) == 100

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        assert bench_scale() == 0.25
        assert scaled(100) == 25
        monkeypatch.setenv("REPRO_BENCH_SCALE", "not-a-float")
        assert bench_scale() == 1.0

    def test_time_call(self):
        measurement = time_call(lambda: [1, 2, 3], label="demo")
        assert measurement.algorithm == "demo"
        assert measurement.num_solutions == 3
        assert measurement.seconds >= 0

    def test_time_call_counts_lazy_iterables(self):
        # Generators must be materialised (inside the timed window) instead
        # of silently reporting num_solutions=0.
        def generator():
            yield from range(4)

        measurement = time_call(generator, label="lazy")
        assert measurement.num_solutions == 4
        assert measurement.seconds >= 0
        assert time_call(lambda: iter((1, 2)), label="iter").num_solutions == 2
        assert time_call(lambda: frozenset({1, 2, 3}), label="fs").num_solutions == 3
        assert time_call(lambda: None, label="none").num_solutions == 0
        assert time_call(lambda: 42, label="scalar").num_solutions == 0

    def test_display_without_seconds_or_marker(self):
        # A measurement that never produced a timing must not leak None into
        # the report tables; INF is the paper's "did not finish" marker.
        assert Measurement(algorithm="x", seconds=None).display == INF
        assert Measurement(algorithm="x", seconds=1.5).display == 1.5
        assert Measurement(algorithm="x", seconds=None, marker=OUT).display == OUT

    def test_run_itraversal_measurement(self, example_graph):
        measurement = run_itraversal(example_graph, 1, max_results=5, time_limit=10.0)
        assert measurement.marker is None
        assert measurement.num_solutions == 5
        assert isinstance(measurement.display, float)

    def test_run_imb_inf_marker(self, example_graph):
        measurement = run_imb(example_graph, 1, max_results=None, time_limit=0.0)
        assert measurement.marker == INF
        assert measurement.display == INF

    def test_run_inflation_out_marker(self, example_graph):
        measurement = run_inflation(
            example_graph, 1, max_results=None, time_limit=5.0, memory_edge_budget=1
        )
        assert measurement.marker == OUT

    def test_run_algorithms_order(self, example_graph):
        measurements = run_algorithms(
            example_graph, 1, ["iTraversal", "bTraversal"], max_results=5, time_limit=10.0
        )
        assert [m.algorithm for m in measurements] == ["iTraversal", "bTraversal"]


class TestExperimentDrivers:
    def test_registry_contains_every_figure(self):
        assert {
            "table1",
            "fig7a",
            "fig7bc",
            "fig7de",
            "fig8a",
            "fig8b",
            "fig9a",
            "fig9b",
            "fig10",
            "fig11ab",
            "fig11cd",
            "fig12",
            "fig13",
            "variants",
            "anchor",
        } <= set(EXPERIMENTS)

    def test_table1_rows(self):
        rows = experiment_table1()
        assert len(rows) == 10

    def test_fig7a_small_subset(self):
        rows = experiment_fig7a(
            datasets=("divorce",), max_results=20, time_limit=5.0,
            algorithms=("bTraversal", "iTraversal"),
        )
        assert len(rows) == 1
        assert "iTraversal" in rows[0] and "bTraversal" in rows[0]

    def test_fig7de_row_per_count(self):
        rows = experiment_fig7de(
            dataset="divorce", result_counts=(1, 5), time_limit=5.0,
            algorithms=("iTraversal",),
        )
        assert [row["num_results"] for row in rows] == [1, 5]

    def test_fig8b_delay_rows(self):
        rows = experiment_fig8b(k_values=(1,), max_left=5, max_right=6, time_limit=5.0)
        assert len(rows) == 1
        assert set(rows[0]) >= {"k", "iMB", "bTraversal", "FaPlexen", "iTraversal"}

    def test_fig9b_rows(self):
        rows = experiment_fig9b(
            edge_density_values=(0.5,), num_vertices=40, max_results=10, time_limit=5.0
        )
        assert rows[0]["edge_density"] == 0.5

    def test_fig10_rows(self):
        rows = experiment_fig10(dataset="cfat", theta_values=(5,), time_limit=5.0)
        assert rows[0]["theta"] == 5
        assert "iTraversal" in rows[0] and "iMB" in rows[0]

    def test_fig11cd_link_ordering(self):
        rows = experiment_fig11cd(dataset="divorce", k_values=(1,), max_left=5, max_right=6)
        row = rows[0]
        assert row["bTraversal_links"] >= row["iTraversal-ES-RS_links"]
        assert row["iTraversal-ES-RS_links"] >= row["iTraversal-ES_links"]

    def test_fig12_rows(self):
        rows = experiment_fig12(dataset="divorce", k_values=(1,), num_trials=5, time_limit=5.0)
        assert rows and {"L2.0+R2.0", "Inflation"} <= set(rows[0])


class TestCLI:
    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "divorce" in output and "google" in output

    def test_enumerate_dataset(self, capsys):
        assert main(["enumerate", "--dataset", "divorce", "-k", "1", "--max-results", "5"]) == 0
        output = capsys.readouterr().out
        assert "solutions=5" in output

    def test_enumerate_from_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "-k", "1", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "solutions=" in output
        assert "L: [" not in output  # quiet mode suppresses the listing

    def test_enumerate_with_theta(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "--theta", "3"]) == 0
        assert "solutions=" in capsys.readouterr().out

    def test_enumerate_with_jobs(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "-k", "1", "--jobs", "2", "--quiet"]) == 0
        parallel_summary = capsys.readouterr().out
        assert main(["enumerate", "--input", str(path), "-k", "1", "--jobs", "1", "--quiet"]) == 0
        serial_summary = capsys.readouterr().out
        # Same solution count either way; the summary line stays one line.
        assert parallel_summary.split("max_left")[0] == serial_summary.split("max_left")[0]

    def test_enumerate_rejects_negative_jobs(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "--jobs", "-3"]) == 2
        assert "jobs" in capsys.readouterr().err

    def test_invalid_repro_jobs_env_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        from repro.parallel import JOBS_ENV_VAR

        monkeypatch.setenv(JOBS_ENV_VAR, "lots")
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path)]) == 2
        assert JOBS_ENV_VAR in capsys.readouterr().err

    def test_enumerate_reports_prep_reduction_sizes(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "--prep", "core+order", "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "prep=core+order" in output
        assert "removed_left=" in output and "removed_edges=" in output

    def test_enumerate_prep_modes_agree(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        counts = {}
        for prep in ("off", "core", "core+order"):
            assert main(
                ["enumerate", "--input", str(path), "--theta", "2", "--prep", prep, "--quiet"]
            ) == 0
            counts[prep] = capsys.readouterr().out.split("max_left")[0]
        assert counts["off"] == counts["core"] == counts["core+order"]

    def test_enumerate_rejects_invalid_prep(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "--prep", "maximal"]) == 2
        err = capsys.readouterr().err
        assert "prep" in err and "maximal" in err

    def test_invalid_repro_prep_env_is_a_clean_error(self, tmp_path, capsys, monkeypatch):
        from repro.prep import PREP_ENV_VAR

        monkeypatch.setenv(PREP_ENV_VAR, "everything")
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path)]) == 2
        assert PREP_ENV_VAR in capsys.readouterr().err

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "divorce" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "does-not-exist"])

    def test_missing_source_rejected(self):
        with pytest.raises(SystemExit):
            main(["enumerate", "-k", "1"])
