"""Tests for the benchmark harness, reporting utilities, experiment drivers and CLI."""

import json
import re

import pytest

from repro.bench import (
    ALGORITHMS,
    EXPERIMENTS,
    INF,
    OUT,
    Measurement,
    bench_scale,
    format_seconds,
    format_table,
    measure,
    pivot,
    scaled,
)
from repro.bench.experiments import (
    experiment_anchor_ablation,
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
from repro.core import BTraversal, build_solution_graph
from repro.core.solution_graph import FIG11_COLUMNS
from repro.graph import BipartiteGraph, paper_example_graph, write_edge_list


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

    def test_display_without_seconds_or_marker(self):
        # A measurement that never produced a timing must not leak None into
        # the report tables; INF is the paper's "did not finish" marker.
        assert Measurement(seconds=None).display == INF
        assert Measurement(seconds=1.5).display == 1.5
        assert Measurement(seconds=None, marker=OUT).display == OUT

    @staticmethod
    def _measure(name, graph, k, max_results, time_limit):
        build, cut = ALGORITHMS[name]
        return measure(build(graph, k, max_results, time_limit), cut, max_results)

    def test_run_itraversal_measurement(self, example_graph):
        measurement = self._measure("iTraversal", example_graph, 1, 5, 10.0)
        assert measurement.marker is None
        assert measurement.num_solutions == 5
        assert isinstance(measurement.display, float)

    def test_run_imb_inf_marker(self, example_graph):
        measurement = self._measure("iMB", example_graph, 1, None, 0.0)
        assert measurement.marker == INF
        assert measurement.display == INF

    def test_run_inflation_out_marker(self):
        # 2,100 left vertices inflate to 2,203,950 edges: over the one
        # budget, so the pipeline builds nothing and reads OUT.
        measurement = self._measure("FaPlexen", BipartiteGraph(2100, 1), 1, None, 5.0)
        assert measurement.marker == OUT
        assert measurement.num_solutions == 0

    def test_faplexen_is_inf_only_when_cut_before_max_results(self, example_graph):
        # 13 MBPs exist: a run stopped at its cap of 5 returned its first N.
        capped = self._measure("FaPlexen", example_graph, 1, 5, 10.0)
        assert (capped.marker, capped.num_solutions) == (None, 5)
        assert isinstance(capped.display, float)
        timed_out = self._measure("FaPlexen", example_graph, 1, 5, 0.0)
        assert (timed_out.marker, timed_out.seconds) == (INF, None)


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
            algorithms=("iTraversal", "bTraversal"),
        )
        assert len(rows) == 1
        # One cell per algorithm, in the order asked for.
        assert list(rows[0]) == ["dataset", "iTraversal", "bTraversal"]

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
        rows = experiment_fig10(dataset="cfat", theta_values=(5, 6), time_limit=5.0)
        assert [row["theta"] for row in rows] == [5, 6]
        assert all("iTraversal" in row and "iMB" in row for row in rows)
        # iMB's count is not pinned: it hits its time limit here.
        assert [row["num_large_mbps"] for row in rows] == [1971, 768]

    def test_fig11cd_link_ordering(self):
        rows = experiment_fig11cd(dataset="divorce", k_values=(1,), max_left=5, max_right=6)
        row = rows[0]
        assert row["bTraversal_links"] >= row["iTraversal-ES-RS_links"]
        assert row["iTraversal-ES-RS_links"] >= row["iTraversal-ES_links"]

    def test_fig11cd_enumerates_each_node_set_once(self, monkeypatch):
        """Each ``k`` runs one bTraversal enumeration; the link columns hold."""
        graph = paper_example_graph()
        expected = {
            k: {
                f"{label}_links": build_solution_graph(graph, k, variant=variant).num_links
                for variant, label in FIG11_COLUMNS
            }
            for k in (1, 2)
        }
        # Figure 11's link counts on the running example, k = 1 and 2.
        assert [list(expected[k].values()) for k in (1, 2)] == [
            [107, 55, 27, 20],
            [34, 17, 9, 9],
        ]
        enumerations = []
        enumerate_all = BTraversal.enumerate

        def counted(self, *args, **kwargs):
            enumerations.append(self)
            return enumerate_all(self, *args, **kwargs)

        monkeypatch.setattr(BTraversal, "enumerate", counted)
        rows = experiment_fig11cd(dataset="example", k_values=(1, 2))
        assert len(enumerations) == 2
        for row in rows:
            assert {key: row[key] for key in expected[row["k"]]} == expected[row["k"]]
            assert all(row[f"{label}_time"] >= 0 for _, label in FIG11_COLUMNS)

    def test_anchor_ablation_rows(self):
        rows = experiment_anchor_ablation(
            datasets=("divorce", "writer"), k_values=(1,), max_results=20, time_limit=5.0
        )
        assert [(row["dataset"], row["k"]) for row in rows] == [("divorce", 1), ("writer", 1)]
        for row in rows:
            for anchor in ("left-anchored", "right-anchored"):
                assert row[anchor] != INF
                float(row[anchor])

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

    @pytest.mark.parametrize("cap", ("0", "-5"))
    def test_enumerate_rejects_non_positive_max_results(self, tmp_path, capsys, cap):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main(["enumerate", "--input", str(path), "--max-results", cap]) == 2
        captured = capsys.readouterr()
        assert "max_results must be a positive integer" in captured.err
        assert "L: [" not in captured.out

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

    @pytest.mark.parametrize(
        "text",
        (None, "% 2 2\n0 x\n", "% 2 2\n0 5\n"),
        ids=("missing", "malformed", "out-of-range"),
    )
    def test_unreadable_input_is_a_clean_error(self, tmp_path, capsys, text):
        path = tmp_path / "g.txt"
        if text is not None:
            path.write_text(text)
        assert main(["enumerate", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error: cannot read graph file" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command", (("enumerate",), ("query", "run")), ids=("enumerate", "query-run")
    )
    def test_zero_time_limit_is_a_clean_error(self, tmp_path, capsys, command):
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        assert main([*command, "--input", str(path), "--time-limit", "0"]) == 2
        captured = capsys.readouterr()
        assert "time_limit must be a finite positive number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        (
            ["-k", "1", "--theta", "2"],
            ["-k", "2", "--max-results", "5", "--prep", "off"],
            ["-k", "1", "--mode", "top-k", "--top", "3"],
        ),
        ids=("theta", "capped", "top-k"),
    )
    def test_enumerate_is_query_run_in_process(self, tmp_path, capsys, flags):
        """One request path, one formatter: ``enumerate`` prints what
        ``query run`` prints, as text and as JSON, apart from wall time."""
        path = tmp_path / "g.txt"
        write_edge_list(paper_example_graph(), path)
        # Serial: a parallel top-k run's bound-prune count varies run to run.
        argv = ["--input", str(path), "--jobs", "1", *flags]

        def run(*command):
            assert main([*command, *argv]) == 0
            return capsys.readouterr().out

        def mask(text):
            return re.sub(r"elapsed=\S+", "elapsed=", text)

        text = run("enumerate")
        assert mask(text) == mask(run("query", "run"))
        assert "max_left=" in text and "max_right=" in text
        enumerated = json.loads(run("enumerate", "--json"))
        queried = json.loads(run("query", "run", "--format", "json"))
        for document in (enumerated, queried):
            document["status"].pop("elapsed_seconds")
        assert enumerated == queried
        assert enumerated["num_solutions"] == text.count("L: [") > 0
        quiet = json.loads(run("enumerate", "--json", "--quiet"))
        assert "solutions" not in quiet
        assert quiet["num_solutions"] == enumerated["num_solutions"]
