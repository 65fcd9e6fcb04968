"""Tests for the analysis layer: datasets registry, metrics, fraud case study."""

import math

import pytest

from repro.analysis import (
    ALL_DATASETS,
    SMALL_DATASETS,
    ClassificationMetrics,
    FraudStudyConfig,
    average_density,
    build_study_graph,
    classification_metrics,
    covered_vertices,
    dataset_specs,
    get_spec,
    load_dataset,
    run_fraud_detection_study,
    subgraph_density,
    table1_rows,
)
from repro.analysis.fraud import (
    evaluate_alpha_beta_core,
    evaluate_biclique,
    evaluate_biplex,
    evaluate_quasi_biclique,
)
from repro.core import Biplex
from repro.graph import paper_example_graph


class TestDatasetRegistry:
    def test_all_paper_datasets_present(self):
        assert ALL_DATASETS == (
            "divorce",
            "cfat",
            "crime",
            "opsahl",
            "marvel",
            "writer",
            "actors",
            "imdb",
            "dblp",
            "google",
        )
        assert set(SMALL_DATASETS) <= set(ALL_DATASETS)

    def test_get_spec_case_insensitive(self):
        assert get_spec("Divorce").name == "divorce"
        with pytest.raises(KeyError):
            get_spec("does-not-exist")

    def test_specs_record_paper_statistics(self):
        spec = get_spec("google")
        assert spec.paper_n_left == 17091929
        assert spec.paper_edges == 14693125
        assert spec.scale_factor > 1000

    def test_load_dataset_matches_spec_shape(self):
        for name in ("divorce", "cfat", "writer"):
            spec = get_spec(name)
            graph = load_dataset(name)
            assert graph.n_left == spec.n_left
            assert graph.n_right == spec.n_right
            assert graph.num_edges > 0

    def test_load_dataset_deterministic(self):
        assert load_dataset("cfat") == load_dataset("cfat")
        assert load_dataset("cfat", seed=99) != load_dataset("cfat")

    def test_dataset_ordering_preserved(self):
        """Stand-ins keep the relative size ordering of the paper's datasets."""
        sizes = [load_dataset(name).num_vertices for name in ("divorce", "cfat", "opsahl")]
        assert sizes == sorted(sizes)

    def test_table1_rows(self):
        rows = table1_rows()
        assert len(rows) == len(ALL_DATASETS)
        assert {"name", "|L|", "|R|", "|E|", "paper_|E|", "scale_factor"} <= set(rows[0])

    def test_specs_mapping_complete(self):
        assert set(dataset_specs()) == set(ALL_DATASETS)


class TestMetrics:
    def test_classification_metrics_basic(self):
        metrics = classification_metrics({1, 2, 3}, {2, 3, 4})
        assert metrics.true_positives == 2
        assert metrics.false_positives == 1
        assert metrics.false_negatives == 1
        assert metrics.precision == pytest.approx(2 / 3)
        assert metrics.recall == pytest.approx(2 / 3)
        assert metrics.f1 == pytest.approx(2 / 3)
        assert metrics.defined

    def test_metrics_undefined_when_nothing_predicted(self):
        metrics = classification_metrics(set(), {1, 2})
        assert not metrics.defined
        assert math.isnan(metrics.precision)
        assert metrics.recall == 0.0
        assert math.isnan(metrics.f1)

    def test_perfect_prediction(self):
        metrics = classification_metrics({1, 2}, {1, 2})
        assert metrics.precision == 1.0 and metrics.recall == 1.0 and metrics.f1 == 1.0

    def test_f1_zero_when_no_overlap(self):
        metrics = classification_metrics({1}, {2})
        assert metrics.f1 == 0.0

    def test_subgraph_density(self):
        graph = paper_example_graph()
        full = Biplex.of([4], [0, 1, 2, 3, 4])
        assert subgraph_density(graph, full) == 1.0
        empty = Biplex.of([], [])
        assert subgraph_density(graph, empty) == 0.0

    def test_average_density(self):
        graph = paper_example_graph()
        biplexes = [Biplex.of([4], [0, 1]), Biplex.of([0], [0, 1])]
        assert 0 < average_density(graph, biplexes) <= 1.0
        assert average_density(graph, []) == 0.0

    def test_covered_vertices(self):
        left, right = covered_vertices([Biplex.of([1], [2]), Biplex.of([3], [2, 4])])
        assert left == {1, 3}
        assert right == {2, 4}


@pytest.fixture(scope="module")
def small_study_config():
    return FraudStudyConfig(
        n_real_users=60,
        n_real_products=30,
        n_real_reviews=220,
        n_fake_users=12,
        n_fake_products=12,
        fake_block_density=0.5,
        theta_users=3,
        theta_products_values=(3, 4),
        k_values=(1,),
        delta_values=(0.2,),
        max_structures=300,
        time_limit_per_structure=5.0,
        seed=7,
    )


@pytest.fixture(scope="module")
def small_study_graph(small_study_config):
    return build_study_graph(small_study_config)


class TestFraudStudy:
    def test_config_review_counts(self, small_study_config):
        assert small_study_config.n_fake_reviews == int(0.5 * 12 * 12)
        assert small_study_config.n_camouflage_reviews == small_study_config.n_fake_reviews

    def test_graph_shape(self, small_study_config, small_study_graph):
        graph, injection = small_study_graph
        assert graph.n_left == 72 and graph.n_right == 42
        assert len(injection.fake_users) == 12
        assert len(injection.fake_products) == 12

    #: (k, θ_R) -> (precision, recall, F1, structures) at θ_L = 3, capped at
    #: 300 structures.  The capped run pins a serial ``core`` traversal, so
    #: the cells are exact whatever ``REPRO_PREP`` says.  At this
    #: (deliberately tiny) scale the absolute scores are modest; the
    #: benchmark-scale study in benchmarks/bench_fig13_fraud.py probes the
    #: paper's actual operating points.
    FIG13_CELLS = {
        (1, 3): (0.136, 0.333, 0.193, 300),
        (1, 4): (0.239, 0.667, 0.352, 300),
        (2, 3): (0.0, 0.0, 0.0, 300),
        (2, 4): (0.036, 0.042, 0.038, 300),
    }

    @pytest.mark.parametrize("prep", ["core", "core+order"])
    def test_biplex_detector_recovers_fraud_block(
        self, small_study_config, small_study_graph, monkeypatch, prep
    ):
        monkeypatch.setenv("REPRO_PREP", prep)
        graph, injection = small_study_graph
        for (k, theta_products), cell in self.FIG13_CELLS.items():
            result = evaluate_biplex(
                graph, injection, k=k, theta_users=3, theta_products=theta_products,
                max_structures=300, time_limit=5.0,
            )
            assert result.defined
            scores = tuple(round(x, 3) for x in (result.precision, result.recall, result.f1))
            assert scores + (result.num_structures,) == cell, (k, theta_products)

    def test_core_detector_low_precision_high_recall(
        self, small_study_config, small_study_graph
    ):
        graph, injection = small_study_graph
        result = evaluate_alpha_beta_core(graph, injection, alpha=3, beta=3)
        assert result.recall >= 0.5
        # The core contains many real users/products too.
        assert result.precision < 0.9

    def test_biclique_recall_drops_with_threshold(self, small_study_config, small_study_graph):
        graph, injection = small_study_graph
        low = evaluate_biclique(graph, injection, 3, 3, 300, 5.0)
        high = evaluate_biclique(graph, injection, 3, 6, 300, 5.0)
        assert high.recall <= low.recall + 1e-9

    def test_quasi_biclique_detector_runs(self, small_study_config, small_study_graph):
        graph, injection = small_study_graph
        result = evaluate_quasi_biclique(graph, injection, 0.2, 3, 4, 200)
        assert result.structure == "0.2-QB"
        assert 0 <= result.recall <= 1 or math.isnan(result.recall)

    def test_full_study_report(self, small_study_config):
        report = run_fraud_detection_study(small_study_config)
        rows = report.rows()
        assert rows, "the sweep must produce rows"
        structures = {row["structure"] for row in rows}
        assert "1-biplex" in structures
        assert "biclique" in structures
        assert "(a,b)-core" in structures
        best = report.best_f1_by_structure()
        assert best.get("1-biplex", 0) > 0


class TestStreamingFraudStudy:
    def test_camouflage_split_reconstructs_full_graph(self, small_study_config):
        from repro.analysis.fraud import streaming_camouflage_edges

        base, injection, camouflage = streaming_camouflage_edges(small_study_config)
        full, full_injection = build_study_graph(small_study_config)
        assert injection.fake_users == full_injection.fake_users
        assert injection.fake_products == full_injection.fake_products
        assert len(camouflage) == small_study_config.n_camouflage_reviews
        merged = sorted(set(base.edges()) | set(camouflage))
        assert merged == sorted(full.edges())
        assert not set(camouflage) & set(base.edges())

    def test_streaming_study_tracks_the_attack(self, small_study_config):
        from repro.analysis.fraud import run_streaming_fraud_study
        from repro.graph.butterfly import count_butterflies
        from repro.graph.cores import alpha_beta_core

        report = run_streaming_fraud_study(small_study_config, num_batches=4)
        assert len(report.batches) == 4
        assert [b.epoch for b in report.batches] == [1, 2, 3, 4]
        arrived = [b.edges_arrived for b in report.batches]
        assert arrived == sorted(arrived)  # cumulative
        assert arrived[-1] == len(report.camouflage_edges)
        # After the last batch the reported state equals a from-scratch
        # recompute on the mutated graph.
        final = report.batches[-1]
        assert final.butterfly_count == count_butterflies(report.graph)
        left, right = alpha_beta_core(report.graph, report.alpha, report.beta)
        assert (final.core_users, final.core_products) == (len(left), len(right))

    @pytest.mark.parametrize(
        "config, alpha, beta, num_batches, butterflies, core",
        [
            (FraudStudyConfig(), 5, 4, 10, 48076, (260, 158)),
            (
                FraudStudyConfig(
                    n_real_users=60,
                    n_real_products=30,
                    n_real_reviews=300,
                    n_fake_users=10,
                    n_fake_products=10,
                    seed=7,
                ),
                4,
                3,
                5,
                2086,
                (60, 36),
            ),
        ],
        ids=["default", "tiny"],
    )
    def test_pinned_totals_after_the_last_batch(
        self, config, alpha, beta, num_batches, butterflies, core
    ):
        # Exact pins, so a change that moves the butterfly count and the
        # (α, β)-core of the fully-attacked graph fails here even if it
        # moves every recompute the same way.
        from repro.analysis.fraud import run_streaming_fraud_study

        report = run_streaming_fraud_study(
            config, num_batches=num_batches, alpha=alpha, beta=beta
        )
        final = report.batches[-1]
        assert final.edges_arrived == len(report.camouflage_edges)
        assert final.butterfly_count == butterflies
        assert (final.core_users, final.core_products) == core
