"""Tests for the analysis layer: datasets registry, metrics, fraud case study."""

import hashlib
import math

import pytest

from repro.analysis import (
    ALL_DATASETS,
    SMALL_DATASETS,
    ClassificationMetrics,
    FraudStudyConfig,
    build_study_graph,
    classification_metrics,
    dataset_specs,
    get_spec,
    load_dataset,
    run_fraud_detection_study,
    table1_rows,
)
from repro.analysis.fraud import (
    evaluate_alpha_beta_core,
    evaluate_biclique,
    evaluate_biplex,
    evaluate_quasi_biclique,
)


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

    #: name -> (|E|, digest of the sorted edge list) of every stand-in.
    DATASET_EDGES = {
        "divorce": (189, "84c6095988c42434"),
        "cfat": (359, "5508d76bfba82ee1"),
        "crime": (169, "406cec2cc07fe8eb"),
        "opsahl": (411, "2c3ba866d352ac25"),
        "marvel": (600, "7fc874e67d24cc69"),
        "writer": (365, "63579c4f1d37ef23"),
        "actors": (887, "cbe94a4a46ec8fef"),
        "imdb": (939, "df2a15cfbbc14437"),
        "dblp": (893, "775ab768f199d150"),
        "google": (507, "c625ffdecad2d76e"),
    }

    def test_datasets_load_fresh_at_epoch_zero(self):
        # The background merge is construction: a loaded stand-in is at
        # epoch 0, like every other freshly built graph, with its edges.
        for name in ALL_DATASETS:
            graph = load_dataset(name)
            edges = sorted(graph.edges())
            digest = hashlib.sha256(repr(edges).encode()).hexdigest()[:16]
            assert (graph.epoch, len(edges), digest) == (0,) + self.DATASET_EDGES[name], name

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
        assert max(row["f1"] or 0 for row in rows if row["structure"] == "1-biplex") > 0

