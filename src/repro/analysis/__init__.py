"""Analysis layer: dataset registry, classification metrics, fraud-detection case study."""

from .datasets import (
    ALL_DATASETS,
    SMALL_DATASETS,
    DatasetSpec,
    dataset_specs,
    get_spec,
    load_dataset,
    table1_rows,
)
from .fraud import (
    FraudStudyConfig,
    FraudStudyReport,
    StructureResult,
    build_study_graph,
    run_fraud_detection_study,
)
from .metrics import ClassificationMetrics, classification_metrics

__all__ = [
    "ALL_DATASETS",
    "SMALL_DATASETS",
    "DatasetSpec",
    "dataset_specs",
    "get_spec",
    "load_dataset",
    "table1_rows",
    "FraudStudyConfig",
    "FraudStudyReport",
    "StructureResult",
    "build_study_graph",
    "run_fraud_detection_study",
    "ClassificationMetrics",
    "classification_metrics",
]
