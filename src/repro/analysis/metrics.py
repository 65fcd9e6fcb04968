"""Classification metrics of the fraud-detection case study.

The case study (Section 6.3, Figure 13) classifies vertices as fake or
real depending on whether they appear in any found cohesive subgraph, and
reports precision, recall and F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set


@dataclass(frozen=True)
class ClassificationMetrics:
    """Precision / recall / F1 of a binary classification."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of predicted positives that are real positives (NaN-free: 0 when undefined)."""
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else float("nan")

    @property
    def recall(self) -> float:
        """Fraction of real positives that were predicted."""
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else float("nan")

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (NaN when precision is undefined)."""
        precision = self.precision
        recall = self.recall
        if precision != precision or recall != recall:  # NaN check
            return float("nan")
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    @property
    def defined(self) -> bool:
        """False when no positives were predicted at all (the paper's "ND" cells)."""
        return (self.true_positives + self.false_positives) > 0


def classification_metrics(predicted: Set, actual: Set) -> ClassificationMetrics:
    """Compute precision/recall inputs for predicted vs. ground-truth item sets."""
    true_positives = len(predicted & actual)
    false_positives = len(predicted - actual)
    false_negatives = len(actual - predicted)
    return ClassificationMetrics(true_positives, false_positives, false_negatives)

