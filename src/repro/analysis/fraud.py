"""Fraud-detection case study (Section 6.3, Figure 13).

The paper injects a *random camouflage attack* into an Amazon review graph
and compares four cohesive-structure definitions — biclique, k-biplex,
(α, β)-core and δ-quasi-biclique — at the task of recovering the injected
fake users and fake products: every user/product contained in at least one
found structure (meeting the size thresholds ``θ_L`` / ``θ_R``) is classified
as fake, and precision / recall / F1 are measured against the ground truth.

The study here runs on a scaled synthetic review graph generated by
:func:`repro.graph.generators.review_graph_with_camouflage` in place of the
Amazon review data; the attack protocol — a dense-ish random fraud block
plus an equal number of camouflage reviews towards real products — is the
paper's.  Every structure is scored on the one attacked graph, and
:meth:`FraudStudyReport.rows` lays the cells out as Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..baselines.biclique import enumerate_maximal_bicliques
from ..baselines.quasi_biclique import find_quasi_bicliques_greedy
from ..core.biplex import Biplex
from ..core.itraversal import ITraversal
from ..graph.bipartite import BipartiteGraph
from ..graph.cores import alpha_beta_core
from ..graph.generators import FraudInjection, review_graph_with_camouflage
from .metrics import ClassificationMetrics, classification_metrics


@dataclass
class FraudStudyConfig:
    """Parameters of the scaled case study.

    The defaults keep the same *shape* as the paper's setup (fraud block with
    a 1:1 ratio of fake to camouflage reviews, fake reviews placed uniformly
    at random inside the block) at roughly 1/50 of the scale, with the block
    density raised so that the scaled block still contains k-biplexes of the
    sizes probed by the thresholds.
    """

    n_real_users: int = 300
    n_real_products: int = 120
    n_real_reviews: int = 1800
    n_fake_users: int = 40
    n_fake_products: int = 40
    fake_block_density: float = 0.35
    theta_users: int = 4
    theta_products_values: Sequence[int] = (3, 4, 5, 6, 7)
    k_values: Sequence[int] = (1, 2)
    delta_values: Sequence[float] = (0.01, 0.1, 0.2, 0.3)
    max_structures: int = 4000
    time_limit_per_structure: float = 20.0
    seed: int = 2022

    @property
    def n_fake_reviews(self) -> int:
        """Number of fake (inside-block) reviews implied by the block density."""
        return int(self.fake_block_density * self.n_fake_users * self.n_fake_products)

    @property
    def n_camouflage_reviews(self) -> int:
        """The attack places as many camouflage reviews as fake ones (paper protocol)."""
        return self.n_fake_reviews


@dataclass
class StructureResult:
    """Outcome of one (structure, θ_R) cell of Figure 13."""

    structure: str
    theta_products: int
    metrics: ClassificationMetrics
    num_structures: int

    @property
    def precision(self) -> float:
        return self.metrics.precision

    @property
    def recall(self) -> float:
        return self.metrics.recall

    @property
    def f1(self) -> float:
        return self.metrics.f1

    @property
    def defined(self) -> bool:
        """False corresponds to the paper's "ND" (no structure found) cells."""
        return self.metrics.defined


@dataclass
class FraudStudyReport:
    """All cells of the case study, plus the generated graph and ground truth."""

    config: FraudStudyConfig
    graph: BipartiteGraph
    injection: FraudInjection
    results: List[StructureResult] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        """Figure 13 as a flat list of dict rows (one per structure × θ_R)."""
        rows = []
        for result in self.results:
            rows.append(
                {
                    "structure": result.structure,
                    "theta_R": result.theta_products,
                    "precision": None if not result.defined else round(result.precision, 3),
                    "recall": round(result.recall, 3) if result.recall == result.recall else None,
                    "f1": None if not result.defined else round(result.f1, 3),
                    "num_structures": result.num_structures,
                }
            )
        return rows


def build_study_graph(config: FraudStudyConfig) -> Tuple[BipartiteGraph, FraudInjection]:
    """Generate the review graph with the camouflage attack injected."""
    return review_graph_with_camouflage(
        n_real_users=config.n_real_users,
        n_real_products=config.n_real_products,
        n_real_reviews=config.n_real_reviews,
        n_fake_users=config.n_fake_users,
        n_fake_products=config.n_fake_products,
        n_fake_reviews=config.n_fake_reviews,
        n_camouflage_reviews=config.n_camouflage_reviews,
        seed=config.seed,
    )


def _classify(
    structures: Sequence[Biplex], injection: FraudInjection
) -> ClassificationMetrics:
    """Users/products covered by any structure are classified as fake."""
    predicted_users: Set[int] = set()
    predicted_products: Set[int] = set()
    for structure in structures:
        predicted_users |= structure.left
        predicted_products |= structure.right
    # Users and products are evaluated jointly, as in the paper ("classify all
    # users and products involved in the found subgraphs as fake items").
    predicted = {("U", u) for u in predicted_users} | {("P", p) for p in predicted_products}
    actual = {("U", u) for u in injection.fake_users} | {
        ("P", p) for p in injection.fake_products
    }
    return classification_metrics(predicted, actual)


def evaluate_biplex(
    graph: BipartiteGraph,
    injection: FraudInjection,
    k: int,
    theta_users: int,
    theta_products: int,
    max_structures: int,
    time_limit: float,
) -> StructureResult:
    """Evaluate k-biplex detection for one threshold setting."""
    # The detector scores the *first max_structures* structures, so the
    # capped selection must not follow the environment.  jobs=1: a parallel
    # run caps on worker-arrival order, which would make the
    # precision/recall figures depend on scheduling (and on REPRO_JOBS).
    # prep="core": core+order expands candidates in another order, so the
    # cap would keep other structures (and follow REPRO_PREP).
    structures = ITraversal(
        graph,
        k,
        theta_left=theta_users,
        theta_right=theta_products,
        max_results=max_structures,
        time_limit=time_limit,
        jobs=1,
        prep="core",
    ).enumerate()
    return StructureResult(
        structure=f"{k}-biplex",
        theta_products=theta_products,
        metrics=_classify(structures, injection),
        num_structures=len(structures),
    )


def evaluate_biclique(
    graph: BipartiteGraph,
    injection: FraudInjection,
    theta_users: int,
    theta_products: int,
    max_structures: int,
    time_limit: float,
) -> StructureResult:
    """Evaluate (maximal) biclique detection for one threshold setting."""
    structures = enumerate_maximal_bicliques(
        graph,
        theta_left=theta_users,
        theta_right=theta_products,
        max_results=max_structures,
        time_limit=time_limit,
    )
    return StructureResult(
        structure="biclique",
        theta_products=theta_products,
        metrics=_classify(structures, injection),
        num_structures=len(structures),
    )


def evaluate_alpha_beta_core(
    graph: BipartiteGraph,
    injection: FraudInjection,
    alpha: int,
    beta: int,
) -> StructureResult:
    """Evaluate the (α, β)-core (α on users' degree? — the paper sets α=θ_R, β=θ_L)."""
    # Paper convention: α constrains the product-side threshold applied to
    # user degrees and β the user-side threshold applied to product degrees,
    # i.e. users must review at least α products and products must have at
    # least β reviewers.
    left_core, right_core = alpha_beta_core(graph, alpha=alpha, beta=beta)
    structures: List[Biplex] = []
    if left_core or right_core:
        structures = [Biplex.of(left_core, right_core)]
    return StructureResult(
        structure="(a,b)-core",
        theta_products=alpha,
        metrics=_classify(structures, injection),
        num_structures=len(structures),
    )


def evaluate_quasi_biclique(
    graph: BipartiteGraph,
    injection: FraudInjection,
    delta: float,
    theta_users: int,
    theta_products: int,
    max_structures: int,
) -> StructureResult:
    """Evaluate δ-quasi-biclique detection (greedy finder) for one threshold setting."""
    structures = find_quasi_bicliques_greedy(
        graph,
        delta=delta,
        theta_left=theta_users,
        theta_right=theta_products,
        max_structures=max_structures,
    )
    return StructureResult(
        structure=f"{delta}-QB",
        theta_products=theta_products,
        metrics=_classify(structures, injection),
        num_structures=len(structures),
    )


def run_fraud_detection_study(
    config: Optional[FraudStudyConfig] = None,
    structures: Sequence[str] = ("biclique", "1-biplex", "2-biplex", "(a,b)-core", "QB"),
) -> FraudStudyReport:
    """Run the full Figure 13 sweep and return the report.

    ``structures`` selects which families to evaluate; the δ-QB family
    expands into one entry per ``delta`` in the config.
    """
    config = config or FraudStudyConfig()
    graph, injection = build_study_graph(config)
    report = FraudStudyReport(config=config, graph=graph, injection=injection)

    for theta_products in config.theta_products_values:
        if "biclique" in structures:
            report.results.append(
                evaluate_biclique(
                    graph,
                    injection,
                    config.theta_users,
                    theta_products,
                    config.max_structures,
                    config.time_limit_per_structure,
                )
            )
        for k in config.k_values:
            name = f"{k}-biplex"
            if name in structures:
                report.results.append(
                    evaluate_biplex(
                        graph,
                        injection,
                        k,
                        config.theta_users,
                        theta_products,
                        config.max_structures,
                        config.time_limit_per_structure,
                    )
                )
        if "(a,b)-core" in structures:
            report.results.append(
                evaluate_alpha_beta_core(
                    graph, injection, alpha=theta_products, beta=config.theta_users
                )
            )
        if "QB" in structures:
            for delta in config.delta_values:
                report.results.append(
                    evaluate_quasi_biclique(
                        graph,
                        injection,
                        delta,
                        config.theta_users,
                        theta_products,
                        config.max_structures,
                    )
                )
    return report
