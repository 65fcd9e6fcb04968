"""Preprocessing & ordering pipeline shared by every enumeration layer.

``prepare(graph, k, mode, theta_left, theta_right)`` builds a
:class:`~repro.prep.plan.PrepPlan` — the reduced graph, the id maps back
to the original, and the candidate orderings — which the traversal engine,
the baselines and the CLI all consume.  The mode alone decides candidate
order: ``core+order`` orders by :func:`~repro.prep.ordering.degeneracy_order`,
the other modes keep canonical id order.  See :mod:`repro.prep.plan` for
the modes, :mod:`repro.prep.reduce` for the (α, β)-core / bitruss
reduction soundness arguments and :mod:`repro.prep.ordering` for the
degeneracy peel.

This package depends only on :mod:`repro.graph` (never on
:mod:`repro.core`), so the core traversal layer can import it freely.
"""

from .ordering import degeneracy_order
from .plan import (
    PREP_ENV_VAR,
    PREP_MODES,
    PrepPlan,
    default_prep,
    prepare,
    reprepare,
    resolve_prep,
)
from .reduce import (
    Reduction,
    bitruss_support_bound,
    bound_core_sets,
    reduce_for_thresholds,
    threshold_core_bounds,
)

__all__ = [
    "PREP_ENV_VAR",
    "PREP_MODES",
    "PrepPlan",
    "default_prep",
    "prepare",
    "reprepare",
    "resolve_prep",
    "Reduction",
    "bound_core_sets",
    "reduce_for_thresholds",
    "threshold_core_bounds",
    "bitruss_support_bound",
    "degeneracy_order",
]
