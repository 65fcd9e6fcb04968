"""Core algorithms: k-biplex primitives, EnumAlmostSat, bTraversal, iTraversal."""

from .biplex import (
    Biplex,
    arbitrary_initial_solution,
    can_add_left,
    can_add_left_masked,
    can_add_right,
    can_add_right_masked,
    extend_to_maximal,
    initial_solution_left_anchored,
    initial_solution_right_anchored,
    is_k_biplex,
    is_maximal_k_biplex,
)
from .btraversal import BTraversal
from .delay import DelayInstrumentedIterator, DelayRecord, measure_delay
from .enum_almost_sat import (
    EnumAlmostSatConfig,
    enum_local_solutions,
    enum_local_solutions_inflation,
    enum_local_solutions_naive,
)
from .itraversal import ITraversal, enumerate_mbps
from .objective import (
    OBJECTIVES,
    EnumerateAll,
    Objective,
    TopK,
    make_objective,
    resolve_objective,
)
from .session import CURSOR_SCHEMA, CursorError, EnumerationSession, StaleCursorError
from .solution_graph import SolutionGraph, build_solution_graph, count_links
from .traversal import ReverseSearchEngine, TraversalConfig, TraversalStats
from .verify import (
    canonical,
    check_all_solutions,
    check_solution,
    filter_large,
    missing_and_extra,
    same_solutions,
    summarize_solutions,
)

__all__ = [
    "Biplex",
    "is_k_biplex",
    "is_maximal_k_biplex",
    "can_add_left",
    "can_add_left_masked",
    "can_add_right",
    "can_add_right_masked",
    "extend_to_maximal",
    "initial_solution_left_anchored",
    "initial_solution_right_anchored",
    "arbitrary_initial_solution",
    "EnumAlmostSatConfig",
    "enum_local_solutions",
    "enum_local_solutions_naive",
    "enum_local_solutions_inflation",
    "BTraversal",
    "ITraversal",
    "enumerate_mbps",
    "OBJECTIVES",
    "Objective",
    "EnumerateAll",
    "TopK",
    "make_objective",
    "resolve_objective",
    "CURSOR_SCHEMA",
    "CursorError",
    "StaleCursorError",
    "EnumerationSession",
    "ReverseSearchEngine",
    "TraversalConfig",
    "TraversalStats",
    "SolutionGraph",
    "build_solution_graph",
    "count_links",
    "DelayRecord",
    "DelayInstrumentedIterator",
    "measure_delay",
    "check_solution",
    "check_all_solutions",
    "canonical",
    "filter_large",
    "same_solutions",
    "missing_and_extra",
    "summarize_solutions",
]
