"""Objective strategies: enumerate-all and top-k biplex search (maximum is top-1).

The reverse-search engine is objective-polymorphic: it always *traverses*
the solution graph, but what it is traversing **for** is a strategy object
plugged into :class:`~repro.core.traversal.TraversalConfig`.  An
:class:`Objective` observes every reported solution and maintains the
monotone size lower bound the engine threads into its pruning rules
(dynamic per-side size thresholds plus the (α, β)-core-derived subtree
upper bound — see ``ReverseSearchEngine._children``).

Soundness of bound pruning rests on two invariants:

* the bound only ever **rises** (``prune_below`` is monotone in the
  observations), and a subtree is pruned only when it provably holds
  solutions of size *strictly below* the bound at prune time;
* ties at the final bound therefore always survive, so the deterministic
  tie-break (canonical :meth:`~repro.core.biplex.Biplex.key` ascending)
  yields the same answer whatever the traversal or gossip timing —
  solver-mode *work* counters are scheduling-dependent, the *answer* is
  not.

In solver modes the engine still yields every observed candidate (the
session layer needs the suspension points for cursors and budgets); the
session drains that stream and emits :meth:`Objective.results` at the end
(see :class:`~repro.core.session.EnumerationSession`).  A solver cursor
carries those results as its incumbents; resume hands them back to
:meth:`Objective.restore`, so no objective knows the cursor format.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple

from .biplex import Biplex

#: The recognised objective modes, in the user-facing spelling.
OBJECTIVES = ("enumerate", "maximum", "top-k")


def resolve_objective(
    mode: Optional[str] = None, top: Optional[int] = None
) -> Tuple[str, Optional[int]]:
    """Validate an (objective mode, top) pair; ``None`` mode = enumerate.

    Shared by the CLI flags, the service query normalization and
    :class:`~repro.core.traversal.TraversalConfig` so all three reject bad
    input with one message.
    """
    if mode is None:
        mode = "enumerate"
    if mode not in OBJECTIVES:
        raise ValueError(
            f"mode must be one of {list(OBJECTIVES)}, got {mode!r}"
        )
    if mode == "top-k":
        if not isinstance(top, int) or isinstance(top, bool) or top < 1:
            raise ValueError("top-k mode needs top=N (a positive integer)")
    elif top is not None:
        raise ValueError(f"top only applies to the top-k mode, not {mode!r}")
    return mode, top


class Objective:
    """Strategy interface the engine reports solutions into.

    Subclasses override the four hooks; the base class *is* the
    enumerate-all behaviour (observe nothing, never prune).
    """

    name = "enumerate"

    #: Enumerate-all sessions stream solutions through unchanged; solver
    #: objectives make the session drain the traversal and emit
    #: :meth:`results` instead.
    trivial = True

    def observe(self, solution: Biplex) -> bool:
        """Fold one reported solution in; returns whether the incumbent improved."""
        return False

    def prune_below(self) -> int:
        """Solutions of size strictly below this can no longer matter (0 = no bound)."""
        return 0

    def results(self) -> List[Biplex]:
        """The answer set, in deterministic ``(-size, key)`` order."""
        return []

    def reset(self) -> None:
        """Drop all observations (a fresh run over the same engine)."""

    def restore(self, solutions: Iterable[Biplex]) -> None:
        """Start over from saved :meth:`results` (cursor resume)."""
        self.reset()
        for solution in solutions:
            self.observe(solution)


class EnumerateAll(Objective):
    """The classic objective: every maximal k-biplex, streamed as found."""


class TopK(Objective):
    """Keep the ``n`` largest solutions, ordered by ``(-size, key)``.

    Once full, the n-th best size is the prune bound: anything strictly
    smaller can never displace an item, while a size tie still can (by
    key), so ties must — and do — survive the engine's bound pruning.
    The ``maximum`` mode is ``TopK(1)``: the single largest solution,
    ties broken to the smallest key.
    """

    name = "top-k"
    trivial = False

    def __init__(self, top: int) -> None:
        if top < 1:
            raise ValueError("top must be a positive integer")
        self.top = top
        self._items: List[Biplex] = []
        self._order: List[tuple] = []  # parallel (-size, key) sort keys

    def observe(self, solution: Biplex) -> bool:
        entry = (-solution.size, solution.key())
        position = bisect_left(self._order, entry)
        if position >= self.top:
            return False
        self._order.insert(position, entry)
        self._items.insert(position, solution)
        if len(self._items) > self.top:
            self._order.pop()
            self._items.pop()
        return True

    def prune_below(self) -> int:
        if len(self._items) < self.top:
            return 0
        return -self._order[-1][0]

    def results(self) -> List[Biplex]:
        return list(self._items)

    def reset(self) -> None:
        self._items = []
        self._order = []


def make_objective(mode: str, top: Optional[int] = None) -> Objective:
    """Instantiate the strategy for a validated ``(mode, top)`` pair."""
    mode, top = resolve_objective(mode, top)
    if mode == "maximum":
        return TopK(1)
    if mode == "top-k":
        return TopK(top)
    return EnumerateAll()
