"""Delay measurement for enumeration algorithms.

The *delay* of an enumeration algorithm is the maximum of (1) the time before
the first solution is output, (2) the time between two consecutive outputs
and (3) the time between the last output and termination (Section 3.5).
iTraversal guarantees a polynomial delay (with the alternating-output trick);
iMB and the inflation baseline do not.  The helpers below wrap any solution
iterator and record the empirical delays so the Figure 8 experiment can be
reproduced for every algorithm uniformly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


@dataclass
class DelayRecord:
    """Empirical delay profile of one enumeration run.

    Both recorders (:func:`measure_delay` and
    :class:`DelayInstrumentedIterator`) fill this structure identically:
    ``delays`` holds exactly one entry per solution — the gap from the start
    (or the previous solution) to that output — and the gap from the last
    output to termination is stored separately in ``termination_gap``, so
    ``len(delays) == num_solutions`` always and ``mean_delay`` averages only
    the solution gaps instead of being skewed by the trailing one.
    """

    delays: List[float] = field(default_factory=list)
    termination_gap: Optional[float] = None
    total_time: float = 0.0
    num_solutions: int = 0

    @property
    def max_delay(self) -> float:
        """The delay as defined in the paper (Section 3.5).

        The maximum over the time to the first output, the gaps between
        consecutive outputs, and the gap between the last output and
        termination (when termination was observed).
        """
        candidates = list(self.delays)
        if self.termination_gap is not None:
            candidates.append(self.termination_gap)
        return max(candidates) if candidates else self.total_time

    @property
    def mean_delay(self) -> float:
        """Average gap between consecutive outputs (termination excluded)."""
        return sum(self.delays) / len(self.delays) if self.delays else self.total_time


def measure_delay(iterator_factory: Callable[[], Iterable[T]]) -> Tuple[List[T], DelayRecord]:
    """Consume the iterable produced by ``iterator_factory`` and record delays.

    The factory is called once, on the first pull of a
    :class:`DelayInstrumentedIterator` whose clock is already running, so
    that any setup cost counts towards the first delay, exactly as the
    paper's definition requires.
    """

    def produced() -> Iterator[T]:
        yield from iterator_factory()

    iterator = DelayInstrumentedIterator(produced())
    return list(iterator), iterator.record


class DelayInstrumentedIterator(Iterator[T]):
    """An iterator wrapper that records inter-output delays as it is consumed.

    Useful when the caller wants to keep streaming semantics (e.g. stop after
    the first N solutions) while still collecting delay statistics.  When the
    wrapped iterator is drained to exhaustion the record matches what
    :func:`measure_delay` produces; a caller that stops early leaves
    ``termination_gap`` unset (termination was never observed).
    """

    def __init__(self, inner: Iterable[T]) -> None:
        self._inner = iter(inner)
        self._start = time.perf_counter()
        self._previous = self._start
        self.record = DelayRecord()

    def __iter__(self) -> "DelayInstrumentedIterator[T]":
        return self

    def __next__(self) -> T:
        try:
            item = next(self._inner)
        except StopIteration:
            now = time.perf_counter()
            self.record.termination_gap = now - self._previous
            self.record.total_time = now - self._start
            raise
        now = time.perf_counter()
        self.record.delays.append(now - self._previous)
        self._previous = now
        self.record.num_solutions += 1
        return item
