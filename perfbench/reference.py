"""Reference-scaled host timing.

The host's speed drifts by tens of percent over seconds to minutes on a
small shared VM, and there is no PMU to count instructions instead.  So
every measured phase runs as short slices, and after each slice the same
fixed pure-Python reference loop runs in the same thread.  A slice's
host time is scaled by ``T_ref_nominal / T_ref_adjacent`` (the mean of
the reference times just before and just after it), which converts it to
"host seconds on a machine as fast as the reference run".

The reference loop is part of the benchmark's definition: change it (or
``t_ref_nominal_s``, recorded in ``record.json``) only in a change that
re-measures the baseline, never in one that claims a gain.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable, List, Tuple

_REF_ITEMS = 5000


class _Entry:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.hits = 0


def reference_loop() -> int:
    """Fixed interpreter work of the simulator's kind: heap pushes and
    pops of tuples, dict churn and ``__slots__`` attribute traffic."""
    heap: List[Tuple[int, int, _Entry]] = []
    table = {}
    acc = 0
    for i in range(_REF_ITEMS):
        key = (i * 7919) % 10007
        entry = _Entry(key, i)
        table[key] = entry
        heapq.heappush(heap, (key, i, entry))
    for i in range(_REF_ITEMS):
        key, _, entry = heapq.heappop(heap)
        entry.hits += 1
        other = table.get((key * 31) % 10007)
        if other is not None:
            other.hits += entry.hits
            acc += other.value & 0xFF
        heapq.heappush(heap, (key + 10007, i, entry))
        if i & 3 == 0:
            table.pop(key, None)
    while heap:
        acc ^= heapq.heappop(heap)[0]
    return acc


def timed_reference() -> float:
    """Host seconds of one reference loop.  The cyclic collector is held
    off meanwhile: the loop makes no cycles, and a collection would scan
    the simulation's heap and tie the reference to the program's size."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


class ScaledClock:
    """Reference-scaled host time of a sequence of work slices.

    Call :meth:`slice` with a zero-argument callable for every chunk of
    work; the clock follows each slice with a reference run.  Slice
    ``i`` lies between references ``i`` and ``i + 1`` and is scaled by
    ``nominal_s`` over their mean.
    """

    def __init__(self, nominal_s: float) -> None:
        self.nominal_s = nominal_s
        self.elapsed_s: List[float] = []
        self.ref_s: List[float] = [timed_reference()]

    def slice(self, work: Callable[[], None]) -> None:
        start = time.perf_counter()
        work()
        self.elapsed_s.append(time.perf_counter() - start)
        self.ref_s.append(timed_reference())

    def factors(self) -> List[float]:
        refs = self.ref_s
        return [
            2.0 * self.nominal_s / (refs[i] + refs[i + 1])
            for i in range(len(self.elapsed_s))
        ]

    def totals(self, first: int, stop: int) -> Tuple[float, float]:
        """(raw, scaled) host seconds of slices ``first`` to ``stop - 1``."""
        factors = self.factors()[first:stop]
        elapsed = self.elapsed_s[first:stop]
        return sum(elapsed), sum(e * f for e, f in zip(elapsed, factors))
