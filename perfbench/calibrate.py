"""A fixed reference task that tracks the host's speed during a run.

On a shared two-CPU VM the host's speed moves by far more than any
bound a useful benchmark can have.  A busy neighbour on the other
virtual CPU doubles the time of every job; the host flips between such
slow spells and fast ones every second or so, and the share of slow
time in a run changes from minute to minute.

So a run times this reference task in every gap between its timed
operations, and reports each operation at the reference speed::

    reported = measured * NOMINAL_S / median(reference samples just before and after it)

The host slows the reference and the program alike, so the ratio stays
put; a slower program slows only the numerator.  The reference and
the program must run on the same CPU for this to hold, which is why
``run.py`` pins itself and its children to one.  ``README.md`` gives
the spreads of raw and reported times over ten runs of each workload.

The reference never calls the program.  It runs in the benchmark's own
process while the program's process waits for its next request, with
the garbage collector paused so that the inputs that process holds
cannot change its time.  Every run also records its raw times and every
reference sample.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import numpy as np

#: the reference task's time on the VM the benchmark was sized on (two
#: vCPUs of an Intel Xeon, neighbour idle): reported times are seconds
#: of that host
NOMINAL_S = 0.05

_VALUES = 32_000
_BUCKETS = 257
_SORT_ROUNDS = 4


def reference_task() -> int:
    """A fixed mix of the program's kinds of work: dicts, sets, sorts, numpy."""
    rng = random.Random(20240611)
    values = [rng.randrange(1 << 16) for _ in range(_VALUES)]
    groups: dict[int, list[int]] = {}
    for index, value in enumerate(values):
        groups.setdefault(value % _BUCKETS, []).append(index)
    sets = [frozenset(group) for group in groups.values()]
    total = 0
    for left, right in zip(sets, sets[1:]):
        total += len(left | right) - len(left & right)
    rows = sorted(zip(values, range(len(values))))
    array = np.array(values, dtype=np.int64)
    for _ in range(_SORT_ROUNDS):
        array = array[np.argsort(array, kind="stable")] ^ 0x5A5A
    return total + rows[0][0] + int(array[0])


class Calibration:
    """The reference samples of one run, one group per gap between operations."""

    def __init__(self) -> None:
        self.gaps: list[list[float]] = []

    def sample(self, count: int) -> None:
        """Time ``count`` reference tasks, each on its own, as one gap."""
        gap = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = time.perf_counter()
                reference_task()
                gap.append(time.perf_counter() - started)
        finally:
            if was_enabled:
                gc.enable()
        self.gaps.append(gap)

    def factor(self) -> float:
        """Scale for what was timed between the last two gaps."""
        if len(self.gaps) < 2:
            raise ValueError("an operation needs reference samples on both sides")
        return NOMINAL_S / statistics.median(self.gaps[-2] + self.gaps[-1])

    def report(self) -> dict:
        samples = [sample for gap in self.gaps for sample in gap]
        return {
            "nominal_s": NOMINAL_S,
            "median_s": statistics.median(samples),
            "gaps_s": self.gaps,
        }
