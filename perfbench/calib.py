"""Host-speed calibration: fixed reference tasks timed between measured intervals.

The benchmark runs on shared hosts whose speed drifts, by up to 2x for
minutes at a time, as neighbours contend for the same cores and caches.  A
plain wall time then measures the neighbours as much as the program.  So
fixed reference tasks are timed between every two measured intervals, and
the benchmark reports each interval scaled to a nominal host speed::

    interval / mean(slowness before, slowness after)

where a slowness is a reference task's time over its time on a nominal host.
The reference tasks are the benchmark's own code and import nothing from
``permstream``, so a change to the program cannot move them:

* the interpreter task, a depth-first count of the pattern 4231 in a fixed
  permutation of 28 values: interpreter-bound Python of the same kind as the
  detectors' push loops and the brute-force oracle;
* the bulk task, which splits, parses and de-duplicates a fixed text of
  25 000 values the way a stream file is read: allocation-bound work with a
  working set larger than a core's L2 cache, of the kind that dominates a
  ``permstream detect`` process's start, parse and validation.  It stays
  small because a child's peak RSS starts at its parent's.

In-process checks are scaled by the interpreter task alone; child processes
by the mean slowness of both, timed in a helper process (see ``Helper``).
"""

from __future__ import annotations

import functools
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Callable

#: the tasks' durations on an unloaded 2.1 GHz Xeon vCPU under CPython 3.11;
#: only a scale, so that calibrated times read as seconds
REFERENCE_S = 0.004
BULK_S = 0.0072

_PATTERN = (4, 2, 3, 1)
_VALUES = list(range(1, 29))
random.Random("perfbench-reference").shuffle(_VALUES)
#: occurrences of 4231 in _VALUES, checked on every call
_EXPECTED = 665

_BULK_N = 25_000


def reference_task() -> int:
    """Count the occurrences of 4231 in the fixed permutation, by depth-first search."""
    pat = _PATTERN
    vals = _VALUES
    k, m = len(pat), len(vals)
    below = [[j for j in range(d) if pat[j] < pat[d]] for d in range(k)]
    above = [[j for j in range(d) if pat[j] > pat[d]] for d in range(k)]
    chosen: list[int] = []
    found = 0

    def extend(depth: int, start: int) -> None:
        nonlocal found
        if depth == k:
            found += 1
            return
        for i in range(start, m - (k - depth) + 1):
            v = vals[i]
            if all(chosen[j] < v for j in below[depth]) and all(chosen[j] > v for j in above[depth]):
                chosen.append(v)
                extend(depth + 1, i + 1)
                chosen.pop()

    extend(0, 0)
    return found


@functools.lru_cache(maxsize=1)
def _bulk_text() -> str:
    values = list(range(1, _BULK_N + 1))
    random.Random("perfbench-bulk").shuffle(values)
    return "\n".join(" ".join(map(str, values[i : i + 20])) for i in range(0, _BULK_N, 20)) + "\n"


def bulk_task() -> int:
    """Split, parse and de-duplicate the fixed text; return the number of values."""
    tokens: list[str] = []
    for line in _bulk_text().splitlines():
        tokens.extend(line.split())
    values = tuple(int(tok) for tok in tokens)
    seen: set[int] = set()
    for value in values:
        if value in seen:
            raise RuntimeError("the bulk task found a duplicate")
        seen.add(value)
    return len(seen)


def reference_s(reps: int) -> float:
    """Mean seconds of one interpreter task over ``reps`` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(reps):
        if reference_task() != _EXPECTED:
            raise RuntimeError("the reference task miscounted")
    return (time.perf_counter() - start) / reps


def slowness(reps: int, bulk_reps: int) -> float:
    """The reference time over its nominal time: 1 on a nominal host, 2 on one twice as slow.

    ``reps`` interpreter tasks, and with ``bulk_reps`` bulk tasks the mean of
    the two kinds' slowness.
    """
    interp = reference_s(reps) / REFERENCE_S
    if not bulk_reps:
        return interp
    start = time.perf_counter()
    for _ in range(bulk_reps):
        if bulk_task() != _BULK_N:
            raise RuntimeError("the bulk task miscounted")
    return (interp + (time.perf_counter() - start) / bulk_reps / BULK_S) / 2


class Calibration:
    """Scale factors for intervals measured one after another.

    Call :meth:`factor` right after each measured interval, with nothing
    else in between: the references it times close this interval and open
    the next, so each interval is scaled by the references on either side.
    ``measure`` times the references and returns their slowness.
    """

    def __init__(self, measure: Callable[[], float]) -> None:
        self.measure = measure
        for _ in range(3):  # warm-up: the first runs allocate and fill caches
            measure()
        self.before = measure()
        self.factors: list[float] = []

    def factor(self) -> float:
        """1 / the mean slowness before and after the interval: above 1 on a fast host."""
        after = self.measure()
        factor = 2 / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return factor

    def median(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0


class Helper:
    """The reference tasks in a process of their own, timed on request.

    A child process's peak RSS starts at its parent's, so a parent that
    measures its children's memory runs the bulk task here instead.  The
    helper waits on its stdin while the measured children run, and exits
    when its stdin closes.
    """

    def __init__(self, reps: int, bulk_reps: int) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(reps), str(bulk_reps)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def slowness(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the calibration helper exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    reps, bulk_reps = int(sys.argv[1]), int(sys.argv[2])
    for _ in sys.stdin:
        print(slowness(reps, bulk_reps), flush=True)
