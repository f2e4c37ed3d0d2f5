"""Debug replay for Detector312: re-check its state invariants after each push.

The checker runs the detector over a full permutation while holding the whole
input (this is a test harness, not a streaming algorithm) and verifies, after
every non-accepting push, that the detector state is what the correctness
argument relies on:

* ``h`` is the maximum of the prefix read so far;
* the window set ``A`` holds exactly the prefix values above h-k (so at
  most k of them);
* every stored pair (a, b) is a decreasing pair of prefix values with
  a - b >= k, the value intervals [b, a] are pairwise disjoint, and at most
  ceil(n/k) pairs are stored;
* soundness of the window: no decreasing prefix pair (a, b) with b > h-k has
  a completion c (b < c < a after b's position) anywhere in the stream —
  otherwise the detector would already have had to report;
* completeness of the pairs: every decreasing prefix pair (a, b) that has a
  completion somewhere after b is covered by a stored pair (a', b') with
  a' >= a and b' <= b, so the eventual completion will be caught.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Sequence

from ..core import StreamMode
from .base import DetectorReport
from .window312 import Detector312


class InvariantViolation(AssertionError):
    """A Detector312 state invariant failed during replay."""


def replay_312_with_invariants(values: Sequence[int], n: int) -> DetectorReport:
    """Run Detector312 over ``values`` checking invariants after every push."""
    det = Detector312(n, StreamMode.PERMUTATION)
    # suffix_sorted[t] = sorted values of the stream strictly after position t
    suffix_sorted: list[list[int]] = [[] for _ in range(len(values) + 1)]
    acc: list[int] = []
    for t in range(len(values) - 1, -1, -1):
        insort(acc, values[t])
        suffix_sorted[t] = list(acc)

    prefix: list[int] = []
    for v in values:
        if det.push(v):
            return det.finish()
        prefix.append(v)
        _check_state(det, prefix, suffix_sorted, n)
    return det.finish()


def _check_state(
    det: Detector312,
    prefix: list[int],
    suffix_sorted: list[list[int]],
    n: int,
) -> None:
    k = det.k
    h = det.h
    window = det.window_values
    pairs = det.pairs

    def fail(msg: str) -> None:
        raise InvariantViolation(f"after {len(prefix)} pushes: {msg}")

    if h != max(prefix):
        fail(f"h={h} is not the prefix maximum {max(prefix)}")

    expected_window = {x for x in prefix if x > h - k}
    if set(window) != expected_window:
        fail(f"window {sorted(window)} != prefix values above h-k {sorted(expected_window)}")

    if len(pairs) > math.ceil(n / k):
        fail(f"{len(pairs)} pairs stored, more than ceil(n/k)={math.ceil(n / k)}")
    prefix_set = set(prefix)
    pos_of = {v: i + 1 for i, v in enumerate(prefix)}
    for a, b in pairs:
        if a - b < k:
            fail(f"pair ({a}, {b}) has width {a - b} < k={k}")
        if a not in prefix_set or b not in prefix_set or pos_of[a] >= pos_of[b] or a <= b:
            fail(f"pair ({a}, {b}) is not a decreasing pair of the prefix")
    intervals = sorted((b, a) for a, b in pairs)
    for (b1, a1), (b2, a2) in zip(intervals, intervals[1:]):
        if a1 >= b2:
            fail(f"pair intervals [{b1},{a1}] and [{b2},{a2}] overlap")

    # Soundness and completeness against completions later in the stream.
    for j in range(len(prefix)):
        b = prefix[j]
        later = suffix_sorted[j + 1]  # values strictly after b's position
        for i in range(j):
            a = prefix[i]
            if a <= b:
                continue
            has_completion = bisect_left(later, a) > bisect_right(later, b)
            if not has_completion:
                continue
            if b > h - k:
                fail(
                    f"decreasing pair ({a}, {b}) inside the window has a "
                    "completion, but the detector did not report"
                )
            if not any(a2 >= a and b2 <= b for a2, b2 in pairs):
                fail(
                    f"decreasing pair ({a}, {b}) has a completion but no "
                    "stored pair covers it"
                )
