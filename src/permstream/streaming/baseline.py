"""Full-storage fallback detector and the trivial rejector.

The baseline buffers the entire stream.  Every pattern other than the
monotone ones, 312/132 and 231/213 needs Theta~(n) space in one pass, so
there that is the best possible.  It is the dispatch target for those
patterns, and for every non-monotone 3-pattern in ``seq`` mode.  At finish
it runs :func:`first_occurrence`, an exact matcher of its own; it shares no
code with :mod:`permstream.oracle`, which the tests compare it against.

The matcher names each pattern value by its *slot*, its index in the
pattern.  With a value fixed at every slot before the last three (the
*prefix*), one sweep decides whether the last three slots x, y, z can be
completed: it moves the position of y forward and keeps two sorted lists,
the values between the prefix and y and the values after y.  x and z then
each lie in a value interval, so each is one ``bisect`` away, and their
relative order is one comparison of the extreme candidates.  A
position-order loop places the prefix (a single start value for length-4
patterns, nothing for length 3) and stops at the first prefix the sweep
completes.  The witness is then picked greedily, slot by slot: x at the
first position from which the other two slots can follow (one scan per
candidate, and only positions before the y the sweep found are
candidates), y as the first the sweep returns with x fixed, and z by a
scan.  So it is the position-lexicographically first occurrence, as the
oracle's.  Counting each sorted-list update as one step (it is one C-level
memmove), a sweep costs O(m log m) on m buffered values, so deciding costs
O(m log m) for a length-3 pattern, O(m^2 log m) for length 4 and
O(m^(k-2) log m) for length k, against the oracle's about O(m^k) on
streams that avoid the pattern; the witness adds at most O(m^2).  Extra
memory is O(m) cells; nothing is sized from n.

The trivial rejector serves patterns longer than the universe: nothing can
match, so it stores nothing and always rejects.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import accumulate
from typing import Sequence

from ..core import Occurrence, Pattern, StreamMode
from .base import Detector


class BaselineDetector(Detector):
    """Buffer everything, decide at finish with :func:`first_occurrence`."""

    structure_names = ("buffer",)

    def __init__(self, pattern: Pattern, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        super().__init__(pattern, n, mode)
        self._buffer: list[int] = []

    def _step(self, value: int) -> bool:
        self._buffer.append(value)
        self._note_space(len(self._buffer), len(self._buffer))
        return False

    def _end_check(self) -> bool:
        found = first_occurrence(self._buffer, self.pattern.values)
        if found is None:
            return False
        self.occurrence = Occurrence(
            positions=tuple(p + 1 for p in found),
            values=tuple(self._buffer[p] for p in found),
        )
        return True

    def space_bound(self) -> tuple[str, float]:
        return ("n", float(self.n))


class TrivialRejectDetector(Detector):
    """Rejects without storing anything (pattern longer than the universe)."""

    def _step(self, value: int) -> bool:
        return False


def first_occurrence(values: Sequence[int], pattern: Sequence[int]) -> tuple[int, ...] | None:
    """0-based positions of the first occurrence of ``pattern`` in ``values``.

    ``values`` are distinct positive ints.  Occurrences are ordered by their
    position tuples, compared left to right.  Returns None when ``values``
    avoid the pattern.

    >>> first_occurrence([5, 3, 4, 1, 2], (2, 3, 1))
    (1, 2, 3)
    >>> first_occurrence([1, 2, 3, 4], (2, 1)) is None
    True
    """
    m, k = len(values), len(pattern)
    if k > m:
        return None
    if k <= 2:
        return _first_short(values, pattern)
    j = k - 3  # the prefix: slots 0..j-1 are placed in position order
    # val[j] and val[j + 1] lie below and above every value
    val = [0] * j + [0, max(values) + 1]
    # Slot t's value lies above the value at slot lower[t] and below the one
    # at upper[t]: the earlier prefix slots nearest to it in pattern order.
    lower, upper = [j] * k, [j + 1] * k
    for t in range(k):
        for i in range(min(t, j)):
            if pattern[i] < pattern[t]:
                if lower[t] == j or pattern[i] > pattern[lower[t]]:
                    lower[t] = i
            elif upper[t] == j + 1 or pattern[i] < pattern[upper[t]]:
                upper[t] = i
    last = list(zip(lower[j:], upper[j:]))
    pos = [0] * j

    def place(d: int, start: int) -> tuple[int, ...] | None:
        if d == j:
            bounds = [(val[a], val[b]) for a, b in last]
            return _close(values, start, pattern[j:], bounds)
        lo, hi = val[lower[d]], val[upper[d]]
        for p in range(start, m - (k - d) + 1):
            v = values[p]
            if lo < v < hi:
                pos[d] = p
                val[d] = v
                found = place(d + 1, p + 1)
                if found is not None:
                    return found
        return None

    found = place(0, 0)
    if found is None:
        return None
    return tuple(pos) + found


def _first_short(values: Sequence[int], pattern: Sequence[int]) -> tuple[int, ...] | None:
    """:func:`first_occurrence` for patterns of length 1 and 2, by direct scans."""
    if len(pattern) == 1:
        return (0,)
    # the first value with a later value on the pattern's side of it
    signed = [v if pattern[0] < pattern[1] else -v for v in values]
    m = len(signed)
    later = list(accumulate(reversed(signed), max))  # later[r]: max of the last r + 1
    for a in range(m - 1):
        if signed[a] < later[m - 2 - a]:
            return a, next(b for b in range(a + 1, m) if signed[b] > signed[a])
    return None


def _close(
    values: Sequence[int],
    start: int,
    slots: Sequence[int],
    bounds: Sequence[tuple[int, int]],
) -> tuple[int, int, int] | None:
    """The first positions >= ``start`` of the last three slots, or None.

    ``slots`` are the three pattern values and ``bounds`` the open value
    intervals the prefix leaves for them.
    """
    m = len(values)
    first_y = _sweep(values, start, m, slots, bounds)
    if first_y is None:
        return None
    # some completion puts x before first_y, so the first x is there too
    lx, hx = bounds[0]
    x = next(
        x for x in range(start, first_y)
        if lx < values[x] < hx and _pair_follows(values, x, slots, bounds)
    )
    y = _sweep(values, x, x + 1, slots, bounds)  # x alone between
    # z: the first value after y on the pattern's side of x's and y's values
    lz, hz = _narrow(bounds[2], slots[2], ((values[x], slots[0]), (values[y], slots[1])))
    z = next(z for z in range(y + 1, m) if lz < values[z] < hz)
    return x, y, z


def _narrow(bound: tuple[int, int], slot: int, fixed) -> tuple[int, int]:
    """``bound`` for the pattern value ``slot``, narrowed by (value, slot) pairs."""
    lo, hi = bound
    for v, p in fixed:
        if p < slot:
            lo = max(lo, v)
        else:
            hi = min(hi, v)
    return lo, hi


def _pair_follows(
    values: Sequence[int], x: int, slots: Sequence[int], bounds: Sequence[tuple[int, int]]
) -> bool:
    """Whether slots y and z can follow slot x at position ``x``, by one scan."""
    px, py, pz = slots
    fixed = ((values[x], px),)
    yl, yh = _narrow(bounds[1], py, fixed)
    zl, zh = _narrow(bounds[2], pz, fixed)
    z_above = pz > py
    best = None  # the y value that admits the most z: the least if z lies above y
    for i in range(x + 1, len(values)):
        v = values[i]
        if best is not None and zl < v < zh and (best < v if z_above else v < best):
            return True
        if yl < v < yh and (best is None or (v < best if z_above else best < v)):
            best = v
    return False


def _sweep(
    values: Sequence[int],
    start: int,
    x_stop: int,
    slots: Sequence[int],
    bounds: Sequence[tuple[int, int]],
) -> int | None:
    """The first position y of the middle slot that completes, or None.

    Completing means some x in ``[start, min(y, x_stop))`` and some z after
    y whose values fit their intervals and the pattern's order with y's
    value and with each other.
    """
    px, py, pz = slots
    (lx, hx), (ly, hy), (lz, hz) = bounds
    # the sorted values that fit x's interval at positions start..min(y, x_stop) - 1,
    # and those that fit z's interval at positions after y
    between: list[int] = []
    after = sorted([v for v in values[start + 1 :] if lz < v < hz])
    for y in range(start + 1, len(values) - 1):
        vy = values[y]
        if lz < vy < hz:
            del after[bisect_left(after, vy)]
        if y <= x_stop and lx < values[y - 1] < hx:
            insort(between, values[y - 1])
        if not ly < vy < hy:
            continue
        # x and z narrowed by y's value: each is one interval
        xl, xh = (lx, min(hx, vy)) if px < py else (max(lx, vy), hx)
        zl, zh = (lz, min(hz, vy)) if pz < py else (max(lz, vy), hz)
        if px < pz:  # is the smallest x below the largest z?
            i = bisect_right(between, xl)
            r = bisect_left(after, zh) - 1
            if i < len(between) and between[i] < xh and r >= 0 and after[r] > zl:
                if between[i] < after[r]:
                    return y
        else:  # is the largest x above the smallest z?
            i = bisect_left(between, xh) - 1
            r = bisect_right(after, zl)
            if i >= 0 and between[i] > xl and r < len(after) and after[r] < zh:
                if between[i] > after[r]:
                    return y
    return None
