"""Full-storage fallback detector and the trivial rejector.

The baseline buffers the entire stream.  Every pattern other than the
monotone ones, 312/132 and 231/213 needs Theta~(n) space in one pass, so
there that is the best possible.  It is the dispatch target for those
patterns, and for every non-monotone 3-pattern in ``seq`` mode.  At finish
it runs :func:`first_occurrence`, an exact matcher of its own; it shares no
code with :mod:`permstream.oracle`, which the tests compare it against.

The matcher compares values only, so it runs on their ranks 1..m, m being
the number of buffered values; a ``perm`` buffer at finish already is its
ranking.  It names each pattern value by its *slot*, its index in the
pattern.  With a value fixed at every slot before the last three (the
*prefix*), one sweep decides whether the last three slots x, y, z can be
completed: it moves the position of y forward and keeps two presence maps,
one byte per rank, of the values between the prefix and y and of the
values after y.  x and z then each lie in a value interval, so each
is one ``find`` or ``rfind`` over that interval of a map, and their
relative order is one comparison of the extreme candidates.  The sweep
stops as soon as no z is left after y.  A position-order loop places the
prefix (a single start value for length-4 patterns, nothing for length 3)
and stops at the first prefix the sweep completes.  It keeps one iterator
of candidates per placed slot on a list, not a Python frame, so a pattern
of any length runs without recursion.  The witness is then
picked greedily, slot by slot: x at the least position s such that a
sweep taking x only at or before s completes, searched for from the first
value that fits x's interval with a step that doubles while sweeps fail,
then by bisection; y as the first the sweep returns with x fixed, and z
by a scan.  So it is the position-lexicographically first occurrence, as
the oracle's.

The prefix loop skips each candidate that a failed one at the same slot,
after the same earlier values, *dominates*
(:func:`_undominated`): every completion of it would have completed the
failed one, so it fails too and the first occurrence stays.  When the
later slots a slot bounds all lie on one side of it, every candidate on
that side of a failed value is skipped: for the 4 of 4231, each value
below a failed one.  When they lie on both sides, as around the 3 of 3142,
only those that no later value separates from a failed one are skipped.

A map update is one byte store, O(1), and a query is one C-level scan over
at most its interval's width, so at most m bytes.  A sweep starts from a map
of ones less the values at or before its start, one store each, so one that
stops early never reads the rest of the buffer.  Counting a scan as one
step, a sweep costs O(m), so deciding costs O(m) for a length-3 pattern,
O(m^2) for length 4 and O(m^(k-2)) for length k, against the oracle's about
O(m^k) on streams that avoid the pattern; the witness adds O(log m)
sweeps.  The skipping costs two stores and at most four scans per
candidate, and one map after a loop's first failed sweep, so it keeps
these bounds.  Extra memory is O(m) cells for the ranks of a ``seq`` buffer and
O(k) maps of m + 1 bytes; nothing is sized from n or from the values.

The trivial rejector serves patterns longer than the universe: nothing can
match, so it stores nothing and always rejects.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from ..core import Occurrence, Pattern, StreamMode
from .base import Detector


class BaselineDetector(Detector):
    """Buffer everything, decide at finish with :func:`first_occurrence`."""

    def __init__(self, pattern: Pattern, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        super().__init__(pattern, n, mode)
        self._buffer: list[int] = []

    def _feed(self, values: Iterable[int]) -> bool:
        # never accepts before finish, so the batch goes in whole
        buf = self._buffer
        held = len(buf)
        buf.extend(values)
        self.pushes += len(buf) - held
        return False

    def _end_check(self) -> bool:
        # the buffer only grows, so its size at the end is its peak
        self.peak_cells = len(self._buffer)
        self.structure_peaks = {"buffer": len(self._buffer)}
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

    def _feed(self, values: Iterable[int]) -> bool:
        self.pushes += sum(1 for _ in values)
        return False


def first_occurrence(values: Sequence[int], pattern: Sequence[int]) -> tuple[int, ...] | None:
    """0-based positions of the first occurrence of ``pattern`` in ``values``.

    ``values`` are distinct positive ints; only their order is read, so no
    structure is sized from them.  Occurrences are ordered by their position
    tuples, compared left to right.  Returns None when ``values`` avoid the
    pattern.

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
    # the matcher compares values only, so it runs on their ranks 1..m; a
    # buffer of distinct positive ints whose largest is m already is its ranking
    if max(values) != m:
        rank = {v: r for r, v in enumerate(sorted(values), 1)}
        values = [rank[v] for v in values]
    j = k - 3  # the prefix: slots 0..j-1 are placed in position order
    # val[j] and val[j + 1] lie below and above every value
    val = [0] * j + [0, m + 1]
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
    # slot d's value enters only the bounds of the later slots it is nearest to
    sides = [
        _sides(pattern[d], [pattern[t] for t in range(d + 1, k) if d in (lower[t], upper[t])])
        for d in range(j)
    ]

    # one iterator of candidates per prefix slot placed so far, the last one's
    # resumed when every completion of its last candidate has failed
    slots: list[Iterator[int]] = []
    start = 0
    while True:
        d = len(slots)
        if d == j:
            found = _close(values, start, pattern[j:], [(val[a], val[b]) for a, b in last])
            if found is not None:
                return tuple(pos) + found
        else:
            stop, lo, hi = m - (k - d) + 1, val[lower[d]], val[upper[d]]
            slots.append(_undominated(values, start, stop, lo, hi, sides[d]))
        while slots and (p := next(slots[-1], None)) is None:
            slots.pop()
        if not slots:
            return None
        d = len(slots) - 1
        pos[d], val[d] = p, values[p]
        start = p + 1


def _sides(at: int, bounded: Sequence[int]) -> tuple[bool, bool]:
    """Whether some of the pattern values ``bounded`` lie below ``at``, and above it."""
    return any(b < at for b in bounded), any(b > at for b in bounded)


def _undominated(
    values: Sequence[int], start: int, stop: int, lo: int, hi: int, sides: tuple[bool, bool]
) -> Iterator[int]:
    """The positions in ``[start, stop)`` of one slot's candidates, less dominated ones.

    A candidate's value lies in ``(lo, hi)``; ``sides`` is :func:`_sides` of
    the slot and the later slots its value bounds.  The caller stops at the
    first candidate that completes, so each resumption means the last one
    failed.  A failed value w dominates a candidate v at p when w > v and
    no bounded slot lies above the slot or no value after p lies between v
    and w, or likewise with w < v and below.  Each completion of v then
    completes w: its values lie after p, each on the same side of w as of v.
    The nearest failed value on each side is the one to test, and a value
    between two candidates is a candidate too, so only ``(lo, hi)`` of the
    maps is read.
    """
    below, above = sides
    # once one fails: presence maps of the values tried and of those after p
    failed = later = None
    for p in range(start, stop):
        v = values[p]
        if not lo < v < hi:
            continue
        if failed is not None:
            later[v] = 0
            w = failed.rfind(1, lo + 1, v)
            if w >= 0 and (not below or later.find(1, w + 1, v) < 0):
                continue
            w = failed.find(1, v + 1, hi)
            if w >= 0 and (not above or later.find(1, v + 1, w) < 0):
                continue
        yield p
        if failed is None:
            later = _after(values, p)
            failed = bytearray(len(later))
        failed[v] = 1


def _after(values: Sequence[int], p: int) -> bytearray:
    """A presence map of the values after position ``p``, indexed by value.

    ``values`` are ranks, so the map has ``len(values) + 1`` bytes; byte 0
    stands for no value and is never read.
    """
    present = bytearray(b"\1" * (len(values) + 1))
    for v in values[: p + 1]:
        present[v] = 0
    return present


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
    # some completion has its x before hi, and none before lo (no value there fits)
    hi = _sweep(values, start, m, slots, bounds)
    if hi is None:
        return None
    lx, hx = bounds[0]

    def sweep_x_in(a: int, b: int) -> int | None:
        # x takes only the values at a..b-1, which also bound y and z: a sweep
        # that fails then stops once the z this leaves run out
        xs = [v for v in values[a:b] if lx < v < hx]
        if not xs:
            return None
        low, high = min(xs), max(xs)
        narrowed = [(low - 1, high + 1)] + [  # y and z: above low or below high
            (max(bl, low), bh) if slots[0] < slot else (bl, min(bh, high))
            for (bl, bh), slot in zip(bounds[1:], slots[1:])
        ]
        return _sweep(values, a, b, slots, narrowed)

    lo = next(p for p in range(start, hi) if lx < values[p] < hx)
    step = 1
    while hi - lo > 1:  # s from lo + 1, the step doubling while sweeps fail, then halving
        s = min(lo + step, (lo + hi) // 2)
        if sweep_x_in(lo, s) is None:
            lo, step = s, 2 * step
        else:
            hi = s
    x = lo
    y = sweep_x_in(x, x + 1)
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
    value and with each other.  ``values`` are ranks, as for :func:`_after`.
    """
    px, py, pz = slots
    x_below, z_below, x_lowest = px < py, pz < py, px < pz
    (lx, hx), (ly, hy), (lz, hz) = bounds
    # presence maps by value: the values at positions start..min(y, x_stop) - 1,
    # and those after y; only the part inside x's or z's interval is read
    after = _after(values, start)
    between = bytearray(len(after))
    left = after.count(1, lz + 1, hz)  # the values after y that fit z's interval
    if not left:
        return None
    for y in range(start + 1, len(values) - 1):
        vy = values[y]
        if lz < vy < hz:
            after[vy] = 0
            left -= 1
            if not left:  # no z is left for this y or any later one
                return None
        if y <= x_stop:
            between[values[y - 1]] = 1
        if not ly < vy < hy:
            continue
        # x and z narrowed by y's value: each is one interval (conditional
        # expressions, as min and max calls cost more than the scans here)
        xl, xh = (lx, vy if vy < hx else hx) if x_below else (vy if vy > lx else lx, hx)
        zl, zh = (lz, vy if vy < hz else hz) if z_below else (vy if vy > lz else lz, hz)
        if x_lowest:  # is the smallest x below the largest z?
            x = between.find(1, xl + 1, xh)
            if 0 <= x < after.rfind(1, zl + 1, zh):
                return y
        else:  # is the largest x above the smallest z?
            z = after.find(1, zl + 1, zh)
            if 0 <= z < between.rfind(1, xl + 1, xh):
                return y
    return None
