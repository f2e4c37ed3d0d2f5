"""One-pass 231 detector that cuts the stream into sqrt(n)-sized strips.

The core machinery natively detects the pattern 213; feeding it the
complement of each incoming value (v -> n+1-v) turns it into a 231 detector,
because a stream contains 231 exactly when its complement contains 213.

Within the current strip every point is buffered, so occurrences living
inside one strip are caught by a direct scan when the strip closes.  Across
strips, four summaries suffice (all in the complemented value space):

1. the closing scan itself;
2. ``low_starter`` -- the lowest value that starts a descent inside some
   closed strip; any later higher value completes a 213 (the descent's low
   end, then the new value);
3. per strip, the widest *increasing pair with an outside value strictly
   between*: a counter tracks how many values strictly between its endpoints
   have been seen in or after the strip; if at end of stream the counter is
   short of the gap size, some in-between value occurred *earlier*, and that
   value, followed by the pair, forms a 213;
4. per strip, its minimum together with the highest later value above it:
   the same counting argument with the pair (minimum, running maximum).

Only the end-of-stream checks of (3) and (4) can conclude "some value must
have occurred earlier", so this detector needs the permutation promise and
delivers verdict-only acceptance: it proves existence without ever holding
all three witness positions at once.

Because only the end-of-stream check reads the counters of (3) and (4), they
are not updated per push: when a strip closes, its sorted values are folded
into every earlier record with a few bisects.  The metered cell count is kept
incrementally; the one cell a record gains when its first value above the
strip minimum arrives is counted on that exact push, from a sorted list of
the minima still waiting for one.  Closing a strip costs O(s log s) for the
strip's own scans plus O(log s) per earlier record, so a push costs
O(log n) amortized.

Space: one buffer of at most floor(sqrt(n)) points plus a constant number of
counters per closed strip.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from ..core import StreamMode, classify_pattern
from .base import Detector


@dataclass(slots=True)
class StripRecord:
    """Counters summarizing one closed strip (complemented value space).

    ``gap_lo``/``gap_hi`` bound the widest increasing pair with an outside
    value strictly between (None when the strip has no such pair); ``seen``
    counts values strictly between them observed in or after the strip.
    ``low`` is the strip minimum, ``high_after`` the highest value observed
    above it from within-strip-after-it onwards, and ``seen_above`` how many
    such values were observed.  Values after the strip are folded in when
    each later strip closes.
    """

    gap_lo: int | None
    gap_hi: int | None
    seen: int
    low: int
    high_after: int | None
    seen_above: int

    def fold(self, ordered: list[int]) -> None:
        """Count the sorted values of a later strip."""
        if self.gap_lo is not None:
            self.seen += bisect_left(ordered, self.gap_hi) - bisect_right(ordered, self.gap_lo)
        above = len(ordered) - bisect_right(ordered, self.low)
        if above:
            self.seen_above += above
            if self.high_after is None or ordered[-1] > self.high_after:
                self.high_after = ordered[-1]

    def accepts_at_end(self) -> bool:
        if self.gap_lo is not None and self.seen < self.gap_hi - self.gap_lo - 1:
            return True
        return (
            self.high_after is not None
            and self.seen_above < self.high_after - self.low
        )

    def cells(self) -> int:
        return (3 if self.gap_lo is not None else 0) + 2 + (
            1 if self.high_after is not None else 0
        )


def contains_213(seq: list[int]) -> bool:
    """Direct scan for 213 in a short sequence of distinct values.

    For each candidate middle index j (the pattern's low point), the best
    possible first value is the smallest earlier value above seq[j], found
    by bisecting the sorted prefix; a later value beating any such best
    completes the pattern.
    """
    best = math.inf
    prefix: list[int] = []
    for w in seq:
        if w > best:
            return True
        i = bisect_right(prefix, w)
        if i < len(prefix) and prefix[i] < best:
            best = prefix[i]
        prefix.insert(i, w)
    return False


def widest_gap_hull(seq: list[int], ordered: list[int]) -> tuple[int, int] | None:
    """Hull of the increasing pairs of ``seq`` with an outside value between.

    ``ordered`` is ``seq`` sorted.  A value x has ``x - rank(x)`` values
    outside ``seq`` below it, a count that never falls as x grows; so an
    earlier a and a later b have an outside value strictly between exactly
    when that count is larger at b.  The lowest such a is the lowest value
    whose count is below the largest count after it, and the highest such b
    the highest value whose count is above the smallest count before it.
    """
    rank = {x: r for r, x in enumerate(ordered)}
    outside = [x - rank[x] for x in seq]
    lo = hi = None
    suffix_max = -1
    for x, count in zip(reversed(seq), reversed(outside)):
        if count < suffix_max and (lo is None or x < lo):
            lo = x
        suffix_max = max(suffix_max, count)
    prefix_min = math.inf
    for x, count in zip(seq, outside):
        if count > prefix_min and (hi is None or x > hi):
            hi = x
        prefix_min = min(prefix_min, count)
    return None if lo is None else (lo, hi)


class Detector231(Detector):
    """Streaming detector for the pattern 231 on permutation streams.

    Acceptance is verdict-only (``occurrence`` stays None): parts (3) and (4)
    prove that a witness exists without storing its positions.
    """

    structure_names = ("buffer", "strips")

    def __init__(self, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        if mode is not StreamMode.PERMUTATION:
            raise ValueError("Detector231 requires a permutation stream")
        super().__init__(classify_pattern((2, 3, 1)), n, mode)
        self.strip_size = max(1, math.isqrt(n))
        self._buffer: list[int] = []
        self._records: list[StripRecord] = []
        # cells of all records, counting a high_after once a value above the
        # strip minimum has been pushed even before the next fold records it
        self._record_cells = 0
        # minima (sorted) of the records still waiting for that value
        self._waiting_lows: list[int] = []
        # lowest descent starter over closed strips; n+1 means none yet, and
        # no complemented value can exceed it.
        self._low_starter = n + 1

    def _step(self, v: int) -> bool:
        w = self.n + 1 - v  # work in the complement space (213 mechanics)
        if w > self._low_starter:
            return self._accept()
        waiting = self._waiting_lows
        if waiting and waiting[0] < w:
            arrived = bisect_left(waiting, w)
            del waiting[:arrived]
            self._record_cells += arrived
        buf = self._buffer
        buf.append(w)
        if len(buf) == self.strip_size:
            if self._close_strip():
                return self._accept()
        self._meter()
        return False

    def _end_check(self) -> bool:
        if self._buffer and self._close_strip():
            return True
        return any(rec.accepts_at_end() for rec in self._records)

    def _close_strip(self) -> bool:
        """Summarize the buffered strip.  True when the strip itself has 213."""
        buf = self._buffer
        ordered = sorted(buf)
        for rec in self._records:
            rec.fold(ordered)
        if contains_213(buf):
            return True

        # part (2): the lowest value starting a descent within the strip.
        running_min = math.inf
        lowest_starter = math.inf
        for w in reversed(buf):
            if running_min < w < lowest_starter:
                lowest_starter = w
            if w < running_min:
                running_min = w
        if lowest_starter < self._low_starter:
            self._low_starter = int(lowest_starter)

        # part (3): widest increasing pair with an outside value in the gap.
        hull = widest_gap_hull(buf, ordered)
        gap_lo, gap_hi = hull if hull is not None else (None, None)
        seen = bisect_left(ordered, gap_hi) - bisect_right(ordered, gap_lo) if hull else 0

        # part (4): the strip minimum and the highest value after it.
        low = ordered[0]
        after = buf[buf.index(low) + 1 :]
        high_after = max(after) if after else None

        record = StripRecord(
            gap_lo=gap_lo,
            gap_hi=gap_hi,
            seen=seen,
            low=low,
            high_after=high_after,
            seen_above=len(after),
        )
        self._records.append(record)
        self._record_cells += record.cells()
        if high_after is None:
            insort(self._waiting_lows, low)
        buf.clear()
        self._meter()
        return False

    def space_bound(self) -> tuple[str, float]:
        return ("sqrt(n)", math.sqrt(self.n))

    def adversary(self) -> list[int] | None:
        """The increasing stream: every strip closes with a record."""
        return list(range(1, self.n + 1))

    def _meter(self) -> None:
        buffered = len(self._buffer)
        self._note_space(1 + buffered + self._record_cells, buffered, len(self._records))
