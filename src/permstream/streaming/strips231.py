"""One-pass 231 detector that cuts the stream into sqrt(n)-sized strips.

Within the current strip every point is buffered, so occurrences living
inside one strip are caught by a direct scan when the strip closes.  Across
strips, four summaries suffice:

1. the closing scan itself;
2. ``high_starter`` -- the highest value that starts an ascent inside some
   closed strip; any later lower value completes a 231 (the ascent, then the
   new value);
3. per strip, the widest *decreasing pair with an outside value strictly
   between*: a counter tracks how many values strictly between its endpoints
   have been seen in or after the strip; if at end of stream the counter is
   short of the gap size, some in-between value occurred *earlier*, and that
   value, followed by the pair, forms a 231;
4. per strip, its maximum together with the lowest later value below it:
   the same counting argument with the pair (maximum, running minimum).

Only the end-of-stream checks of (3) and (4) can conclude "some value must
have occurred earlier", so this detector needs the permutation promise and
delivers verdict-only acceptance: it proves existence without ever holding
all three witness positions at once.

Because only the end-of-stream check reads the counters of (3) and (4), they
are not updated per push: when a strip closes, its sorted values are folded
into every earlier record with a few bisects.  The metered cell count is kept
incrementally; the one cell a record gains when its first value below the
strip maximum arrives is counted on that exact push, from a sorted list of
the maxima still waiting for one.  Closing a strip costs O(s log s) for the
strip's own scans plus O(log s) per earlier record, so a push costs
O(log n) amortized.

Space: one buffer of at most floor(sqrt(n)) points plus a constant number of
counters per closed strip.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import Iterable

from ..core import StreamMode, classify_pattern
from .base import Detector


class StripRecord:
    """Counters summarizing one closed strip.

    ``gap_lo``/``gap_hi`` bound the widest decreasing pair with an outside
    value strictly between (None when the strip has no such pair); ``seen``
    counts values strictly between them observed in or after the strip.
    ``high`` is the strip maximum, ``low_after`` the lowest value observed
    below it from within-strip-after-it onwards, and ``seen_below`` how many
    such values were observed.  Values after the strip are folded in when
    each later strip closes.
    """

    __slots__ = ("gap_lo", "gap_hi", "seen", "high", "low_after", "seen_below")

    def __init__(
        self,
        gap_lo: int | None,
        gap_hi: int | None,
        seen: int,
        high: int,
        low_after: int | None,
        seen_below: int,
    ) -> None:
        self.gap_lo = gap_lo
        self.gap_hi = gap_hi
        self.seen = seen
        self.high = high
        self.low_after = low_after
        self.seen_below = seen_below

    def fold(self, ordered: list[int]) -> None:
        """Count the sorted values of a later strip."""
        if self.gap_lo is not None:
            self.seen += bisect_left(ordered, self.gap_hi) - bisect_right(ordered, self.gap_lo)
        below = bisect_left(ordered, self.high)
        if below:
            self.seen_below += below
            if self.low_after is None or ordered[0] < self.low_after:
                self.low_after = ordered[0]

    def accepts_at_end(self) -> bool:
        if self.gap_lo is not None and self.seen < self.gap_hi - self.gap_lo - 1:
            return True
        return (
            self.low_after is not None
            and self.seen_below < self.high - self.low_after
        )

    def cells(self) -> int:
        return (3 if self.gap_lo is not None else 0) + 2 + (
            1 if self.low_after is not None else 0
        )


def contains_231(seq: list[int]) -> bool:
    """Direct scan for 231 in a short sequence of distinct positive values.

    For each candidate middle index j (the pattern's high point), the best
    possible first value is the largest earlier value below seq[j], found
    by bisecting the sorted prefix; a later value below any such best
    completes the pattern.
    """
    best = 0
    prefix: list[int] = []
    for v in seq:
        if v < best:
            return True
        i = bisect_left(prefix, v)
        if i and prefix[i - 1] > best:
            best = prefix[i - 1]
        prefix.insert(i, v)
    return False


def widest_gap_hull(seq: list[int], ordered: list[int]) -> tuple[int, int] | None:
    """Hull of the decreasing pairs of ``seq`` with an outside value between.

    ``ordered`` is ``seq`` sorted.  A value x has ``x - rank(x)`` values
    outside ``seq`` below it, a count that never falls as x grows; so an
    earlier a and a later b below it have an outside value strictly between
    exactly when that count is larger at a.  The highest such a is the
    highest value whose count is above the smallest count after it, and the
    lowest such b the lowest value whose count is below the largest count
    before it.
    """
    rank = {x: r for r, x in enumerate(ordered)}
    outside = [x - rank[x] for x in seq]
    lo = hi = None
    suffix_min = math.inf
    for x, count in zip(reversed(seq), reversed(outside)):
        if count > suffix_min and (hi is None or x > hi):
            hi = x
        suffix_min = min(suffix_min, count)
    prefix_max = -1
    for x, count in zip(seq, outside):
        if count < prefix_max and (lo is None or x < lo):
            lo = x
        prefix_max = max(prefix_max, count)
    return None if lo is None else (lo, hi)


class Detector231(Detector):
    """Streaming detector for the pattern 231 on permutation streams.

    Acceptance is verdict-only (``occurrence`` stays None): parts (3) and (4)
    prove that a witness exists without storing its positions.
    """

    def __init__(self, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        if mode is not StreamMode.PERMUTATION:
            raise ValueError("Detector231 requires a permutation stream")
        super().__init__(classify_pattern((2, 3, 1)), n, mode)
        self.strip_size = max(1, math.isqrt(n))
        self._buffer: list[int] = []
        self._records: list[StripRecord] = []
        # cells of all records, counting a low_after once a value below the
        # strip maximum has been pushed even before the next fold records it
        self._record_cells = 0
        # maxima (sorted) of the records still waiting for that value
        self._waiting_highs: list[int] = []
        # highest ascent starter over closed strips; 0 means none yet, and
        # no value is below it.
        self._high_starter = 0

    def _feed(self, values: Iterable[int]) -> bool:
        s, buf, waiting = self.strip_size, self._buffer, self._waiting_highs
        high_starter, record_cells, pos = self._high_starter, self._record_cells, self.pushes
        peak_cells, peak_buffer = self.peak_cells, self.structure_peaks.get("buffer", 0)
        accepted = False
        for v in values:
            pos += 1
            if v < high_starter:
                accepted = True
                break
            if waiting and waiting[-1] > v:
                kept = bisect_right(waiting, v)
                record_cells += len(waiting) - kept
                del waiting[kept:]
            buf.append(v)
            if len(buf) == s:
                self._record_cells = record_cells
                if self._close_strip():
                    accepted = True
                    break
                high_starter, record_cells = self._high_starter, self._record_cells
            # the buffer grows on every value, so every value is metered
            if 1 + len(buf) + record_cells > peak_cells:
                peak_cells = 1 + len(buf) + record_cells
            if len(buf) > peak_buffer:
                peak_buffer = len(buf)
        # closed strips are only ever added, and never on an accept
        self.peak_cells = peak_cells
        self.structure_peaks = {"buffer": peak_buffer, "strips": len(self._records)}
        self._record_cells, self.pushes = record_cells, pos
        return accepted and self._accept()

    def _end_check(self) -> bool:
        if self._buffer:
            if self._close_strip():
                return True
            self.peak_cells = max(self.peak_cells, 1 + self._record_cells)
            self.structure_peaks = {**self.structure_peaks, "strips": len(self._records)}
        return any(rec.accepts_at_end() for rec in self._records)

    def _close_strip(self) -> bool:
        """Summarize the buffered strip.  True when the strip itself has 231."""
        buf = self._buffer
        ordered = sorted(buf)
        for rec in self._records:
            rec.fold(ordered)
        if contains_231(buf):
            return True

        # part (2): the highest value starting an ascent within the strip.
        running_max = highest_starter = 0
        for v in reversed(buf):
            if highest_starter < v < running_max:
                highest_starter = v
            if v > running_max:
                running_max = v
        if highest_starter > self._high_starter:
            self._high_starter = highest_starter

        # part (3): widest decreasing pair with an outside value in the gap.
        hull = widest_gap_hull(buf, ordered)
        gap_lo, gap_hi = hull if hull is not None else (None, None)
        seen = bisect_left(ordered, gap_hi) - bisect_right(ordered, gap_lo) if hull else 0

        # part (4): the strip maximum and the lowest value after it.
        high = ordered[-1]
        after = buf[buf.index(high) + 1 :]
        low_after = min(after) if after else None

        record = StripRecord(
            gap_lo=gap_lo,
            gap_hi=gap_hi,
            seen=seen,
            high=high,
            low_after=low_after,
            seen_below=len(after),
        )
        self._records.append(record)
        self._record_cells += record.cells()
        if low_after is None:
            insort(self._waiting_highs, high)
        buf.clear()
        return False

    def space_bound(self) -> tuple[str, float]:
        return ("sqrt(n)", math.sqrt(self.n))

    def adversary(self) -> list[int] | None:
        """Strip maxima in descending order, each followed by the next s - 1
        lowest values in increasing order: ``n, 1..s-1, n-1, s..2s-2, ...``.

        Every value lies below the values still to come or above all of
        them, so the stream avoids 231.  Each strip starts with its maximum,
        and so closes with the widest gap record and a ``low_after``: every
        record holds all of its cells.
        """
        out: list[int] = []
        lo, hi = 1, self.n
        while lo <= hi:
            out.append(hi)
            hi -= 1
            top = min(lo + self.strip_size - 1, hi + 1)
            out.extend(range(lo, top))
            lo = top
        return out
