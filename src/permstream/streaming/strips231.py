"""One-pass 231 detector that cuts the stream into sqrt(n)-sized strips.

Within the current strip every point is buffered, so occurrences living
inside one strip are caught by a direct scan when the strip closes.  Across
strips, four summaries suffice:

1. the closing scan itself;
2. ``high_starter`` -- the highest value that starts an ascent inside some
   closed strip, which the closing scan of a strip also returns; any later
   lower value completes a 231 (the ascent, then the new value);
3. per strip that has one, the widest *decreasing pair with an outside value
   strictly between*: a counter tracks how many values strictly between its
   endpoints have been seen in or after the strip; if at end of stream the
   counter is short of the gap size, some in-between value occurred
   *earlier*, and that value, followed by the pair, forms a 231;
4. per strip, its maximum together with the lowest later value below it:
   the same counting argument with the pair (maximum, running minimum).

Only the end-of-stream checks of (3) and (4) can conclude "some value must
have occurred earlier", so this detector needs the permutation promise, and
those two parts can prove existence without ever holding all three witness
positions at once.  The detector reports verdicts only, but that is inherent
to (3) and (4) alone: in (1) the buffer holds all three witness values, and
(2) would need 4 more cells (the starter, the value that popped it and their
positions).

Summaries (3) and (4) are kept as parallel lists, one list per field.  (3)
has an entry only for a strip with such a pair; (4) has one per closed
strip, whose lowest later value is the maximum itself until a lower value
arrives.  Because only the end-of-stream check reads their counters, they
are not updated per push: when a strip closes, each counter list is folded
with the strip's sorted values in one comprehension.  An entry whose
endpoints lie outside the strip's range gains none or all of the strip by
two comparisons; only an endpoint inside the range bisects.  The metered
cell count is kept incrementally; the one cell a (4) entry gains when its
first value below the strip maximum arrives is counted on that exact push,
from a sorted list of the maxima still waiting for one.

A push costs one comparison and an append: the bar is the larger of
``high_starter`` and the highest waiting maximum, and only a value below it
does more.  Inside a strip the metered cells ``1 + len(buffer) + records``
only grow, so the loop meters them only before a strip's closing value,
just after each close, and before an accept or at the end of a batch.
Closing a strip costs O(s log s) for the strip's sort plus O(log s) per
earlier strip (the in-strip scans are linear), so a push costs O(log n)
amortized.

Space: one buffer of at most floor(sqrt(n)) points plus a constant number of
counters per closed strip.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right, insort
from itertools import islice
from typing import Iterable

from ..core import Pattern, StreamMode
from .base import Detector


def scan_231(seq: list[int]) -> int:
    """Scan a short sequence of distinct values for 231 in one stack pass.

    Returns -1 when ``seq`` holds a 231, and otherwise its highest value
    that starts an ascent (0 when none does).

    A sequence avoids 231 exactly when one stack sorts it (Knuth, TAOCP
    vol. 1, 2.2.1).  Each value pops the lower values off the stack: a
    popped value is then the 2 of an ascent to the 3 that popped it, so any
    later value below it completes a 231.  Every value that starts an ascent
    is popped by the first higher value after it, and while no 231 shows,
    later pops only go higher: the last value popped is the highest starter.
    """
    popped = 0
    # the stack's top is kept in a local; under it, math.inf ends the stack
    top, stack = math.inf, []
    push, pop = stack.append, stack.pop
    for v in seq:
        if v < popped:
            return -1
        if v > top:
            popped = top
            while stack[-1] < v:
                popped = pop()
        else:
            push(top)
        top = v
    return popped


def widest_gap_hull(seq: list[int], ordered: list[int]) -> tuple[int, int] | None:
    """Hull of the decreasing pairs of ``seq`` with an outside value between.

    ``ordered`` is ``seq`` sorted.  A value x has ``x - rank(x)`` values
    outside ``seq`` below it, a count that never falls as x grows; so an
    earlier a and a later b below it have an outside value strictly between
    exactly when that count is larger at a.  The highest such a is the
    highest value whose count is above the count of the lowest value after
    it, and the lowest such b the lowest value whose count is below the
    count of the highest value before it.  The two passes track those
    values with plain comparisons and rank only the candidates that pass
    them, from a dict built at the first one.  None when ``seq`` has no such
    pair.
    """
    if not seq:
        return None
    rank: dict[int, int] = {}  # filled when the first pair is tested
    hi, least = 0, ordered[-1] + 1  # least: the lowest value after x
    for x in reversed(seq):
        if x < least:
            least = x
        elif x > hi:
            if not rank:
                rank = dict(zip(ordered, range(len(ordered))))
            if x - rank[x] > least - rank[least]:
                hi = x
    if not hi:
        return None
    lo, most = hi, 0  # most: the highest value before x
    for x in seq:
        if x > most:
            most = x
        elif x < lo and x - rank[x] < most - rank[most]:
            lo = x
    return lo, hi


class Detector231(Detector):
    """Streaming detector for the pattern 231 on permutation streams.

    Acceptance is verdict-only (``occurrence`` stays None) on every part,
    though only parts (3) and (4) need that: they prove that a witness
    exists without storing its positions.
    """

    def __init__(self, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        if mode is not StreamMode.PERMUTATION:
            raise ValueError("Detector231 requires a permutation stream")
        super().__init__(Pattern((2, 3, 1)), n, mode)
        # _feed asks islice for up to s - 1 values, and islice takes at most
        # sys.maxsize: the cap binds only past n = 2**126, which no stream reaches
        self.strip_size = max(1, min(math.isqrt(n), sys.maxsize + 1))
        self._buffer: list[int] = []
        # part (3), one entry per closed strip with a gap pair: its endpoints,
        # and the values strictly between them seen in or after the strip
        self._gap_lo: list[int] = []
        self._gap_hi: list[int] = []
        self._seen: list[int] = []
        # part (4), one entry per closed strip: its maximum, the lowest value
        # below it seen after it (the maximum while there is none), and how
        # many values below it were seen after it
        self._high: list[int] = []
        self._low_after: list[int] = []
        self._seen_below: list[int] = []
        # cells of all entries, counting a low_after once a value below the
        # strip maximum has been pushed even before the next fold records it
        self._record_cells = 0
        # maxima (sorted) of the part (4) entries still waiting for that value
        self._waiting_highs: list[int] = []
        # highest ascent starter over closed strips; 0 means none yet, and
        # no value is below it.
        self._high_starter = 0

    def _feed(self, values: Iterable[int]) -> bool:
        s, buf, waiting = self.strip_size, self._buffer, self._waiting_highs
        append = buf.append
        high_starter, record_cells, pos = self._high_starter, self._record_cells, self.pushes
        peak_cells, peak_buffer = self.peak_cells, self.structure_peaks.get("buffer", 0)
        values = iter(values)
        accepted = False
        while True:
            # a value below the bar accepts or is the first below a waiting maximum
            bar = waiting[-1] if waiting and waiting[-1] > high_starter else high_starter
            # read the strip's values up to its last before the close, or else its closing value
            held = len(buf)
            want = s - 1 - held or 1
            for v in islice(values, want):
                if v < bar:
                    if v < high_starter:
                        accepted = True
                        break
                    kept = bisect_right(waiting, v)
                    record_cells += len(waiting) - kept
                    del waiting[kept:]
                    bar = waiting[-1] if waiting and waiting[-1] > high_starter else high_starter
                append(v)
            pos += len(buf) - held
            if len(buf) == s:
                self._record_cells = record_cells
                if self._close_strip():
                    accepted = True
                    break
                high_starter, record_cells = self._high_starter, self._record_cells
                if 1 + record_cells > peak_cells:
                    peak_cells = 1 + record_cells
                continue
            # inside a strip 1 + len(buf) + record_cells only grows, so its peak is
            # metered here: before the closing value, the accept or the batch end
            # (an empty buffer is the state metered after a close, or no value yet)
            if buf:
                if 1 + len(buf) + record_cells > peak_cells:
                    peak_cells = 1 + len(buf) + record_cells
                if len(buf) > peak_buffer:
                    peak_buffer = len(buf)
            if accepted:
                pos += 1
                break
            if len(buf) - held < want:
                break
        # closed strips are only ever added, and never on an accept
        self.peak_cells = peak_cells
        self.structure_peaks = {"buffer": peak_buffer, "strips": len(self._high)}
        self._record_cells, self.pushes = record_cells, pos
        return accepted and self._accept()

    def _end_check(self) -> bool:
        if self._buffer:
            if self._close_strip():
                return True
            self.peak_cells = max(self.peak_cells, 1 + self._record_cells)
            self.structure_peaks = {**self.structure_peaks, "strips": len(self._high)}
        return any(
            seen < hi - lo - 1 for seen, lo, hi in zip(self._seen, self._gap_lo, self._gap_hi)
        ) or any(
            seen < high - low
            for seen, high, low in zip(self._seen_below, self._high, self._low_after)
        )

    def _close_strip(self) -> bool:
        """Summarize the buffered strip.  True when the strip itself has 231."""
        buf = self._buffer
        # parts (1) and (2): a 231 inside the strip, else its highest ascent starter
        starter = scan_231(buf)
        if starter < 0:
            return True
        if starter > self._high_starter:
            self._high_starter = starter

        ordered = sorted(buf)
        first, last, size = ordered[0], ordered[-1], len(ordered)
        # an earlier strip's value outside [first, last] has none or all of
        # this strip below it, so only the values inside the range bisect
        self._seen = [
            seen
            if hi < first or lo > last
            else seen + size
            if lo < first and hi > last
            else seen + bisect_left(ordered, hi) - bisect_right(ordered, lo)
            for seen, lo, hi in zip(self._seen, self._gap_lo, self._gap_hi)
        ]
        self._low_after = [low if low < first else first for low in self._low_after]
        self._seen_below = [
            seen
            if high < first
            else seen + size
            if high > last
            else seen + bisect_left(ordered, high)
            for seen, high in zip(self._seen_below, self._high)
        ]

        # part (3): widest decreasing pair with an outside value in the gap.
        hull = widest_gap_hull(buf, ordered)
        if hull:
            lo, hi = hull
            self._gap_lo.append(lo)
            self._gap_hi.append(hi)
            self._seen.append(bisect_left(ordered, hi) - bisect_right(ordered, lo))
            self._record_cells += 3

        # part (4): the strip maximum and the lowest value after it.
        high = ordered[-1]
        after = buf[buf.index(high) + 1 :]
        self._high.append(high)
        self._low_after.append(min(after, default=high))
        self._seen_below.append(len(after))
        if after:
            self._record_cells += 3
        else:
            self._record_cells += 2
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
        and so closes with a gap pair and a lower value after its maximum:
        every closed strip holds all of its cells.
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
