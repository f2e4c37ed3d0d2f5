"""One-pass 312 detector with a value window and disjoint decreasing pairs.

The detector keeps three things while scanning a permutation of [1..n]:

* ``h`` -- the highest value read so far (with its position);
* ``A`` -- exactly the values read that lie in the window (h-k, h], a set of
  at most k values, logically a k-wide bit-array anchored at h, kept as a
  sorted list;
* ``D`` -- decreasing pairs (a, b) with a - b >= k whose value intervals
  [b, a] are pairwise disjoint, so at most ceil(n/k) of them fit in [1..n];
  they are kept sorted by ``b`` (and so also by ``a``).

Each push runs four steps: report if the new value lands strictly inside a
stored pair; grow the window when a new maximum arrives; inside the window,
either report (using a value that is provably still unread -- a *future*
witness) or record the value; below the window, replace any pairs the new
value undercuts with the single wider pair (h, value).

Because the intervals of ``D`` are disjoint, the only pair that can hold a
value v strictly inside is the one with the largest ``b`` below v, so step
(1) is one bisect.  Step (3) counts instead of scanning: some value in
(v, h) is unread exactly when ``A`` holds fewer than h - v values above v;
the witness itself is looked up only when the detector reports.  Step (4)
drops the pairs above v, which form a suffix of ``D``.  A push thus costs
O(log n) comparisons plus at most an O(k) list shift.

With k ~ sqrt(n log2 n) both structures stay within O(sqrt(n log2 n)) bits.
The permutation promise is essential: future witnesses count on every
unread window value eventually arriving.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterable

from ..core import Occurrence, Pattern, StreamMode
from .base import Detector


def _largest_missing_below(window: list[int], h: int) -> int:
    """The largest value below h not in the sorted window, which ends in h
    (one such value is known to exist)."""
    cand = h - 1
    idx = len(window) - 2  # window[-1] is h
    while idx >= 0 and window[idx] == cand:
        idx -= 1
        cand -= 1
    return cand


def default_window(n: int) -> int:
    """The window width k = max(1, floor(sqrt(n * log2 n))), with log2 n
    rounded down where n * log2 n is past a float, far beyond any stream's length."""
    if n < 2:
        return 1
    try:
        return max(1, math.isqrt(int(n * math.log2(n))))
    except OverflowError:
        return math.isqrt(n * (n.bit_length() - 1))


class Detector312(Detector):
    """Streaming detector for the pattern 312 on permutation streams."""

    def __init__(self, n: int, mode: StreamMode = StreamMode.PERMUTATION, k: int | None = None) -> None:
        if mode is not StreamMode.PERMUTATION:
            raise ValueError("Detector312 requires a permutation stream")
        super().__init__(Pattern((3, 1, 2)), n, mode)
        if k is None:
            k = default_window(n)
        if k < 1:
            raise ValueError(f"window width must be at least 1, got k={k}")
        self.k = k
        self.bit_array_bits = k
        self._h = 0  # below every value, so the first push opens the window
        self._h_pos = 0
        self._window: list[int] = []  # sorted
        # pair entries (a, b, position of a, position of b), sorted by b,
        # with the b values mirrored in _pair_lows for bisecting
        self._pairs: list[tuple[int, int, int, int]] = []
        self._pair_lows: list[int] = []

    # read-only views for the invariant checker and tests
    @property
    def h(self) -> int:
        return self._h

    @property
    def window_values(self) -> frozenset[int]:
        return frozenset(self._window)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, b, _, _ in self._pairs)

    def _feed(self, values: Iterable[int]) -> bool:
        k = self.k
        h, h_pos, pos = self._h, self._h_pos, self.pushes
        window, pairs, lows = self._window, self._pairs, self._pair_lows
        peak_window = self.structure_peaks.get("A", 0)
        peak_pairs = self.structure_peaks.get("D", 0)
        occurrence = None
        for v in values:
            pos += 1
            # (1) v strictly inside a stored pair completes it; only the pair
            # with the largest b below v can hold it.
            i = bisect_left(lows, v)
            if i:
                a, b, pa, pb = pairs[i - 1]
                if a > v:
                    occurrence = Occurrence(positions=(pa, pb, pos), values=(a, b, v))
                    break
            if v > h:
                # (2) new maximum: slide the window up to (v-k, v].
                del window[: bisect_right(window, v - k)]
                window.append(v)
                h, h_pos = v, pos
                if len(window) > peak_window:
                    peak_window = len(window)
            elif v > h - k:
                # (3) v lands in the window.  Any window value still missing
                # above v must arrive later and completes (h, v, missing).
                j = bisect_right(window, v)
                if len(window) - j < h - v:
                    c = _largest_missing_below(window, h)
                    occurrence = Occurrence(positions=(h_pos, pos, None), values=(h, v, c))
                    break
                window.insert(j, v)
                if len(window) > peak_window:
                    peak_window = len(window)
            else:
                # (4) v undercuts the window: merge any pairs it is below (the
                # suffix of D from i on) into the single wider pair (h, v).
                del pairs[i:]
                del lows[i:]
                pairs.append((h, v, h_pos, pos))
                lows.append(v)
                if len(pairs) > peak_pairs:
                    peak_pairs = len(pairs)
        # h with its position is one stored point; the running index is one
        # value; each pair entry keeps a value pair and a position pair.
        self.peak_cells = 2 + 2 * peak_pairs
        self.structure_peaks = {"A": peak_window, "D": peak_pairs}
        self._h, self._h_pos, self.pushes = h, h_pos, pos
        return occurrence is not None and self._accept(occurrence)

    def space_bound(self) -> tuple[str, float]:
        n = self.n
        return ("sqrt(n*log2(n))", math.sqrt(n * math.log2(n)) if n > 1 else 1.0)

    def adversary(self) -> list[int] | None:
        """Blocks of descending values in ascending block order, one value
        wider than the window, so every block start undercuts the window and
        stores a pair.  Such a layered stream avoids 312."""
        out: list[int] = []
        for lo in range(1, self.n + 1, self.k + 1):
            out.extend(range(min(lo + self.k, self.n), lo - 1, -1))
        return out
