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
from bisect import bisect_left, bisect_right, insort

from ..core import Occurrence, StreamMode, classify_pattern
from .base import Detector


def default_window(n: int) -> int:
    """The window width k = max(1, floor(sqrt(n * log2 n)))."""
    return max(1, math.isqrt(int(n * math.log2(n))) if n > 1 else 1)


class Detector312(Detector):
    """Streaming detector for the pattern 312 on permutation streams."""

    structure_names = ("A", "D")

    def __init__(self, n: int, mode: StreamMode = StreamMode.PERMUTATION, k: int | None = None) -> None:
        if mode is not StreamMode.PERMUTATION:
            raise ValueError("Detector312 requires a permutation stream")
        super().__init__(classify_pattern((3, 1, 2)), n, mode)
        if k is None:
            k = default_window(n)
        if k < 1:
            raise ValueError(f"window width must be at least 1, got k={k}")
        self.k = k
        self.bit_array_bits = k
        self._h = 0
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

    def _step(self, v: int) -> bool:
        pos = self.pushes
        window = self._window
        if pos == 1:
            self._h = v
            self._h_pos = pos
            window.append(v)
            self._meter()
            return False

        # (1) v strictly inside a stored pair completes it; only the pair
        # with the largest b below v can hold it.
        lows = self._pair_lows
        i = bisect_left(lows, v)
        if i:
            a, b, pa, pb = self._pairs[i - 1]
            if a > v:
                return self._accept(
                    Occurrence(positions=(pa, pb, pos), values=(a, b, v))
                )

        h = self._h
        if v > h:
            # (2) new maximum: slide the window up to (v-k, v].
            del window[: bisect_right(window, v - self.k)]
            window.append(v)
            self._h = v
            self._h_pos = pos
        elif v > h - self.k:
            # (3) v lands in the window.  Any window value still missing
            # above v must arrive later and completes (h, v, missing).
            if len(window) - bisect_right(window, v) < h - v:
                c = self._largest_missing_below_h()
                return self._accept(
                    Occurrence(positions=(self._h_pos, pos, None), values=(h, v, c))
                )
            insort(window, v)
        else:
            # (4) v undercuts the window: merge any pairs it is below (the
            # suffix of D from i on) into the single wider pair (h, v).
            del self._pairs[i:]
            del lows[i:]
            self._pairs.append((h, v, self._h_pos, pos))
            lows.append(v)

        self._meter()
        return False

    def _largest_missing_below_h(self) -> int:
        """The largest value below h not in the window (one is known to exist)."""
        window = self._window
        cand = self._h - 1
        idx = len(window) - 2  # window[-1] is h
        while idx >= 0 and window[idx] == cand:
            idx -= 1
            cand -= 1
        return cand

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

    def _meter(self) -> None:
        # h with its position is one stored point; the running index is one
        # value; each pair entry keeps a value pair and a position pair.
        pairs = len(self._pairs)
        self._note_space(2 + 2 * pairs, len(self._window), pairs)
