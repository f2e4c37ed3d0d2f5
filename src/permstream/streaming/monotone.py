"""Early-stopping detector for increasing patterns (decreasing via complement).

The state is the classic patience array: ``x[i]`` is the smallest value that
currently ends an increasing subsequence of length i+1.  The array is sorted,
so each push costs one binary search, and the detector accepts the moment a
value extends a subsequence to the full pattern length.  Only the k array
slots are ever stored, so the footprint is k cells regardless of the stream
length.

No occurrence is reported: the array remembers the best *endings*, not the
chains behind them, and the chain that first reaches length k may pass
through values the array has since overwritten.
"""

from __future__ import annotations

from bisect import bisect_left

from ..core import PatternKind, StreamMode, classify_pattern
from .base import Detector


class MonotoneDetector(Detector):
    """Accepts once the stream holds an increasing subsequence of length k."""

    structure_names = ("x-array",)

    def __init__(self, k: int, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        if k < 1:
            raise ValueError(f"pattern length must be at least 1, got {k}")
        pattern = classify_pattern(tuple(range(1, k + 1)))
        assert pattern.kind is PatternKind.INCREASING
        super().__init__(pattern, n, mode)
        self.k = k
        self._x: list[int] = []
        self._note_space(k, k)

    def _step(self, value: int) -> bool:
        i = bisect_left(self._x, value)
        if i == len(self._x):
            self._x.append(value)
            if len(self._x) == self.k:
                return self._accept()
        else:
            self._x[i] = value
        return False

    def space_bound(self) -> tuple[str, float]:
        return ("k", float(self.k))

    def adversary(self) -> list[int] | None:
        """The decreasing stream (no permutation avoids the pattern 1)."""
        return list(range(self.n, 0, -1)) if self.k > 1 else None
