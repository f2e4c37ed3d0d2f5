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
from typing import Iterable

from ..core import Pattern, StreamMode
from .base import Detector


class MonotoneDetector(Detector):
    """Accepts once the stream holds an increasing subsequence of length k."""

    def __init__(self, k: int, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        if k < 1:
            raise ValueError(f"pattern length must be at least 1, got {k}")
        super().__init__(Pattern(range(1, k + 1)), n, mode)
        self.k = k
        self._x: list[int] = []
        self.peak_cells, self.structure_peaks = k, {"x-array": k}

    def _feed(self, values: Iterable[int]) -> bool:
        # the k cells are metered once, in __init__: nothing here can outgrow them
        x, k, pushes = self._x, self.k, self.pushes
        for value in values:
            pushes += 1
            i = bisect_left(x, value)
            if i < len(x):
                x[i] = value
            else:
                x.append(value)
                if len(x) == k:
                    self.pushes = pushes
                    return self._accept()
        self.pushes = pushes
        return False

    def space_bound(self) -> tuple[str, float]:
        return ("k", float(self.k))

    def adversary(self) -> list[int] | None:
        """The decreasing stream (no permutation avoids the pattern 1)."""
        return list(range(self.n, 0, -1)) if self.k > 1 else None
