"""Full-storage fallback detector and the trivial rejector.

The baseline buffers the entire stream and answers at finish by brute-force
search, so it works for every pattern and both stream modes at Theta(n)
space.  It is the dispatch target for patterns no sublinear detector covers.

The trivial rejector serves patterns longer than the universe: nothing can
match, so it stores nothing and always rejects.
"""

from __future__ import annotations

from ..core import Pattern, StreamInstance, StreamMode
from ..oracle import contains_bruteforce
from .base import Detector


class BaselineDetector(Detector):
    """Buffer everything, decide at finish by exhaustive search."""

    structure_names = ("buffer",)

    def __init__(self, pattern: Pattern, n: int, mode: StreamMode = StreamMode.PERMUTATION) -> None:
        super().__init__(pattern, n, mode)
        self._buffer: list[int] = []

    def _step(self, value: int) -> bool:
        self._buffer.append(value)
        self._note_space(len(self._buffer), len(self._buffer))
        return False

    def _end_check(self) -> bool:
        inst = StreamInstance(n=self.n, mode=self.mode, elements=tuple(self._buffer))
        found = contains_bruteforce(inst, self.pattern)
        if found is not None:
            self.occurrence = found
            return True
        return False


class TrivialRejectDetector(Detector):
    """Rejects without storing anything (pattern longer than the universe)."""

    def _step(self, value: int) -> bool:
        return False
