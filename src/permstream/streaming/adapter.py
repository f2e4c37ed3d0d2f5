"""Complement adapter: run a detector for pattern P to detect P's complement.

A stream contains a pattern exactly when the complemented stream (v -> n+1-v)
contains the complemented pattern.  The adapter feeds the inner detector each
batch complemented lazily (nothing past the accept) and re-complements any
reported witness values; positions and ``pushes`` pass through untouched.
It adds no storage of its own, so the inner detector's space telemetry and
space bound are reported as-is, and its adversary is complemented like any
stream.  Validation happens once, on the adapter's own push, so errors name
the value the caller pushed and the inner detector never allocates a second
duplicate guard.
"""

from __future__ import annotations

from typing import Iterable

from ..core import Occurrence, classify_pattern, complement
from .base import Detector, DetectorReport


class ComplementAdapter(Detector):
    """Detects the complement of the wrapped detector's pattern."""

    def __init__(self, inner: Detector) -> None:
        pattern = classify_pattern(complement(inner.pattern.values, len(inner.pattern)))
        super().__init__(pattern, inner.n, inner.mode)
        self.inner = inner

    def _feed(self, values: Iterable[int]) -> bool:
        inner = self.inner
        accepted = inner._feed(map((self.n + 1).__sub__, values))
        self.pushes = inner.pushes
        return accepted and self._accept(self._map_occurrence(inner.occurrence))

    def finish(self) -> DetectorReport:
        report = self.inner.finish()  # only the adapter finishes it: a second call raises
        self._finished = True
        return report._replace(occurrence=self._map_occurrence(report.occurrence))

    def space_bound(self) -> tuple[str, float]:
        return self.inner.space_bound()

    def adversary(self) -> list[int] | None:
        """The inner detector's adversary, complemented."""
        adv = self.inner.adversary()
        return None if adv is None else list(complement(adv, self.n))

    def _map_occurrence(self, occ: Occurrence | None) -> Occurrence | None:
        if occ is None:
            return None
        return Occurrence(positions=occ.positions, values=complement(occ.values, self.n))
