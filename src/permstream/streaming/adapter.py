"""Complement adapter: run a detector for pattern P to detect P's complement.

A stream contains a pattern exactly when the complemented stream (v -> n+1-v)
contains the complemented pattern.  The adapter complements each value on the
way in and re-complements any reported witness values on the way out;
positions pass through untouched.  It adds no storage of its own, so the
inner detector's space telemetry and space bound are reported as-is, and its
adversary is complemented like any stream.  Validation happens once,
on the adapter's own push, so errors name the value the caller pushed and the
inner detector never allocates a second duplicate guard.
"""

from __future__ import annotations

from ..core import Occurrence, classify_pattern, complement
from .base import Detector, DetectorReport


class ComplementAdapter(Detector):
    """Detects the complement of the wrapped detector's pattern."""

    def __init__(self, inner: Detector) -> None:
        pattern = classify_pattern(complement(inner.pattern.values, len(inner.pattern)))
        super().__init__(pattern, inner.n, inner.mode)
        self.inner = inner
        self.bit_array_bits = inner.bit_array_bits

    def _step(self, value: int) -> bool:
        if self.inner._push_validated(self.n + 1 - value):
            return self._accept(self._map_occurrence(self.inner.occurrence))
        return False

    def _end_check(self) -> bool:
        return False  # unused; finish() is overridden

    def finish(self) -> DetectorReport:
        if self._finished:
            raise ValueError("finish called twice")
        self._finished = True
        report = self.inner.finish()
        return DetectorReport(
            verdict=report.verdict,
            occurrence=self._map_occurrence(report.occurrence),
            peak_cells=report.peak_cells,
            peak_bits=report.peak_bits,
            structure_peaks=report.structure_peaks,
        )

    def space_bound(self) -> tuple[str, float]:
        return self.inner.space_bound()

    def adversary(self) -> list[int] | None:
        """The inner detector's adversary, complemented."""
        adv = self.inner.adversary()
        return None if adv is None else list(complement(adv, self.n))

    def _map_occurrence(self, occ: Occurrence | None) -> Occurrence | None:
        if occ is None:
            return None
        return Occurrence(
            positions=occ.positions,
            values=tuple(self.n + 1 - v for v in occ.values),
        )
