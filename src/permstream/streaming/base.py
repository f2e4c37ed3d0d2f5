"""Shared detector machinery: the push/finish state machine and space metering.

A detector steps through values in :meth:`Detector._feed`, one checked value
from :meth:`Detector.push` or a validated batch, and may *accept* (report that
the pattern is present) at any value or at :meth:`Detector.finish`.  Once
accepted, a detector is latched: further pushes are no-ops that keep
returning True.

Space is metered in *cells*: one cell per stored value, per stored point, and
per stored pair.  ``peak_bits`` estimates the footprint as
``peak_cells * ceil(log2 n)`` plus the widths of any bit-arrays the detector
keeps.  The duplicate-input guard belongs to a
:class:`~permstream.core.StreamValidator`, the one boundary check, which a
detector creates on its first :meth:`Detector.push` and whose memory
follows the values pushed, never n.  It rejects malformed pushes with a
clear error and is boundary validation rather than algorithm state, so it
is deliberately excluded from the metering.

Detectors report their current footprint through :meth:`Detector._note_space`
with positional sizes, one per name in ``structure_names``, so that metering
every push allocates nothing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ..core import Occurrence, Pattern, StreamMode, StreamValidator


class DetectorReport(NamedTuple):
    """Final verdict plus the space telemetry gathered during the run."""

    verdict: bool
    occurrence: Occurrence | None
    peak_cells: int
    peak_bits: int
    structure_peaks: dict[str, int]


def bits_per_cell(n: int) -> int:
    """Width of one cell for universe [1..n]."""
    return max(1, (n - 1).bit_length())


class Detector:
    """Base class for all streaming detectors."""

    #: set by subclasses that keep bit-arrays (width in bits)
    bit_array_bits: int = 0
    #: the structures ``_note_space`` sizes, in the order it takes them
    structure_names: tuple[str, ...] = ()

    def __init__(self, pattern: Pattern, n: int, mode: StreamMode) -> None:
        if n < 1:
            raise ValueError(f"universe size must be at least 1, got n={n}")
        self.pattern = pattern
        self.n = n
        self.mode = mode
        self.accepted = False
        self.occurrence: Occurrence | None = None
        self.pushes = 0
        self.peak_cells = 0
        self._size_peaks = [-1, -1]  # -1 until the first _note_space
        self._finished = False
        self._validator: StreamValidator | None = None  # made on the first push

    # -- the push/finish state machine ----------------------------------

    def push(self, value: int) -> bool:
        """Feed one stream value.  Returns True once the pattern is found."""
        if self._finished:
            raise ValueError("push after finish")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"stream values must be ints, got {value!r}")
        if self.accepted and 0 < value <= self.n:
            return True  # latched: values in range are no longer held
        if self._validator is None:
            self._validator = StreamValidator(self.n, self.mode)
        reason = self._validator.hold(value, self.pushes)
        if reason is not None:
            raise ValueError(reason)
        return self._feed((value,))

    def _feed(self, values: Iterable[int]) -> bool:
        """Step through validated ``values`` until the accept; True if it came.

        The accepting value is value number ``pushes``; no later one is read.
        """
        step = self._step
        for value in values:
            self.pushes += 1
            if step(value):
                return True
        return False

    def finish(self) -> DetectorReport:
        """Declare end of stream and collect the verdict and telemetry."""
        if self._finished:
            raise ValueError("finish called twice")
        if (
            self.mode is StreamMode.PERMUTATION
            and not self.accepted
            and 0 < self.pushes < self.n
        ):
            raise ValueError(
                f"permutation mode requires all n={self.n} values before finish, "
                f"got {self.pushes}"
            )
        self._finished = True
        verdict = self.accepted or (self.pushes > 0 and self._end_check())
        return DetectorReport(
            verdict=verdict,
            occurrence=self.occurrence,
            peak_cells=self.peak_cells,
            peak_bits=self.peak_cells * bits_per_cell(self.n) + self.bit_array_bits,
            structure_peaks=self.structure_peaks,
        )

    @property
    def structure_peaks(self) -> dict[str, int]:
        """Peak size per structure, empty until the first ``_note_space``."""
        return {
            name: size
            for name, size in zip(self.structure_names, self._size_peaks)
            if size >= 0
        }

    # -- hooks for subclasses -------------------------------------------

    def _step(self, value: int) -> bool:
        raise NotImplementedError

    def _end_check(self) -> bool:
        """Extra acceptance work at end of stream (default: none)."""
        return False

    # -- each detector's space bound and worst case ---------------------

    def space_bound(self) -> tuple[str, float]:
        """The detector's space bound in cells: ``(formula, value at n)``."""
        raise NotImplementedError

    def adversary(self) -> list[int] | None:
        """A permutation of [1..n] that avoids the pattern and drives this
        detector's state to its peak, or None when there is none to offer."""
        return None

    # -- telemetry helpers ----------------------------------------------

    def _accept(self, occurrence: Occurrence | None = None) -> bool:
        self.accepted = True
        self.occurrence = occurrence
        return True

    def _note_space(self, cells: int, first: int = -1, second: int = -1) -> None:
        """Raise the peaks to ``cells`` and to the sizes of ``structure_names``.

        The sizes are positional, at most two (no detector keeps more
        structures), so that metering every push allocates nothing.
        """
        if cells > self.peak_cells:
            self.peak_cells = cells
        peaks = self._size_peaks
        if first > peaks[0]:
            peaks[0] = first
        if second > peaks[1]:
            peaks[1] = second
