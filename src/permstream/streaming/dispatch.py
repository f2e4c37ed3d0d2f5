"""Pattern-to-detector dispatch and a convenience runner.

:data:`FAMILIES` is the one table that maps a pattern to a detector.  Each
family names the native detector that serves its patterns, which of them go
through the complement adapter, and whether it needs a permutation stream.
:func:`new_detector` reads it in both of its modes.  Dispatch (the default)
sends every pattern to the cheapest detector that is correct for it:

=====================  ========  ===========================  =========================
pattern                family    permutation stream           distinct-value sequence
=====================  ========  ===========================  =========================
increasing (any k)     monotone  MonotoneDetector             MonotoneDetector
decreasing (any k)     monotone  complement(MonotoneDetector) complement(MonotoneDetector)
312                    312       Detector312                  baseline (with a warning)
132                    312       complement(Detector312)      baseline (with a warning)
231                    231       Detector231                  baseline (with a warning)
213                    231       complement(Detector231)      baseline (with a warning)
other (k >= 4)         baseline  baseline (with a warning)    baseline (with a warning)
=====================  ========  ===========================  =========================

Patterns longer than the universe dispatch to the trivial rejector.  The
k >= 4 fallback warns because linear space is not an implementation gap:
for those patterns no sublinear one-pass detector exists.

Forcing a family (``family=``, the CLI's ``--detector``) builds its detector
for the rows of the family column, whatever the universe size and without a
warning; ``312`` and ``231`` refuse distinct-value sequences, and
``baseline`` serves every pattern in both modes.
"""

from __future__ import annotations

import warnings
from typing import Callable, NamedTuple

from ..core import Pattern, StreamInstance, StreamMode
from .base import Detector, DetectorReport

# Each builder imports its detector's module on its first call, so a process
# compiles only the detectors it builds.


def _monotone(pattern: Pattern, n: int, mode: StreamMode) -> Detector:
    from .monotone import MonotoneDetector

    return MonotoneDetector(len(pattern), n, mode)


def _window312(pattern: Pattern, n: int, mode: StreamMode) -> Detector:
    from .window312 import Detector312

    return Detector312(n, mode)


def _strips231(pattern: Pattern, n: int, mode: StreamMode) -> Detector:
    from .strips231 import Detector231

    return Detector231(n, mode)


def _baseline(pattern: Pattern, n: int, mode: StreamMode) -> Detector:
    from .baseline import BaselineDetector

    return BaselineDetector(pattern, n, mode)


class Family(NamedTuple):
    """How one detector family serves its patterns."""

    #: builds the native detector from a served pattern
    native: Callable[[Pattern, int, StreamMode], Detector]
    #: served pattern (see :func:`_key`) -> whether it goes through
    #: ComplementAdapter; None serves every pattern natively
    patterns: dict[str, bool] | None
    needs_perm: bool = False
    #: the reason a pattern outside ``patterns`` is refused
    refusal: str = ""


FAMILIES: dict[str, Family] = {
    "monotone": Family(
        _monotone,
        {"increasing": False, "decreasing": True},
        refusal="cannot serve the pattern {pattern}",
    ),
    "312": Family(
        _window312,
        {"312": False, "132": True},
        needs_perm=True,
        refusal="serves only the patterns 312 and 132",
    ),
    "231": Family(
        _strips231,
        {"231": False, "213": True},
        needs_perm=True,
        refusal="serves only the patterns 231 and 213",
    ),
    "baseline": Family(_baseline, None),
}


def _key(pattern: Pattern) -> str:
    """A pattern's row in the table: monotone patterns of any length share one."""
    values = pattern.values
    if values == tuple(range(1, len(values) + 1)):
        return "increasing"
    if values == tuple(range(len(values), 0, -1)):
        return "decreasing"
    return str(pattern)


def _spelling(pattern: Pattern) -> str:
    """The pattern as the CLI spells it, or past 60 characters its first ten
    values and its length, so that a message about it stays one short line."""
    text = str(pattern)
    if len(text) <= 60:
        return text
    return f"{','.join(map(str, pattern.values[:10]))},… ({len(pattern)} values)"


def new_detector(
    pattern: Pattern,
    n: int,
    mode: StreamMode = StreamMode.PERMUTATION,
    family: str = "auto",
) -> Detector:
    """Build the detector for ``pattern`` over universe [1..n].

    ``family`` is ``"auto"`` to dispatch, or a key of :data:`FAMILIES` to
    force that family; a pattern or mode the forced family cannot serve
    raises ValueError, whose message starts with the family's name.
    """
    key = _key(pattern)
    if family == "auto":
        if len(pattern) > n:
            from .baseline import TrivialRejectDetector

            return TrivialRejectDetector(pattern, n, mode)
        family = next((name for name, fam in FAMILIES.items()
                       if fam.patterns is not None and key in fam.patterns), "baseline")
        if family == "baseline":
            warnings.warn(
                f"pattern {_spelling(pattern)} needs linear space (no sublinear one-pass "
                "detector exists for it); using the full-storage baseline",
                stacklevel=2,
            )
        elif FAMILIES[family].needs_perm and mode is not StreamMode.PERMUTATION:
            warnings.warn(
                f"no sublinear sequence-mode detector for {pattern}; "
                "falling back to the full-storage baseline",
                stacklevel=2,
            )
            family = "baseline"
    fam = FAMILIES[family]
    if fam.needs_perm and mode is not StreamMode.PERMUTATION:
        raise ValueError(f"{family} needs a permutation stream (mode=perm)")
    if fam.patterns is not None and key not in fam.patterns:
        raise ValueError(f"{family} {fam.refusal.format(pattern=_spelling(pattern))}")
    # the native builders read no more of the served pattern than its length
    detector = fam.native(pattern, n, mode)
    if fam.patterns is not None and fam.patterns[key]:
        from .adapter import ComplementAdapter

        return ComplementAdapter(detector)
    return detector


def run_detector(
    inst: StreamInstance, pattern: Pattern, detector: Detector | None = None
) -> DetectorReport:
    """Feed the stream to the detector and return the report.

    An instance is valid by construction, so the values go in through
    ``Detector._feed`` in one batch and the detector allocates no duplicate
    guard of its own.  Feeding stops at the accept (the streaming early exit).
    """
    if detector is None:
        detector = new_detector(pattern, inst.n, inst.mode)
    detector._feed(inst.elements)
    return detector.finish()
