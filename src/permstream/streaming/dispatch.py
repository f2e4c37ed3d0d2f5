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

from ..core import (
    Pattern,
    PatternKind,
    StreamInstance,
    StreamMode,
    classify_pattern,
    complement,
    stream_violation,
)
from .adapter import ComplementAdapter
from .base import Detector, DetectorReport
from .baseline import BaselineDetector, TrivialRejectDetector
from .monotone import MonotoneDetector
from .strips231 import Detector231
from .window312 import Detector312


class Family(NamedTuple):
    """How one detector family serves its patterns."""

    #: builds the native detector for a native pattern
    native: Callable[[Pattern, int, StreamMode], Detector]
    #: served pattern (see :func:`_key`) -> whether it goes through
    #: ComplementAdapter; None serves every pattern natively
    patterns: dict[str, bool] | None
    needs_perm: bool = False
    #: the reason a pattern outside ``patterns`` is refused
    refusal: str = ""


FAMILIES: dict[str, Family] = {
    "monotone": Family(
        lambda pattern, n, mode: MonotoneDetector(len(pattern), n, mode),
        {"increasing": False, "decreasing": True},
        refusal="cannot serve the pattern {pattern}",
    ),
    "312": Family(
        lambda pattern, n, mode: Detector312(n, mode),
        {"312": False, "132": True},
        needs_perm=True,
        refusal="serves only the patterns 312 and 132",
    ),
    "231": Family(
        lambda pattern, n, mode: Detector231(n, mode),
        {"231": False, "213": True},
        needs_perm=True,
        refusal="serves only the patterns 231 and 213",
    ),
    "baseline": Family(BaselineDetector, None),
}


def _key(pattern: Pattern) -> str:
    """A pattern's row in the table: monotone patterns of any length share one."""
    if pattern.kind in (PatternKind.INCREASING, PatternKind.DECREASING):
        return pattern.kind.value
    return str(pattern)


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
    if family != "auto":
        forced = FAMILIES[family]
        if forced.needs_perm and mode is not StreamMode.PERMUTATION:
            raise ValueError(f"{family} needs a permutation stream (mode=perm)")
        if forced.patterns is not None and key not in forced.patterns:
            raise ValueError(f"{family} {forced.refusal.format(pattern=pattern)}")
        return _build(forced, key, pattern, n, mode)
    if len(pattern) > n:
        return TrivialRejectDetector(pattern, n, mode)
    for fam in FAMILIES.values():
        if fam.patterns is not None and key in fam.patterns:
            if fam.needs_perm and mode is not StreamMode.PERMUTATION:
                warnings.warn(
                    f"no sublinear sequence-mode detector for {pattern}; "
                    "falling back to the full-storage baseline",
                    stacklevel=2,
                )
                return BaselineDetector(pattern, n, mode)
            return _build(fam, key, pattern, n, mode)
    warnings.warn(
        f"pattern {pattern} needs linear space (no sublinear one-pass detector "
        "exists for it); using the full-storage baseline",
        stacklevel=2,
    )
    return BaselineDetector(pattern, n, mode)


def _build(fam: Family, key: str, pattern: Pattern, n: int, mode: StreamMode) -> Detector:
    if fam.patterns is not None and fam.patterns[key]:
        native = classify_pattern(complement(pattern.values, len(pattern)))
        return ComplementAdapter(fam.native(native, n, mode))
    return fam.native(pattern, n, mode)


def run_detector(
    inst: StreamInstance, pattern: Pattern, detector: Detector | None = None
) -> DetectorReport:
    """Validate the stream, feed it to the detector, and return the report.

    The stream is validated once, here, so the values go in through
    ``_push_validated`` and the detector allocates no duplicate guard of its
    own.  Stops pushing as soon as the detector accepts (the streaming early
    exit).
    """
    reason = stream_violation(inst)
    if reason is not None:
        raise ValueError(f"invalid stream: {reason}")
    if detector is None:
        detector = new_detector(pattern, inst.n, inst.mode)
    push = detector._push_validated
    for value in inst.elements:
        if push(value):
            break
    return detector.finish()
