"""Streaming detectors for permutation pattern matching.

The names below are re-exported lazily (PEP 562), so importing one detector
module, or :mod:`.dispatch`, does not load the rest, such as
:mod:`.invariants`.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(globals(), {
    "adapter": ("ComplementAdapter",),
    "base": ("Detector", "DetectorReport", "bits_per_cell"),
    "baseline": ("BaselineDetector", "TrivialRejectDetector"),
    "dispatch": ("FAMILIES", "new_detector", "run_detector"),
    "invariants": ("InvariantViolation", "replay_312_with_invariants"),
    "monotone": ("MonotoneDetector",),
    "strips231": ("Detector231", "scan_231"),
    "window312": ("Detector312", "default_window"),
})
