"""Streaming detectors for permutation pattern matching."""

from .adapter import ComplementAdapter
from .base import Detector, DetectorReport, bits_per_cell
from .baseline import BaselineDetector, TrivialRejectDetector
from .dispatch import FAMILIES, new_detector, run_detector
from .invariants import InvariantViolation, replay_312_with_invariants
from .monotone import MonotoneDetector
from .strips231 import Detector231, contains_213
from .window312 import Detector312, default_window

__all__ = [
    "FAMILIES",
    "BaselineDetector",
    "ComplementAdapter",
    "Detector",
    "Detector231",
    "Detector312",
    "DetectorReport",
    "InvariantViolation",
    "MonotoneDetector",
    "TrivialRejectDetector",
    "bits_per_cell",
    "contains_213",
    "default_window",
    "new_detector",
    "replay_312_with_invariants",
    "run_detector",
]
