"""Tests for the host-speed calibration.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import calib  # noqa: E402


def test_reference_task_counts_every_occurrence():
    def order(values):
        return tuple(sorted(values).index(v) + 1 for v in values)

    expected = sum(1 for combo in combinations(calib._VALUES, 4) if order(combo) == calib._PATTERN)
    assert calib.reference_task() == expected == calib._EXPECTED


def test_factor_is_the_inverse_mean_slowness_around_each_interval():
    readings = iter([9.0, 9.0, 9.0, 1.0, 3.0, 0.5])  # three warm-up readings, then one each
    calibration = calib.Calibration(lambda: next(readings))
    assert calibration.factor() == 2 / (1.0 + 3.0)
    assert calibration.factor() == 2 / (3.0 + 0.5)
    assert calibration.median() == (0.5 + 1 / 1.75) / 2


def test_bulk_task_parses_every_value_once():
    assert calib.bulk_task() == calib._BULK_N


def test_helper_times_both_tasks_and_exits_when_closed():
    helper = calib.Helper(1, 1)
    try:
        assert 0.01 < helper.slowness() < 100
    finally:
        helper.close()
    assert helper.proc.returncode == 0
