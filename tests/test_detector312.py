from __future__ import annotations

import math
import random
from itertools import permutations

import pytest

from permstream import (
    Detector312,
    InvariantViolation,
    Occurrence,
    StreamMode,
    contains_bruteforce,
    default_window,
    new_detector,
    occurrence_is_valid,
    parse_pattern,
    replay_312_with_invariants,
)
from conftest import perm_instance, random_perm

P312 = parse_pattern("312")


def layered_avoider(n: int, block: int) -> list[int]:
    """Descending blocks in ascending order: 312-free, fills D with pairs."""
    out: list[int] = []
    for lo in range(1, n + 1, block):
        out.extend(range(min(lo + block - 1, n), lo - 1, -1))
    return out


# -- window width ----------------------------------------------------------------


def test_default_window_formula():
    assert default_window(3) == 2  # floor(sqrt(3 * log2 3)) = floor(2.18)
    assert default_window(1) == 1
    for n in (2, 10, 100, 1024, 4097):
        expected = max(1, math.isqrt(int(n * math.log2(n))))
        assert default_window(n) == expected


# -- hand-traced runs ---------------------------------------------------------------


def test_three_element_trace_reports_at_third_push():
    det = Detector312(3)
    assert det.k == 2
    assert not det.push(3)  # becomes h
    assert not det.push(1)  # 1 <= h-k: stored as the pair (3,1)
    assert det.pairs == ((3, 1),)
    assert det.push(2)  # lands strictly inside (3,1)
    rep = det.finish()
    assert rep.verdict
    assert rep.occurrence == Occurrence(positions=(1, 2, 3), values=(3, 1, 2))


def test_window_insert_when_no_value_is_missing():
    det = Detector312(10, k=3)
    det.push(8)
    det.push(10)  # new maximum; window (7, 10] keeps 8
    assert det.h == 10 and det.window_values == {8, 10}
    assert not det.push(9)  # nothing missing between 9 and 10: just insert
    assert det.window_values == {8, 9, 10}


def test_window_report_with_future_witness():
    det = Detector312(9, k=3)
    det.push(6)
    assert det.push(4)  # 5 is in the window yet unseen: (6,4,5) must complete
    rep = det.finish()
    assert rep.occurrence == Occurrence(positions=(1, 2, None), values=(6, 4, 5))
    assert rep.occurrence.has_future


def test_pair_completion_reports_positions():
    det = Detector312(20, k=4)
    det.push(18)
    det.push(5)
    assert det.pairs == ((18, 5),)
    assert det.push(8)
    assert det.occurrence == Occurrence(positions=(1, 2, 3), values=(18, 5, 8))


def test_adjacent_window_values_do_not_report():
    det = Detector312(20, k=4)
    for v in (17, 19, 20):
        assert not det.push(v)
    assert det.window_values == {17, 19, 20}
    assert not det.push(18)  # 19 and 20 are both present: no gap above 18
    assert det.window_values == {17, 18, 19, 20}


def test_window_slides_on_new_maximum():
    det = Detector312(10, k=3)
    det.push(3)
    det.push(10)  # window becomes (7, 10]; the 3 is dropped (not pair-stored)
    assert det.window_values == {10}


def test_undercutting_pairs_merge():
    det = Detector312(12, k=3)
    det.push(12)
    det.push(5)
    assert det.pairs == ((12, 5),)
    assert not det.push(4)  # undercuts (12,5): merged into the wider (12,4)
    assert det.pairs == ((12, 4),)


# -- black-box equivalence -------------------------------------------------------


def test_matches_oracle_on_all_small_permutations():
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            det = Detector312(n)
            accepted = any(det.push(v) for v in tau)
            verdict = accepted or det.finish().verdict
            want = contains_bruteforce(perm_instance(tau), P312) is not None
            assert verdict == want, tau


def test_reported_occurrences_are_valid():
    rng = random.Random(31)
    checked = future = 0
    for _ in range(300):
        tau = random_perm(24, rng)
        inst = perm_instance(tau)
        det = Detector312(24)
        for v in tau:
            if det.push(v):
                break
        rep = det.finish()
        if rep.occurrence is not None:
            checked += 1
            future += rep.occurrence.has_future
            assert occurrence_is_valid(inst, P312, rep.occurrence)
    assert checked > 200 and future > 10


def test_132_via_complement_adapter_matches_oracle():
    p132 = parse_pattern("132")
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            det = new_detector(p132, n, StreamMode.PERMUTATION)
            accepted = any(det.push(v) for v in tau)
            verdict = accepted or det.finish().verdict
            want = contains_bruteforce(perm_instance(tau), p132) is not None
            assert verdict == want, tau
            if accepted and det.occurrence is not None:
                assert occurrence_is_valid(perm_instance(tau), p132, det.occurrence)


# -- state invariants and space -----------------------------------------------------


def test_invariant_replay_on_random_and_adversarial_streams():
    rng = random.Random(32)
    for _ in range(40):
        replay_312_with_invariants(random_perm(64, rng), 64)
    replay_312_with_invariants(layered_avoider(64, default_window(64) + 1), 64)
    replay_312_with_invariants(list(range(1, 65)), 64)
    replay_312_with_invariants(list(range(64, 0, -1)), 64)


INCREASING = list(range(1, 17))
DECREASING = list(range(16, 0, -1))


def set_pairs(det, *pairs):
    det._pairs = [(a, b, 0, 0) for a, b in pairs]
    det._pair_lows = [b for _, b in pairs]


# (stream, push after which one piece of state is corrupted, corruption, the
# message it raises); n = 16, so k = 8 and at most ceil(n/k) = 2 pairs fit
CORRUPTIONS = [
    (INCREASING, 3, lambda det: setattr(det, "_h", 2),
     "after 3 pushes: h=2 is not the prefix maximum 3"),
    (INCREASING, 3, lambda det: det._window.remove(2),
     "after 3 pushes: window [1, 3] != prefix values above h-k [1, 2, 3]"),
    (INCREASING, 3, lambda det: set_pairs(det, (3, 1), (3, 1), (3, 1)),
     "after 3 pushes: 3 pairs stored, more than ceil(n/k)=2"),
    (INCREASING, 3, lambda det: set_pairs(det, (3, 1)),
     "after 3 pushes: pair (3, 1) has width 2 < k=8"),
    (INCREASING, 10, lambda det: set_pairs(det, (10, 1)),
     "after 10 pushes: pair (10, 1) is not a decreasing pair of the prefix"),
    (DECREASING, 10, lambda det: set_pairs(det, (16, 7), (15, 7)),
     "after 10 pushes: pair intervals [7,15] and [7,16] overlap"),
    # a repeated h makes the window count miss the unread 15 at the next push
    ([16, 14, 15, *range(13, 0, -1)], 1, lambda det: det._window.append(16),
     "after 2 pushes: decreasing pair (16, 14) inside the window has a completion, "
     "but the detector did not report"),
    ([16, 5, *range(15, 5, -1), 4, 3, 2, 1], 2, lambda det: set_pairs(det),
     "after 2 pushes: decreasing pair (16, 5) has a completion but no stored pair covers it"),
]


@pytest.mark.parametrize("stream, after, corrupt, message", CORRUPTIONS)
def test_invariant_checker_flags_corrupted_state(stream, after, corrupt, message, monkeypatch):
    feed = Detector312._feed

    def corrupting_feed(det, values):  # the replay pushes one value at a time
        accepted = feed(det, values)
        if det.pushes == after:
            corrupt(det)
        return accepted

    monkeypatch.setattr(Detector312, "_feed", corrupting_feed)
    with pytest.raises(InvariantViolation) as exc:
        replay_312_with_invariants(stream, 16)
    assert str(exc.value) == message


def test_space_stays_within_bounds_on_adversarial_stream():
    n = 1024
    k = default_window(n)
    det = Detector312(n)
    for v in layered_avoider(n, k + 1):
        assert not det.push(v)
    rep = det.finish()
    assert not rep.verdict
    assert rep.structure_peaks["A"] <= k
    assert rep.structure_peaks["D"] <= math.ceil(n / k)
    assert rep.peak_cells == 2 + 2 * rep.structure_peaks["D"]
    assert rep.peak_bits == rep.peak_cells * 10 + k  # ceil(log2 1024) = 10


def test_peaks_are_the_largest_sizes_after_each_push():
    # the loop meters a structure only where it can grow; the peaks must
    # still be the largest sizes seen after any non-accepting push
    n = 200
    rng = random.Random(13)
    layers = layered_avoider(n - 40, default_window(n) + 1)
    streams = [
        list(range(1, n + 1)),  # the window grows only at new maxima
        layered_avoider(n, default_window(n) + 1),
        # D peaks at 4 pairs, then the low run merges them into one
        [v + 40 for v in layers] + list(range(40, 0, -1)),
        *(random_perm(n, rng) for _ in range(20)),
    ]
    for stream in streams:
        det = Detector312(n)
        top_a = top_d = 0
        for v in stream:
            if det.push(v):
                break
            top_a = max(top_a, len(det.window_values))
            top_d = max(top_d, len(det.pairs))
            assert det.structure_peaks == {"A": top_a, "D": top_d}, stream
            assert det.peak_cells == 2 + 2 * top_d, stream


def test_requires_permutation_mode():
    with pytest.raises(ValueError):
        Detector312(5, StreamMode.DISTINCT_SEQUENCE)
