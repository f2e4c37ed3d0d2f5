from __future__ import annotations

import random
import tracemalloc
import warnings
from itertools import permutations

import pytest

from permstream import (
    BaselineDetector,
    ComplementAdapter,
    Detector231,
    Detector312,
    MonotoneDetector,
    Occurrence,
    PatternKind,
    StreamMode,
    TrivialRejectDetector,
    classify_pattern,
    complement,
    contains_bruteforce,
    new_detector,
    occurrence_is_valid,
    parse_pattern,
    run_detector,
)
from permstream.core import DENSE_FLOOR
from conftest import all_patterns, perm_instance, random_perm, seq_instance

PERM = StreamMode.PERMUTATION
SEQ = StreamMode.DISTINCT_SEQUENCE


# -- routing table -----------------------------------------------------------------


def test_monotone_patterns_route_to_patience_array():
    det = new_detector(parse_pattern("123"), 10, PERM)
    assert isinstance(det, MonotoneDetector)
    det = new_detector(parse_pattern("321"), 10, PERM)
    assert isinstance(det, ComplementAdapter)
    assert isinstance(det.inner, MonotoneDetector)


def test_312_family_routing():
    assert isinstance(new_detector(parse_pattern("312"), 50, PERM), Detector312)
    det = new_detector(parse_pattern("132"), 50, PERM)
    assert isinstance(det, ComplementAdapter)
    assert isinstance(det.inner, Detector312)


def test_231_family_routing():
    assert isinstance(new_detector(parse_pattern("231"), 50, PERM), Detector231)
    det = new_detector(parse_pattern("213"), 50, PERM)
    assert isinstance(det, ComplementAdapter)
    assert isinstance(det.inner, Detector231)


def test_long_nonmonotone_patterns_fall_back_with_warning():
    with pytest.warns(UserWarning, match="linear space"):
        det = new_detector(parse_pattern("4231"), 20, PERM)
    assert isinstance(det, BaselineDetector)


def test_sequence_mode_nonmonotone3_falls_back_with_warning():
    with pytest.warns(UserWarning, match="baseline"):
        det = new_detector(parse_pattern("312"), 12, SEQ)
    assert isinstance(det, BaselineDetector)


def test_monotone_works_in_sequence_mode_without_warning():
    det = new_detector(parse_pattern("12"), 12, SEQ)
    assert isinstance(det, MonotoneDetector)


def test_pattern_longer_than_universe_rejects_trivially():
    det = new_detector(parse_pattern("1234"), 3, PERM)
    assert isinstance(det, TrivialRejectDetector)
    for v in (2, 1, 3):
        assert not det.push(v)
    rep = det.finish()
    assert rep.verdict is False and rep.peak_cells == 0


def test_single_value_pattern_accepts_first_push():
    det = new_detector(parse_pattern("1"), 5, PERM)
    assert det.push(3)


# -- the detector contract ------------------------------------------------------------


def test_push_validation_errors():
    det = Detector312(5)
    det.push(3)
    with pytest.raises(ValueError, match="duplicate"):
        det.push(3)
    with pytest.raises(ValueError, match="range"):
        det.push(6)
    with pytest.raises(ValueError, match="range"):
        det.push(0)
    with pytest.raises(ValueError):
        det.push("3")


def test_guard_allocated_on_first_push_still_rejects_first_value():
    for bad, match in ((0, "range"), (6, "range"), ("3", "ints")):
        det = Detector312(5)
        assert det._validator is None  # nothing allocated before the first push
        with pytest.raises(ValueError, match=match):
            det.push(bad)
        assert not det.push(3)
        with pytest.raises(ValueError, match="duplicate value 3"):
            det.push(3)
        assert det.pushes == 1


@pytest.mark.parametrize("pattern", ["132", "213", "321"])
def test_adapter_guard_names_the_pushed_value(pattern):
    det = new_detector(parse_pattern(pattern), 5, PERM)
    assert isinstance(det, ComplementAdapter)
    with pytest.raises(ValueError, match=r"^value 0 out of range \[1, 5\]$"):
        det.push(0)
    with pytest.raises(ValueError, match=r"^value 6 out of range \[1, 5\]$"):
        det.push(6)
    assert not det.push(1)  # complemented to 5 inside
    with pytest.raises(ValueError, match=r"^duplicate value 1$"):
        det.push(1)
    assert not det.push(5)  # 5 is new, though the inner detector saw 5 for the 1
    # one guard, on the adapter: the inner detector is fed validated values
    assert det.inner._validator is None
    assert (det.pushes, det.inner.pushes) == (2, 2)



@pytest.mark.parametrize("n", [10**15, 10**20])
@pytest.mark.parametrize("pattern", ["12", "321", "312", "4231"])
def test_guard_follows_the_values_not_n(n, pattern):
    # a seq stream may be short over a huge universe: neither n = 10^15 (too
    # much memory) nor n = 10^20 (past an index) may size the guard
    pat = parse_pattern(pattern)
    inst = seq_instance((3, 1, 2), n)
    want = contains_bruteforce(inst, pat)
    monotone = pat.kind in (PatternKind.INCREASING, PatternKind.DECREASING)
    det = new_detector(pat, n, SEQ) if monotone else BaselineDetector(pat, n, SEQ)
    report = run_detector(inst, pat, det)
    assert report.verdict == (want is not None)
    if not monotone:
        assert report.occurrence == want
    assert det._validator is None  # run_detector validated the stream: one guard
    det = new_detector(pat, n, SEQ) if monotone else BaselineDetector(pat, n, SEQ)
    with pytest.raises(ValueError, match=rf"^value {n + 1} out of range \[1, {n}\]$"):
        det.push(n + 1)
    det.push(3)
    with pytest.raises(ValueError, match="^duplicate value 3$"):
        det.push(3)
    assert len(det._validator._guard) <= 8 and not det._validator._far


@pytest.mark.parametrize("pattern", ["12", "312"])
def test_run_detector_heap_holds_one_guard(pattern):
    # values up to DENSE_FLOOR always go into the bytearray, so the valid
    # seq stream (2^20, 1) needs one guard of n + 1 bytes: the detector
    # keeps none of its own, and growing the guard makes no zero-filled
    # temporary (either one would double the peak)
    n = DENSE_FLOOR
    pat = parse_pattern(pattern)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        det = new_detector(pat, n, SEQ)
    tracemalloc.start()
    try:
        assert not run_detector(seq_instance((n, 1), n), pat, det).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n < peak < 1.25 * n


@pytest.mark.parametrize("pattern", ["12", "312"])
def test_run_detector_heap_on_a_sparse_stream(pattern):
    # (10^8, 1) is far above the two values read: the guard holds it in a set
    n = 10**8
    pat = parse_pattern(pattern)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        det = new_detector(pat, n, SEQ)
    inst = seq_instance((n, 1), n)
    tracemalloc.start()
    try:
        assert not run_detector(inst, pat, det).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_finish_is_terminal():
    det = MonotoneDetector(2, 3, SEQ)
    det.push(2)
    det.finish()
    with pytest.raises(ValueError, match="push after finish"):
        det.push(1)
    with pytest.raises(ValueError, match="twice"):
        det.finish()


def test_permutation_mode_requires_all_values_before_finish():
    det = Detector231(4)
    det.push(2)
    with pytest.raises(ValueError, match="permutation mode"):
        det.finish()


def test_finish_without_any_push_rejects():
    det = Detector312(4)
    assert det.finish().verdict is False


def test_pushes_after_acceptance_latch():
    det = MonotoneDetector(2, 4, PERM)
    det.push(1)
    assert det.push(2)
    assert det.push(4)  # latched: keeps returning True, no error
    assert det.push(3)
    assert det.finish().verdict


def test_latched_push_checks_finished_int_and_range_but_not_duplicates():
    det = MonotoneDetector(2, 4, PERM)
    assert not det.push(1)
    assert det.push(2)
    assert det.push(2)  # a duplicate after the latch is not held
    with pytest.raises(ValueError, match=r"^value 5 out of range \[1, 4\]$"):
        det.push(5)
    with pytest.raises(ValueError, match=r"^value 0 out of range \[1, 4\]$"):
        det.push(0)
    with pytest.raises(ValueError, match="^stream values must be ints, got True$"):
        det.push(True)
    det.finish()
    with pytest.raises(ValueError, match="^push after finish$"):
        det.push(3)


# -- run_detector ----------------------------------------------------------------------


def test_run_detector_validates_stream():
    bad = perm_instance((1, 1, 2))
    with pytest.raises(ValueError, match="duplicate"):
        run_detector(bad, parse_pattern("12"))


def test_run_detector_round_trip():
    rep = run_detector(perm_instance((3, 1, 2)), parse_pattern("312"))
    assert rep.verdict and rep.occurrence is not None


# -- complement adapter ------------------------------------------------------------------


def test_adapter_recomplements_occurrences():
    inst = perm_instance((1, 6, 3, 4, 5, 2))
    p132 = parse_pattern("132")
    det = new_detector(p132, 6, PERM)
    accepted = any(det.push(v) for v in inst.elements)
    assert accepted
    occ = det.occurrence
    assert occ == Occurrence(positions=(1, 2, 3), values=(1, 6, 3))
    assert occurrence_is_valid(inst, p132, occ)
    assert det.finish().occurrence == occ  # the report carries the mapped witness too


def test_adapter_matches_direct_complement_run():
    rng = random.Random(51)
    pats = [parse_pattern(p) for p in ("132", "213", "321")]
    for _ in range(100):
        tau = random_perm(20, rng)
        comp = complement(tau, 20)
        for pat in pats:
            cpat = classify_pattern(complement(pat.values, len(pat)))
            a = run_detector(perm_instance(tau), pat).verdict
            b = run_detector(perm_instance(comp), cpat).verdict
            assert a == b


def test_dispatched_detectors_match_oracle_small():
    pats = all_patterns(2, 3)
    for n in range(1, 6):
        for tau in permutations(range(1, n + 1)):
            inst = perm_instance(tau)
            for pat in pats:
                want = contains_bruteforce(inst, pat) is not None
                assert run_detector(inst, pat).verdict == want, (tau, pat)


def test_baseline_on_sequence_mode_matches_oracle():
    rng = random.Random(52)
    p312 = parse_pattern("312")
    for _ in range(50):
        values = rng.sample(range(1, 31), 12)
        inst = seq_instance(tuple(values), n=30)
        with pytest.warns(UserWarning):
            rep = run_detector(inst, p312)
        assert rep.verdict == (contains_bruteforce(inst, p312) is not None)
