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
    Pattern,
    StreamMode,
    TrivialRejectDetector,
    complement,
    contains_bruteforce,
    new_detector,
    occurrence_is_valid,
    parse_pattern,
    run_detector,
)
from permstream.core import DENSE_FLOOR
from permstream.streaming.dispatch import _key
from conftest import all_patterns, avoider_231, perm_instance, random_perm, seq_instance

PERM = StreamMode.PERMUTATION
SEQ = StreamMode.DISTINCT_SEQUENCE


# -- routing table -----------------------------------------------------------------


def test_monotone_patterns_route_to_patience_array():
    det = new_detector(parse_pattern("123"), 10, PERM)
    assert isinstance(det, MonotoneDetector)
    det = new_detector(parse_pattern("321"), 10, PERM)
    assert isinstance(det, ComplementAdapter)
    assert isinstance(det.inner, MonotoneDetector)


@pytest.mark.parametrize("values, key", [
    ((1,), "increasing"),
    ((1, 2, 3), "increasing"),
    (tuple(range(1, 13)), "increasing"),
    ((2, 1), "decreasing"),
    ((3, 2, 1), "decreasing"),
    (tuple(range(12, 0, -1)), "decreasing"),
    ((3, 1, 2), "312"),
    ((2, 1, 3), "213"),
    ((4, 2, 3, 1), "4231"),
    ((10, 3, 2, 1, 4, 5, 6, 7, 8, 9), "10,3,2,1,4,5,6,7,8,9"),
])
def test_a_patterns_row_is_read_off_its_values(values, key):
    assert _key(Pattern(values)) == key


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
    monotone = pattern in ("12", "321")
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
    # a malformed stream never reaches run_detector: its instance cannot be built
    with pytest.raises(ValueError, match="duplicate"):
        run_detector(perm_instance((1, 1, 2)), parse_pattern("12"))


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
            cpat = Pattern(complement(pat.values, len(pat)))
            a = run_detector(perm_instance(tau), pat).verdict
            b = run_detector(perm_instance(comp), cpat).verdict
            assert a == b


@pytest.mark.parametrize("pattern", ["132", "213"])
def test_adapter_telemetry_follows_the_inner_detector_mid_run(pattern):
    n = 10_000
    det = new_detector(parse_pattern(pattern), n, PERM)
    assert isinstance(det, ComplementAdapter)
    stream = det.adversary()
    for cut in (n // 2, n):
        det._feed(stream[det.pushes : cut])
        assert not det.accepted
        assert det.peak_cells == det.inner.peak_cells > 0
        assert det.structure_peaks == det.inner.structure_peaks != {}
    report = det.finish()
    assert (report.peak_cells, report.structure_peaks) == (det.peak_cells, det.structure_peaks)


def test_adapter_telemetry_follows_the_inner_detector_at_finish():
    # the 231 detector's end check closes its last strip: the peaks move at finish
    det = new_detector(parse_pattern("213"), 5, PERM)
    det._feed((1, 2, 3, 4, 5))
    assert (det.peak_cells, det.structure_peaks) == (8, {"buffer": 1, "strips": 2})
    report = det.finish()
    assert (report.peak_cells, report.structure_peaks) == (9, {"buffer": 1, "strips": 3})
    assert (det.peak_cells, det.structure_peaks) == (9, {"buffer": 1, "strips": 3})


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


def dispatched_verdict(pattern: str, stream: list[int]) -> bool:
    det = new_detector(parse_pattern(pattern), len(stream))
    det._feed(stream)
    return det.finish().verdict


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_231_and_312_families_agree_under_the_symmetries_at_scale(n):
    # 231 reversed is 132 and reverse-complemented is 312, and 213 reversed
    # is 312: the strips detector against the window detector, with no oracle,
    # on each one's adversary and on late near misses of 231-avoiders
    rng = random.Random(n)
    avoiders = [avoider_231(n, rng) for _ in range(2)]
    near_misses = []
    for avoider in avoiders:
        i = rng.randrange(n - 50, n - 1)
        stream = list(avoider)
        stream[i], stream[i + 1] = stream[i + 1], stream[i]
        near_misses.append(stream)
    streams = [Detector231(n).adversary(), Detector312(n).adversary(), *avoiders, *near_misses]
    contains_231 = []
    for tau in streams:
        reverse = tau[::-1]
        v231 = dispatched_verdict("231", tau)
        assert dispatched_verdict("132", reverse) == v231
        assert dispatched_verdict("312", complement(reverse, n)) == v231
        assert dispatched_verdict("312", reverse) == dispatched_verdict("213", tau)
        contains_231.append(v231)
    # the 231 adversary and the avoiders avoid 231 by construction, so those
    # pairs meet at the end of the stream, not at an early accept
    assert not any(contains_231[i] for i in (0, 2, 3))
