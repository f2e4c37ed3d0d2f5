"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These are the binding end-to-end checks for the artifact: figure-level frozen
streams, exhaustive and randomized detector-vs-oracle equivalence, the
reduction iff-properties, measured space bounds, the 312-state invariant
replay, the split protocol, and future-witness soundness.  Each test prints
``[acceptance] <name>: PASS|FAIL`` so a log scrape can collect the verdicts.
"""

from __future__ import annotations

import math
import random
import warnings
from itertools import permutations

from permstream import (
    Detector231,
    Detector312,
    StreamInstance,
    StreamMode,
    contains_bruteforce,
    count_occurrences,
    default_window,
    gen_3142_2143,
    gen_4312,
    gen_monotone_lb,
    gen_pi4_front,
    gen_seq312,
    new_detector,
    occurrence_is_valid,
    parse_pattern,
    replay_312_with_invariants,
    split_protocol,
    SplitInput,
)
from conftest import all_patterns, perm_instance, powerset, random_perm

PERM = StreamMode.PERMUTATION


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, name


def quiet_verdict(pattern, inst: StreamInstance) -> bool:
    """Dispatched detector verdict with fallback warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        det = new_detector(pattern, inst.n, inst.mode)
    for v in inst.elements:
        if det.push(v):
            return True
    return det.finish().verdict


# 1 -----------------------------------------------------------------------------


def test_monotone_lb_figure_pair_discriminates():
    acc, rej = gen_monotone_lb(6, 20, (1, 5, 7, 13), (1, 5, 9, 11))
    ok = acc.elements == (
        19, 17, 15, 11, 9, 3, 1, 5, 7, 13, 20, 18, 16, 14, 8, 10, 12, 6, 4, 2
    ) and rej.elements == (
        19, 17, 15, 13, 7, 3, 1, 5, 9, 11, 20, 18, 16, 14, 8, 10, 12, 6, 4, 2
    )
    p = parse_pattern("123456")
    ok = ok and quiet_verdict(p, acc) is True
    ok = ok and quiet_verdict(p, rej) is False
    report("monotone_lb_figure_pair_discriminates", ok)


# 2 -----------------------------------------------------------------------------


def test_seq312_figure_stream():
    disj = gen_seq312(6, {1, 3, 5, 6}, {2, 3, 5})
    ok = disj.stream.elements == (3, 1, 9, 7, 15, 13, 18, 16, 14, 8, 5)
    ok = ok and contains_bruteforce(disj.stream, parse_pattern("312")) is not None
    report("seq312_figure_stream", ok)


# 3 -----------------------------------------------------------------------------


def test_front4_and_two_round_figure_streams():
    s, t = {1, 3}, {2, 3}
    expected = {
        "4231": (4, 2, 6, 8, 12, 10, 14, 16, 1, 3, 7, 5, 11, 9, 13, 15),
        "4132": (4, 1, 5, 8, 12, 9, 13, 16, 14, 15, 11, 10, 7, 6, 2, 3),
        "4312": (5, 11, 13, 1, 3, 6, 4, 9, 7, 10, 12, 8, 2),
        "3142": (3, 6, 11, 14, 16, 13, 9, 12, 5, 8, 4, 1, 2, 7, 10, 15),
    }
    got = {
        "4231": gen_pi4_front(parse_pattern("4231"), 4, s, t).stream.elements,
        "4132": gen_pi4_front(parse_pattern("4132"), 4, s, t).stream.elements,
        "4312": gen_4312(4, s, t).stream.elements,
        "3142": gen_3142_2143(parse_pattern("3142"), 4, s, t).stream.elements,
    }
    report("front4_and_two_round_figure_streams", got == expected)


# 4 -----------------------------------------------------------------------------


def test_exhaustive_detector_oracle_equivalence():
    patterns = all_patterns(2, 3, 4)
    assert len(patterns) == 32
    failures = 0
    for n in range(1, 8):
        for tau in permutations(range(1, n + 1)):
            inst = perm_instance(tau)
            for pat in patterns:
                want = contains_bruteforce(inst, pat) is not None
                if quiet_verdict(pat, inst) != want:
                    failures += 1
    report("exhaustive_detector_oracle_equivalence", failures == 0)


# 5 -----------------------------------------------------------------------------


def test_randomized_detector_oracle_equivalence():
    patterns = [
        parse_pattern(p) for p in ("312", "132", "231", "213", "123", "321", "1234")
    ]
    rng = random.Random(20260814)
    failures = 0
    for n in (50, 200, 1000):
        values = list(range(1, n + 1))
        for _ in range(10_000):
            rng.shuffle(values)
            inst = StreamInstance(n, PERM, tuple(values))
            for pat in patterns:
                want = contains_bruteforce(inst, pat) is not None
                if quiet_verdict(pat, inst) != want:
                    failures += 1
    report("randomized_detector_oracle_equivalence", failures == 0)


# 6 -----------------------------------------------------------------------------


def test_reduction_iff_property():
    def check(build, n_max: int) -> int:
        bad = 0
        for n_sets in range(1, n_max + 1):
            for s in powerset(range(1, n_sets + 1)):
                for t in powerset(range(1, n_sets + 1)):
                    disj = build(n_sets, frozenset(s), frozenset(t))
                    has = contains_bruteforce(disj.stream, disj.pattern) is not None
                    bad += has != disj.intersecting
        return bad

    failures = check(gen_seq312, 5)
    for name in ("4231", "4213", "4132", "4123"):
        pat = parse_pattern(name)
        failures += check(lambda n, s, t, p=pat: gen_pi4_front(p, n, s, t), 4)
    failures += check(gen_4312, 4)
    for name in ("3142", "2143"):
        pat = parse_pattern(name)
        failures += check(lambda n, s, t, p=pat: gen_3142_2143(p, n, s, t), 4)
    report("reduction_iff_property", failures == 0)


# 7 -----------------------------------------------------------------------------


def test_occurrence_count_matches_intersection_size():
    failures = 0
    for name in ("4231", "4213", "4132", "4123"):
        pat = parse_pattern(name)
        for n_sets in range(1, 5):
            universe = range(1, n_sets + 1)
            for s in powerset(universe):
                for t in powerset(universe):
                    disj = gen_pi4_front(pat, n_sets, frozenset(s), frozenset(t))
                    want = len(frozenset(s) & frozenset(t))
                    failures += count_occurrences(disj.stream, pat) != want
    report("occurrence_count_matches_intersection_size", failures == 0)


# 8 -----------------------------------------------------------------------------


def test_space_bound_regression():
    rng = random.Random(88)
    ok = True
    for n in (2**10, 2**12, 2**14):
        k = default_window(n)
        bound312 = 4 * math.sqrt(n * math.log2(n))
        bound231 = 10 * math.sqrt(n)
        for _ in range(100):
            tau = random_perm(n, rng)

            det = Detector312(n)
            for v in tau:
                if det.push(v):
                    break
            rep = det.finish()
            ok = ok and rep.structure_peaks["A"] <= k
            ok = ok and rep.structure_peaks["D"] <= math.ceil(n / k)
            ok = ok and rep.peak_cells <= bound312

            det = Detector231(n)
            for v in tau:
                if det.push(v):
                    break
            rep = det.finish()
            ok = ok and rep.structure_peaks["buffer"] <= math.isqrt(n)
            ok = ok and rep.structure_peaks["strips"] <= math.ceil(math.sqrt(n))
            ok = ok and rep.peak_cells <= bound231

        # adversarial rejecting runs exercise the peak for real: each detector's
        # own adversary, a layered 312-avoider that fills D and a 231-avoider
        # that fills the strips
        det = Detector312(n)
        for v in det.adversary():
            det.push(v)
        rep = det.finish()
        ok = ok and not rep.verdict
        ok = ok and rep.structure_peaks["D"] <= math.ceil(n / k)
        ok = ok and rep.peak_cells <= bound312

        det = Detector231(n)
        for v in det.adversary():
            det.push(v)
        rep = det.finish()
        ok = ok and not rep.verdict
        ok = ok and rep.structure_peaks["buffer"] <= math.isqrt(n)
        ok = ok and rep.structure_peaks["strips"] <= math.ceil(math.sqrt(n))
        ok = ok and rep.peak_cells <= bound231
    report("space_bound_regression", ok)


# 9 -----------------------------------------------------------------------------


def test_window_invariant_suite():
    rng = random.Random(99)
    ok = True
    try:
        for _ in range(1000):
            replay_312_with_invariants(random_perm(256, rng), 256)
        # worst-case rejecting runs keep the invariants under load for the
        # whole stream instead of a short accepting prefix
        k = default_window(256)
        for block in (k + 1, 2 * k):
            layered: list[int] = []
            for lo in range(1, 257, block):
                layered.extend(range(min(lo + block - 1, 256), lo - 1, -1))
            replay_312_with_invariants(layered, 256)
        replay_312_with_invariants(list(range(1, 257)), 256)
        replay_312_with_invariants(list(range(256, 0, -1)), 256)
    except AssertionError:
        ok = False
    report("window_invariant_suite", ok)


# 10 ----------------------------------------------------------------------------


def test_split_protocol_equivalence():
    patterns = all_patterns(3)
    failures = 0
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            inst = perm_instance(tau)
            oracle = {
                pat: contains_bruteforce(inst, pat) is not None for pat in patterns
            }
            for cut in range(n + 1):
                split = SplitInput(n=n, prefix=tau[:cut], suffix=tau[cut:])
                for pat in patterns:
                    failures += split_protocol(split, pat) != oracle[pat]
    report("split_protocol_equivalence", failures == 0)


# 11 ----------------------------------------------------------------------------


def test_future_witness_soundness():
    pattern = parse_pattern("312")
    rng = random.Random(1111)
    accepting = 0
    future_seen = 0
    failures = 0
    while accepting < 10_000:
        tau = random_perm(48, rng)
        inst = perm_instance(tau)
        det = Detector312(48)
        if not any(det.push(v) for v in tau):
            det.finish()
            continue
        accepting += 1
        occ = det.occurrence
        if occ is None or not occurrence_is_valid(inst, pattern, occ):
            failures += 1
            continue
        if occ.has_future:
            future_seen += 1
            last_known = occ.positions[-2]
            if occ.values[-1] not in tau[last_known:]:
                failures += 1
    ok = failures == 0 and future_seen >= 1000
    report("future_witness_soundness", ok)
