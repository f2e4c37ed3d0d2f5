from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations, permutations

import pytest

from permstream import (
    StreamMode,
    contains_bruteforce,
    extend_stream,
    gen_3142_2143,
    gen_4312,
    gen_monotone_lb,
    gen_pi4_front,
    gen_seq312,
    parse_pattern,
    random_subsets,
    run_detector,
    stream_violation,
)
from conftest import perm_instance, powerset, random_perm

FRONT4 = [parse_pattern(p) for p in ("4231", "4213", "4132", "4123")]


def build(name: str, n_sets: int, s, t):
    if name == "seq312":
        return gen_seq312(n_sets, s, t)
    if name == "4312":
        return gen_4312(n_sets, s, t)
    if name in ("3142", "2143"):
        return gen_3142_2143(parse_pattern(name), n_sets, s, t)
    return gen_pi4_front(parse_pattern(name), n_sets, s, t)


ALL_CONSTRUCTIONS = ["seq312", "4231", "4213", "4132", "4123", "4312", "3142", "2143"]


# -- frozen example streams ------------------------------------------------------------


def test_seq312_example_stream():
    disj = gen_seq312(6, {1, 3, 5, 6}, {2, 3, 5})
    assert disj.stream.elements == (3, 1, 9, 7, 15, 13, 18, 16, 14, 8, 5)
    assert disj.stream.mode is StreamMode.DISTINCT_SEQUENCE
    assert disj.stream.n == 18
    assert disj.pattern.values == (3, 1, 2)


def test_front4_example_streams():
    d = gen_pi4_front(parse_pattern("4231"), 4, {1, 3}, {2, 3})
    assert d.stream.elements == (4, 2, 6, 8, 12, 10, 14, 16, 1, 3, 7, 5, 11, 9, 13, 15)
    d = gen_pi4_front(parse_pattern("4132"), 4, {1, 3}, {2, 3})
    assert d.stream.elements == (4, 1, 5, 8, 12, 9, 13, 16, 14, 15, 11, 10, 7, 6, 2, 3)


def test_4312_example_stream():
    d = gen_4312(4, {1, 3}, {2, 3})
    assert d.stream.elements == (5, 11, 13, 1, 3, 6, 4, 9, 7, 10, 12, 8, 2)
    assert d.stream.n == 13


def test_3142_example_stream():
    d = gen_3142_2143(parse_pattern("3142"), 4, {1, 3}, {2, 3})
    assert d.stream.elements == (3, 6, 11, 14, 16, 13, 9, 12, 5, 8, 4, 1, 2, 7, 10, 15)
    assert d.stream.n == 16


# -- structural properties ---------------------------------------------------------------


def test_streams_validate_and_segments_partition():
    rng = random.Random(61)
    for name in ALL_CONSTRUCTIONS:
        for _ in range(10):
            s, t = random_subsets(5, rng)
            disj = build(name, 5, s, t)
            assert stream_violation(disj.stream) is None, name
            cursor = 1
            for seg in disj.segments:
                assert seg.start == cursor and seg.end >= seg.start - 1
                assert seg.owner in ("alice", "bob")
                cursor = seg.end + 1
            assert cursor == len(disj.stream.elements) + 1
            assert disj.intersecting == bool(set(s) & set(t))


def test_segment_owners_follow_round_structure():
    one_round = gen_seq312(3, {1}, {2})
    assert [seg.owner for seg in one_round.segments] == ["alice", "bob"]
    two_round = gen_4312(3, {1}, {2})
    assert [seg.owner for seg in two_round.segments] == ["alice", "bob", "alice"]


def test_empty_alice_set_gives_decreasing_seq312():
    disj = gen_seq312(4, set(), {1, 2, 3, 4})
    values = disj.stream.elements
    assert list(values) == sorted(values, reverse=True)
    assert contains_bruteforce(disj.stream, disj.pattern) is None


def test_set_validation():
    with pytest.raises(ValueError):
        gen_seq312(3, {0}, set())
    with pytest.raises(ValueError):
        gen_seq312(3, set(), {4})
    with pytest.raises(ValueError):
        gen_pi4_front(parse_pattern("1234"), 3, set(), set())
    with pytest.raises(ValueError):
        gen_3142_2143(parse_pattern("4231"), 3, set(), set())


# -- the iff-property ----------------------------------------------------------------------


def test_containment_iff_sets_intersect_exhaustive_small():
    universe = range(1, 4)
    for name in ALL_CONSTRUCTIONS:
        for s in powerset(universe):
            for t in powerset(universe):
                disj = build(name, 3, frozenset(s), frozenset(t))
                has = contains_bruteforce(disj.stream, disj.pattern) is not None
                assert has == disj.intersecting, (name, s, t)


# -- monotone lower-bound pairs ---------------------------------------------------------------


def test_monotone_lb_figure_pair():
    acc, rej = gen_monotone_lb(6, 20, (1, 5, 7, 13), (1, 5, 9, 11))
    assert acc.elements == (19, 17, 15, 11, 9, 3, 1, 5, 7, 13, 20, 18, 16, 14, 8, 10, 12, 6, 4, 2)
    assert rej.elements == (19, 17, 15, 13, 7, 3, 1, 5, 9, 11, 20, 18, 16, 14, 8, 10, 12, 6, 4, 2)
    p = parse_pattern("123456")
    assert contains_bruteforce(acc, p) is not None
    assert contains_bruteforce(rej, p) is None


def test_monotone_lb_codes_commute():
    a1, r1 = gen_monotone_lb(4, 12, (1, 3), (1, 7))
    a2, r2 = gen_monotone_lb(4, 12, (1, 7), (1, 3))
    assert a1 == a2 and r1 == r2  # normalization picks the same roles


def test_monotone_lb_prefix_only():
    alpha = gen_monotone_lb(4, 12, (1, 3))
    assert alpha.mode is StreamMode.DISTINCT_SEQUENCE
    assert alpha.elements == (11, 9, 7, 5, 1, 3)  # odds not in rho desc, then rho


def test_monotone_lb_random_codes_discriminate():
    rng = random.Random(62)
    k, n = 5, 40
    odds = list(range(3, n, 2))
    for _ in range(20):
        rho = tuple([1] + sorted(rng.sample(odds, k - 3)))
        sigma = tuple([1] + sorted(rng.sample(odds, k - 3)))
        if rho == sigma:
            continue
        acc, rej = gen_monotone_lb(k, n, rho, sigma)
        p = parse_pattern("12345")
        assert contains_bruteforce(acc, p) is not None
        assert contains_bruteforce(rej, p) is None


def test_monotone_lb_validation():
    with pytest.raises(ValueError):
        gen_monotone_lb(2, 10, ())  # k too small
    with pytest.raises(ValueError):
        gen_monotone_lb(4, 11, (1, 3))  # odd n
    with pytest.raises(ValueError):
        gen_monotone_lb(4, 12, (1, 4))  # even code value
    with pytest.raises(ValueError):
        gen_monotone_lb(4, 12, (3, 5))  # must start at 1
    with pytest.raises(ValueError):
        gen_monotone_lb(4, 12, (1, 3, 5))  # wrong length
    with pytest.raises(ValueError):
        gen_monotone_lb(4, 12, (1, 3), (1, 3))  # identical codes


def longest_increasing(values):
    """Length of the longest increasing subsequence (patience sorting)."""
    tails: list[int] = []
    for v in values:
        i = bisect_left(tails, v)
        tails[i : i + 1] = [v]
    return len(tails)


def test_monotone_lb_every_code_pair_fits_and_discriminates():
    # Every ordered pair of distinct valid codes for k = 4..8 and even n <= 20
    # (56016 pairs): check_code alone bounds the codes, and the shared suffix
    # always fits inside [1..n].
    pairs = 0
    for k in range(4, 9):
        for n in range(2, 21, 2):
            codes = [(1, *c) for c in combinations(range(3, n, 2), k - 3)]
            for rho, sigma in permutations(codes, 2):
                acc, rej = gen_monotone_lb(k, n, rho, sigma)
                assert sorted(acc.elements) == list(range(1, n + 1)) == sorted(rej.elements)
                assert acc.elements[n // 2 :] == rej.elements[n // 2 :]
                assert longest_increasing(acc.elements) >= k > longest_increasing(rej.elements)
                pairs += 1
    assert pairs == 56016


def test_monotone_lb_tight_codes_still_fit():
    # The discriminating suffix always fits inside [1..n]: the larger code's
    # own tail forces r + 2(k-i) - 1 <= n, so codes touching n-1 still work.
    acc, rej = gen_monotone_lb(4, 12, (1, 11), (1, 9))
    p = parse_pattern("1234")
    assert max(acc.elements) == 12 and max(rej.elements) == 12
    assert contains_bruteforce(acc, p) is not None
    assert contains_bruteforce(rej, p) is None


# -- the extension transform ---------------------------------------------------------------------


def test_extend_stream_values():
    inst = extend_stream(perm_instance((2, 1)))
    assert inst.elements == (4, 2, 1, 3)
    assert inst.n == 4
    assert stream_violation(inst) is None


def test_extension_preserves_containment_of_extended_pattern():
    # A stream contains pattern p exactly when its extension contains the
    # pattern that appends a new minimum tail slot to p: 21 -> 321, 12 -> 132.
    rng = random.Random(64)
    cases = [(parse_pattern("21"), parse_pattern("321")),
             (parse_pattern("12"), parse_pattern("132"))]
    for _ in range(40):
        tau = random_perm(8, rng)
        ext = extend_stream(perm_instance(tau))
        for base, extended in cases:
            want = contains_bruteforce(perm_instance(tau), base) is not None
            got = contains_bruteforce(ext, extended) is not None
            assert got == want, (tau, base)


def test_extend_warns_on_sequence_mode():
    from permstream import StreamInstance

    seq = StreamInstance(n=6, mode=StreamMode.DISTINCT_SEQUENCE, elements=(2, 5))
    with pytest.warns(UserWarning):
        extend_stream(seq)


# -- random subsets ------------------------------------------------------------------------------


def test_random_subsets_deterministic_and_in_range():
    s1, t1 = random_subsets(10, random.Random(7))
    s2, t2 = random_subsets(10, random.Random(7))
    assert s1 == s2 and t1 == t2
    assert s1 <= frozenset(range(1, 11)) and t1 <= frozenset(range(1, 11))


# -- detectors on generated instances ---------------------------------------------------------


def test_dispatched_detector_agrees_on_seq312_instances():
    rng = random.Random(65)
    for _ in range(20):
        s, t = random_subsets(6, rng)
        disj = gen_seq312(6, s, t)
        with pytest.warns(UserWarning):
            rep = run_detector(disj.stream, disj.pattern)
        assert rep.verdict == disj.intersecting
