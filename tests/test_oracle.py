from __future__ import annotations

import importlib
import random
from functools import partial
from itertools import accumulate, combinations, permutations

import pytest

from permstream import (
    Occurrence,
    Pattern,
    SplitInput,
    StreamInstance,
    StreamMode,
    complement,
    contains_bruteforce,
    count_occurrences,
    gen_3142_2143,
    gen_4312,
    gen_pi4_front,
    gen_seq312,
    occurrence_is_valid,
    parse_pattern,
    random_subsets,
    split_protocol,
)
from conftest import (
    all_patterns,
    contains_reference,
    perm_instance,
    random_perm,
    seq_instance,
)

P312 = parse_pattern("312")


# -- containment ---------------------------------------------------------------


def test_contains_finds_lexicographically_first_occurrence():
    # Stream (3,1,9,7,15,13,18,16,14,8,5): the first 312 occurrence in
    # position order is values (9,7,8) at positions (3,4,10) -- (3,1,...) can
    # never start one because no later value lies strictly between 1 and 3.
    inst = gen_seq312(6, {1, 3, 5, 6}, {2, 3, 5}).stream
    assert inst.elements == (3, 1, 9, 7, 15, 13, 18, 16, 14, 8, 5)
    occ = contains_bruteforce(inst, P312)
    assert occ == Occurrence(positions=(3, 4, 10), values=(9, 7, 8))
    assert occurrence_is_valid(inst, P312, occ)


def test_contains_none_when_absent():
    assert contains_bruteforce(perm_instance((1, 2, 3, 4)), P312) is None
    assert contains_bruteforce(perm_instance((1,)), parse_pattern("12")) is None


def test_contains_matches_reference_exhaustively():
    patterns = all_patterns(2, 3)
    for n in range(1, 6):
        for tau in permutations(range(1, n + 1)):
            inst = perm_instance(tau)
            for pat in patterns:
                got = contains_bruteforce(inst, pat)
                want = contains_reference(tau, pat.values)
                assert (got is not None) == want, (tau, pat)
                if got is not None:
                    assert occurrence_is_valid(inst, pat, got)


def test_contains_works_in_sequence_mode():
    inst = seq_instance((9, 7, 8), n=12)
    assert contains_bruteforce(inst, P312) is not None


def enumerated_occurrences(values, pattern_values) -> list[tuple[int, ...]]:
    """Every occurrence's 1-based positions, in lexicographic order.

    Independent of the oracle's search: ``combinations`` yields index tuples in
    lexicographic order, and a tuple matches when sorting its values by size
    lists the pattern slots in the same order as sorting the pattern does.
    """
    k = len(pattern_values)
    shape = sorted(range(k), key=pattern_values.__getitem__)
    found = []
    for combo, picked in zip(combinations(range(len(values)), k), combinations(values, k)):
        if sorted(range(k), key=picked.__getitem__) == shape:
            found.append(tuple(i + 1 for i in combo))
    return found


def assert_exact_output(inst, pattern) -> None:
    """contains_bruteforce returns the first occurrence; count_occurrences counts them all."""
    found = enumerated_occurrences(inst.elements, pattern.values)
    first = None
    if found:
        values = tuple(inst.elements[p - 1] for p in found[0])
        first = Occurrence(positions=found[0], values=values)
    assert contains_bruteforce(inst, pattern) == first, (inst.elements, pattern)
    assert count_occurrences(inst, pattern) == len(found), (inst.elements, pattern)


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_output_matches_enumeration_on_every_permutation(n):
    # k > n for the short permutations: no occurrence, count 0
    patterns = all_patterns(1, 2, 3, 4)
    for tau in permutations(range(1, n + 1)):
        inst = perm_instance(tau)
        for pat in patterns:
            assert_exact_output(inst, pat)


def test_oracle_output_matches_enumeration_on_streams_with_gaps():
    rng = random.Random(13)
    streams = [seq_instance((9, 7, 8), n=12), seq_instance((40, 2), n=40)]
    for m in range(3, 9):
        streams.append(seq_instance(rng.sample(range(1, 41), m), n=40))
    for inst in streams:
        for pat in all_patterns(1, 2, 3, 4):
            assert_exact_output(inst, pat)


# -- skipping a slot that no later value can fill -------------------------------

ORACLE = importlib.import_module("permstream.oracle")


@pytest.fixture
def builds(monkeypatch):
    """The oracle's calls to ``accumulate``: two per search that builds its lists."""
    calls = []

    def spy(*args):
        calls.append(args)
        return accumulate(*args)

    monkeypatch.setattr(ORACLE, "accumulate", spy)
    return calls


HARDGEN = {
    "seq312": gen_seq312,
    **{
        f"front4:{p}": partial(gen_pi4_front, parse_pattern(p))
        for p in ("4231", "4213", "4132", "4123")
    },
    "4312": gen_4312,
    **{p: partial(gen_3142_2143, parse_pattern(p)) for p in ("3142", "2143")},
}


def test_oracle_output_matches_enumeration_on_hard_instances(builds):
    # A disjoint and an intersecting instance of each construction, nsets 6-12:
    # avoiders and single-occurrence streams, where the search scans past m
    # positions and then skips slots by the suffix extremes.
    rng = random.Random(19)
    for i, (name, build) in enumerate(HARDGEN.items()):
        for nsets, shared in ((6 + i % 7, False), (6 + (i + 3) % 7, True)):
            s, t = random_subsets(nsets, rng)
            t -= s
            if shared:
                common = rng.randint(1, nsets)
                s, t = s | {common}, t | {common}
            disj = build(nsets, s, t)
            assert disj.intersecting == shared
            before = len(builds)
            assert_exact_output(disj.stream, disj.pattern)
            assert len(builds) > before, (name, nsets, shared)


def one_swaps(values: tuple[int, ...], rng: random.Random):
    """``values``, then copies with two entries swapped: the last two, two
    neighbours at random and two random positions."""
    yield values
    m = len(values)
    i = rng.randrange(m - 1)
    for a, b in ((m - 2, m - 1), (i, i + 1), tuple(rng.sample(range(m), 2))):
        swapped = list(values)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        yield tuple(swapped)


def test_oracle_output_matches_enumeration_on_monotone_streams_and_one_swaps(builds):
    rng = random.Random(20)
    for n, lengths in ((20, (3, 4)), (31, (3,)), (40, (3,))):
        for base in (tuple(range(1, n + 1)), tuple(range(n, 0, -1))):
            for values in one_swaps(base, rng):
                for pat in all_patterns(*lengths):
                    assert_exact_output(perm_instance(values), pat)
    # 637 of these 672 searches (a contains and a count per stream and
    # pattern) scan past m positions and build the two lists
    assert len(builds) >= 2 * 600


class CountingTuple(tuple):
    """A tuple that counts the elements read from it by index."""

    reads = 0

    def __getitem__(self, index):
        CountingTuple.reads += 1
        return tuple.__getitem__(self, index)


def test_a_one_sided_last_slot_is_skipped_when_no_later_value_fits():
    # 231 on 1..m: the last slot wants a value below the first, and none
    # follows it.  A full scan of every last slot reads about m^3 / 6 values.
    m = 200
    inst = StreamInstance(m, StreamMode.PERMUTATION, range(1, m + 1))
    # the constructor keeps a plain tuple: swap in one that counts the oracle's reads
    object.__setattr__(inst, "elements", CountingTuple(inst.elements))
    CountingTuple.reads = 0
    assert contains_bruteforce(inst, parse_pattern("231")) is None
    assert CountingTuple.reads < m * m


def test_an_early_occurrence_never_builds_the_lists(builds):
    m = 10_000
    inst = perm_instance(random_perm(m, random.Random(21)))
    occ = contains_bruteforce(inst, P312)
    assert occ is not None and occ.positions[-1] < 100  # found within the first values
    assert builds == []


# -- counting -------------------------------------------------------------------


def test_count_pairs_examples():
    assert count_occurrences(perm_instance((2, 1, 3)), parse_pattern("12")) == 2
    assert count_occurrences(perm_instance((4, 3, 2, 1)), parse_pattern("21")) == 6


def test_count_front_generator_equals_intersection_size():
    disj = gen_pi4_front(parse_pattern("4231"), 4, {1, 3}, {2, 3})
    assert count_occurrences(disj.stream, disj.pattern) == 1  # |S cap T| = 1


def test_count_positive_iff_contains():
    rng = random.Random(11)
    for _ in range(50):
        tau = random_perm(8, rng)
        inst = perm_instance(tau)
        for pat in all_patterns(3):
            assert (count_occurrences(inst, pat) > 0) == (
                contains_bruteforce(inst, pat) is not None
            )


def test_count_complement_duality():
    rng = random.Random(12)
    for _ in range(30):
        tau = random_perm(7, rng)
        comp = perm_instance(complement(tau, 7))
        for pat in all_patterns(3):
            cpat = Pattern(complement(pat.values, len(pat)))
            assert count_occurrences(perm_instance(tau), pat) == count_occurrences(
                comp, cpat
            )


# -- occurrence validation --------------------------------------------------------


def test_occurrence_is_valid_rejects_wrong_claims():
    inst = perm_instance((6, 4, 5, 1, 2, 3))
    good = Occurrence(positions=(1, 2, 3), values=(6, 4, 5))
    assert occurrence_is_valid(inst, P312, good)
    wrong_value = Occurrence(positions=(1, 2, 4), values=(6, 4, 5))
    assert not occurrence_is_valid(inst, P312, wrong_value)
    not_iso = Occurrence(positions=(1, 2, 3), values=(6, 5, 4))
    assert not occurrence_is_valid(inst, P312, not_iso)
    wrong_len = Occurrence(positions=(1, 2), values=(6, 4))
    assert not occurrence_is_valid(inst, P312, wrong_len)


def test_occurrence_is_valid_checks_future_values():
    inst = perm_instance((6, 4, 5, 1, 2, 3))
    future_ok = Occurrence(positions=(1, 2, None), values=(6, 4, 5))
    assert occurrence_is_valid(inst, P312, future_ok)
    # value 7 never appears at all, and value 6 never appears after position 2
    assert not occurrence_is_valid(
        inst, P312, Occurrence(positions=(1, 2, None), values=(8, 4, 7))
    )
    assert not occurrence_is_valid(
        perm_instance((6, 4, 1, 2, 3, 5)),
        P312,
        Occurrence(positions=(1, 3, None), values=(6, 1, 4)),
    )


# -- split protocol ----------------------------------------------------------------


def test_split_alice_completable_case():
    split = SplitInput(n=3, prefix=(3, 1), suffix=(2,))
    assert split_protocol(split, P312) is True


def test_split_bob_startable_case():
    split = SplitInput(n=3, prefix=(1,), suffix=(2, 3))
    assert split_protocol(split, parse_pattern("123")) is True


def test_split_rejects_long_patterns():
    with pytest.raises(ValueError):
        split_protocol(SplitInput(n=4, prefix=(1, 2), suffix=(4, 3)), parse_pattern("4231"))


def test_split_input_must_be_a_permutation():
    with pytest.raises(ValueError):
        SplitInput(n=3, prefix=(1, 1), suffix=(2,))
    with pytest.raises(ValueError):
        SplitInput(n=4, prefix=(1, 2), suffix=(3,))
    # the one validation boundary: n >= 1 and int values only
    for n, prefix, suffix in (
        (0, (), ()),
        (2, (1,), (2.0,)),
        (2, (True,), (2,)),
        (2, (1,), ("2",)),
    ):
        with pytest.raises(ValueError):
            SplitInput(n=n, prefix=prefix, suffix=suffix)


def test_split_matches_oracle_on_all_small_inputs():
    patterns = all_patterns(1, 2, 3)
    for n in range(1, 5):
        for tau in permutations(range(1, n + 1)):
            inst = perm_instance(tau)
            for cut in range(n + 1):
                split = SplitInput(n=n, prefix=tau[:cut], suffix=tau[cut:])
                for pat in patterns:
                    want = contains_bruteforce(inst, pat) is not None
                    assert split_protocol(split, pat) == want, (tau, cut, pat)
