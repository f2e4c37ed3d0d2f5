"""Tests for the benchmark's own generators and checkers.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

The linear-time checkers decide every expected verdict the benchmark gates
on, so they are held against the brute-force oracle on every permutation up
to length 7; every generated stream is held against the oracle too.
"""

from __future__ import annotations

import json
import os
import random
import sys
from itertools import permutations

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import gen  # noqa: E402
from permstream import StreamInstance, StreamMode, contains_bruteforce, parse_pattern  # noqa: E402


def oracle(values, pattern: str, n: int | None = None) -> bool:
    """Brute-force containment in a permutation, or in a prefix of one of size ``n``."""
    mode = StreamMode.PERMUTATION if n is None else StreamMode.DISTINCT_SEQUENCE
    inst = StreamInstance(n=n or len(values), mode=mode, elements=tuple(values))
    return contains_bruteforce(inst, parse_pattern(pattern)) is not None


def is_permutation(values) -> bool:
    return sorted(values) == list(range(1, len(values) + 1))


@pytest.mark.parametrize("pattern", gen.PATTERNS3 + ("1234", "4321"))
def test_checker_matches_oracle_on_every_small_permutation(pattern):
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            assert gen.contains(list(perm), pattern) == oracle(perm, pattern), (pattern, perm)


def test_checker_rejects_patterns_it_cannot_decide():
    with pytest.raises(ValueError):
        gen.contains([1, 2, 3, 4], "2413")


def test_random_dyck_words_are_balanced():
    rng = random.Random(7)
    for n in (0, 1, 2, 10, 100):
        word = gen.random_dyck(n, rng)
        assert len(word) == 2 * n and sum(word) == 0
        height = 0
        for step in word:
            height += step
            assert height >= 0


@pytest.mark.parametrize("native", gen.NATIVE)
def test_random_avoiders_avoid_and_their_complements_avoid_the_mirror(native):
    rng = random.Random(native)
    for n in (1, 2, 3, 9, 40):
        for _ in range(5):
            values = gen.random_avoider(native, n, rng)
            assert is_permutation(values)
            assert not oracle(values, native)
            assert not oracle(gen.complement(values), gen.MIRROR[native])


@pytest.mark.parametrize("native", gen.NATIVE)
def test_adversaries_avoid(native):
    for n in (1, 5, 60):
        values = gen.adversary(native, n)
        assert is_permutation(values)
        assert not oracle(values, native)


def test_full_pass_streams_have_their_intended_verdicts():
    for name, pattern, values, intended, proof_prefix in gen.full_pass_streams(3, n=80):
        assert is_permutation(values), name
        assert proof_prefix is None
        assert oracle(values, pattern) == intended, name
        if name.endswith("nearmiss"):
            start = gen.tail_start(len(values), gen.FULL_PASS_TAIL)
            assert not oracle(values[:start], pattern, len(values)), f"{name} contains its pattern early"


def test_early_accept_streams_contain_every_pattern_within_the_proof_prefix():
    names = []
    for name, pattern, values, intended, proof_prefix in gen.early_accept_streams(3, n=3000):
        names.append(name)
        assert is_permutation(values) and intended
        assert oracle(values[:proof_prefix], pattern, len(values)), name
    assert sorted(n.split("-")[0] for n in names) == sorted(gen.PATTERNS3)


def test_check_items_have_their_known_answers():
    from permstream import gen_3142_2143, gen_4312, gen_pi4_front, gen_seq312

    items = gen.check_items(5, trials=2, perm_trials=1)
    assert len({item["name"] for item in items}) == len(items)
    for item in items:
        if item["kind"] == "perm":
            assert is_permutation(item["values"])
            assert oracle(item["values"], item["pattern"]) == item["expected"], item["name"]
            continue
        s, t = set(item["s"]), set(item["t"])
        assert item["expected"] == bool(s & t)
        c, nsets = item["construction"], item["nsets"]
        if c == "seq312":
            disj = gen_seq312(nsets, s, t)
        elif c.startswith("front4:"):
            disj = gen_pi4_front(parse_pattern(c[7:]), nsets, s, t)
        elif c == "4312":
            disj = gen_4312(nsets, s, t)
        else:
            disj = gen_3142_2143(parse_pattern(c), nsets, s, t)
        pattern, n, mode = gen.construction_detector(c, nsets)
        assert (str(disj.pattern), disj.stream.n, disj.stream.mode.value) == (pattern, n, mode)
    hardgen = [item for item in items if item["kind"] == "hardgen"]
    disjoint = [item for item in hardgen if not item["expected"]]
    assert 2 * len(disjoint) == len(hardgen), "half of the hardgen trials must be disjoint"
    for item in hardgen:
        assert len(item["s"]) == item["nsets"] // 2
        assert len(item["t"]) == item["nsets"] // (2 if item["expected"] else 3)


def test_stream_text_round_trips():
    values = gen.uniform_permutation(45, random.Random(1))
    from permstream import parse_stream_text

    inst = parse_stream_text(gen.stream_text(45, values, "comment"))
    assert inst.n == 45 and list(inst.elements) == values


def test_cache_is_reused_and_rebuilt_when_a_file_changes(tmp_path):
    directory, manifest = gen.prepare("check", 9, str(tmp_path))
    items_path = os.path.join(directory, "items.json")
    with open(items_path, encoding="utf-8") as fh:
        original = fh.read()
    assert gen.prepare("check", 9, str(tmp_path)) == (directory, manifest)

    with open(items_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps([]))
    assert gen.prepare("check", 9, str(tmp_path)) == (directory, manifest)
    with open(items_path, encoding="utf-8") as fh:
        assert fh.read() == original


def test_same_seed_same_inputs_other_seed_other_inputs():
    def streams(seed):
        return [values for _, _, values, _, _ in gen.full_pass_streams(seed, n=50)]

    assert streams(1) == streams(1) != streams(2)


def test_cache_keeps_only_the_most_recent_input_sets(tmp_path):
    for seed in range(gen.KEEP_INPUTS):
        gen.prepare("check", seed, str(tmp_path))
    gen.prepare("check", 0, str(tmp_path))  # reused, so now the most recent
    gen.prepare("check", gen.KEEP_INPUTS, str(tmp_path))
    kept = os.listdir(tmp_path)
    assert len(kept) == gen.KEEP_INPUTS
    assert "check-s0" in kept and "check-s1" not in kept
