"""The full-storage baseline against the brute-force oracle.

The baseline decides containment with its own sweep matcher
(`permstream.streaming.baseline.first_occurrence`); these tests compare its
verdict and its occurrence, which must be the position-lexicographically
first one, with `contains_bruteforce`, check its sweep alone against a
brute-force search, and pin the space telemetry the baseline reports, the
work its pruning saves and the values its witness search reads.  The last
two tests check
that the detector modules and the oracle import nothing from each other, so
that these comparisons can fail.
"""

from __future__ import annotations

import ast
import math
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from permstream import (
    BaselineDetector,
    Pattern,
    StreamInstance,
    bits_per_cell,
    contains_bruteforce,
    occurrence_is_valid,
    parse_pattern,
    run_detector,
)
from permstream.hardgen import (
    extend_stream,
    gen_3142_2143,
    gen_4312,
    gen_monotone_lb,
    gen_pi4_front,
    gen_seq312,
)
from permstream import oracle, streaming
from permstream.streaming import baseline as baseline_module
from permstream.streaming.baseline import first_occurrence
from conftest import all_patterns, avoider_231, perm_instance, random_perm, seq_instance


def run_baseline(inst: StreamInstance, pattern):
    det = BaselineDetector(pattern, inst.n, inst.mode)
    return run_detector(inst, pattern, det)


def assert_matches_oracle(inst: StreamInstance, pattern) -> bool:
    """The baseline's report equals the oracle's answer; returns the verdict."""
    report = run_baseline(inst, pattern)
    want = contains_bruteforce(inst, pattern)
    assert report.verdict == (want is not None), (inst.elements, pattern.values)
    assert report.occurrence == want, (inst.elements, pattern.values)
    # the buffer holds every value: the telemetry is the stream's length
    m = len(inst.elements)
    assert report.peak_cells == m
    assert report.peak_bits == m * bits_per_cell(inst.n)
    assert report.structure_peaks == ({"buffer": m} if m else {})
    return report.verdict


def assert_matcher_matches_oracle(inst: StreamInstance, patterns) -> None:
    """The baseline's matcher finds the oracle's occurrence of each pattern."""
    for pattern in patterns:
        found = first_occurrence(inst.elements, pattern.values)
        want = contains_bruteforce(inst, pattern)
        assert found == (None if want is None else tuple(p - 1 for p in want.positions)), (
            inst.elements, pattern.values,
        )


def test_every_permutation_up_to_7_and_pattern_up_to_4():
    # the matcher alone keeps this short; the detector around it is run below
    patterns = all_patterns(1, 2, 3, 4)
    for n in range(1, 8):
        for tau in permutations(range(1, n + 1)):
            assert_matcher_matches_oracle(perm_instance(tau), patterns)


def test_every_permutation_up_to_6_and_pattern_of_length_5():
    patterns = all_patterns(5)
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            assert_matcher_matches_oracle(perm_instance(tau), patterns)


def test_every_permutation_up_to_5_through_the_detector():
    patterns = all_patterns(1, 2, 3, 4, 5)
    for n in range(1, 6):
        for tau in permutations(range(1, n + 1)):
            for pattern in patterns:
                assert_matches_oracle(perm_instance(tau), pattern)


def test_seeded_sequences_including_ones_shorter_than_the_pattern():
    rng = random.Random(71)
    patterns = [parse_pattern(p) for p in ("312", "231", "132", "4231", "2413", "3142", "14253")]
    verdicts = set()
    for _ in range(150):
        n = rng.randint(1, 60)
        values = rng.sample(range(1, n + 1), rng.randint(0, min(n, 14)))
        inst = seq_instance(tuple(values), n)
        for pattern in patterns:
            verdicts.add(assert_matches_oracle(inst, pattern))
    assert verdicts == {True, False}


def test_random_permutations_with_longer_patterns():
    rng = random.Random(72)
    patterns = all_patterns(4) + [parse_pattern(p) for p in ("25314", "41352", "135246")]
    for n in (12, 30, 45):
        for _ in range(3):
            inst = perm_instance(random_perm(n, rng))
            for pattern in patterns:
                assert_matches_oracle(inst, pattern)


# In 15234, 54123, 165234 and 615432 each prefix slot bounds later slots on one
# side only, so a failed candidate rules out every later one on that side of it;
# 25314 and 14253 have a slot that bounds both sides, and slot 2 of 132465 none.
@pytest.mark.parametrize("name", ["15234", "54123", "165234", "615432", "25314", "14253", "132465"])
def test_pruned_prefix_slots_match_the_oracle(name):
    rng = random.Random(74)
    pattern = parse_pattern(name)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(len(name), 11)
        if rng.random() < 0.5:
            inst = perm_instance(random_perm(n, rng))
        else:
            inst = seq_instance(tuple(rng.sample(range(1, 2 * n + 1), n)), 2 * n)
        verdicts.add(assert_matches_oracle(inst, pattern))
    assert verdicts == {True, False}


def test_pruning_work_is_pinned_on_a_front4_instance(monkeypatch):
    # The matcher's work on one disjoint 4231 instance, m = 32.  Without the
    # pruning of dominated start values it makes 29 sweeps; a sweep that runs on
    # after its last z makes more presence-map stores and scans.  Change the
    # numbers only with the matcher's work, and say why.
    odd, even = set(range(1, 9, 2)), set(range(2, 9, 2))
    disj = gen_pi4_front(parse_pattern("4231"), 8, odd, even)
    counts = Counter()

    class Counted(bytearray):
        """A presence map that counts its stores and its scans."""

        def __setitem__(self, i, v):
            counts["store"] += 1
            super().__setitem__(i, v)

        def find(self, *args):
            counts["find"] += 1
            return super().find(*args)

        def rfind(self, *args):
            counts["rfind"] += 1
            return super().rfind(*args)

        def count(self, *args):
            counts["count"] += 1
            return super().count(*args)

    def counted(*args, _fn=baseline_module._sweep):
        counts["_sweep"] += 1
        return _fn(*args)

    monkeypatch.setattr(baseline_module, "bytearray", Counted, raising=False)
    monkeypatch.setattr(baseline_module, "_sweep", counted)
    assert first_occurrence(disj.stream.elements, disj.pattern.values) is None
    assert counts == {"_sweep": 12, "store": 438, "count": 12, "find": 137, "rfind": 50}


def test_a_pattern_of_1500_values_needs_no_recursion():
    # the prefix loop keeps one iterator per placed slot on a list, not one frame
    k = 1500
    stream = (2, 1, *range(3, 2 * k + 1))
    assert first_occurrence(stream, stream[:k]) == tuple(range(k))


def completes_at(values, pattern, p) -> bool:
    """Whether slot 0 of ``pattern`` at position ``p`` completes, by brute force."""
    order = sorted(range(len(pattern)), key=pattern.__getitem__)
    for rest in combinations(range(p + 1, len(values)), len(pattern) - 1):
        got = [values[i] for i in (p, *rest)]
        if sorted(range(len(got)), key=got.__getitem__) == order:
            return True
    return False


@pytest.mark.parametrize("k", [3, 4])
def test_every_skipped_candidate_is_dominated_by_a_failed_one(k):
    # _undominated at slot 0, resumed only after a candidate that fails
    # completes_at.  Each candidate it skips must be dominated, by the rule of
    # its docstring computed here: a failed value w at an earlier position
    # with w > v, where no later slot lies above slot 0 or no value after p
    # lies between v and w, or likewise with w < v and below.
    skipped = 0
    for n in range(k, 7):
        for values in permutations(range(1, n + 1)):
            for pattern in permutations(range(1, k + 1)):
                below, above = min(pattern[1:]) < pattern[0], max(pattern[1:]) > pattern[0]
                sides = baseline_module._sides(pattern[0], pattern[1:])
                stop = n - k + 1
                yielded, failed = [], []
                for p in baseline_module._undominated(values, 0, stop, 0, n + 1, sides):
                    yielded.append(p)
                    if completes_at(values, pattern, p):
                        stop = p
                        break
                    failed.append(p)
                for p in set(range(stop)) - set(yielded):
                    skipped += 1
                    v, after = values[p], values[p + 1 :]

                    def dominates(w, side_bounded):
                        lo, hi = min(v, w), max(v, w)
                        return not side_bounded or not any(lo < u < hi for u in after)

                    assert any(
                        dominates(values[q], above if values[q] > v else below)
                        for q in failed if q < p
                    ), (values, pattern, p, yielded)
                    assert not completes_at(values, pattern, p), (values, pattern, p)
    assert skipped > 1000  # the pruning was reached


def first_completing_y(values, start, x_stop, slots, bounds):
    """What the sweep returns, by brute force over every x, y and z."""
    order = sorted(range(3), key=slots.__getitem__)
    m = len(values)
    for y in range(start + 1, m):
        for x in range(start, min(y, x_stop)):
            for z in range(y + 1, m):
                got = (values[x], values[y], values[z])
                if sorted(range(3), key=got.__getitem__) == order and all(
                    lo < v < hi for v, (lo, hi) in zip(got, bounds)
                ):
                    return y
    return None


def test_the_sweep_returns_the_first_completing_y():
    # the sweep alone, on ranks: with the whole value range open to every slot,
    # then with random intervals such as a prefix leaves
    def check(tau, start, x_stop, slots, bounds):
        got = baseline_module._sweep(tau, start, x_stop, slots, bounds)
        assert got == first_completing_y(tau, start, x_stop, slots, bounds), (
            tau, start, x_stop, slots, bounds,
        )

    for n in range(3, 6):
        for tau in permutations(range(1, n + 1)):
            for slots in permutations((1, 2, 3)):
                for start in range(n - 2):
                    for x_stop in (start + 1, n):
                        check(tau, start, x_stop, slots, [(0, n + 1)] * 3)
    rng = random.Random(76)
    for _ in range(3000):
        n = rng.randint(3, 10)
        tau = random_perm(n, rng)
        bounds = [tuple(sorted(rng.sample(range(n + 2), 2))) for _ in range(3)]
        start = rng.randrange(n - 2)
        x_stop = rng.choice((start + 1, rng.randint(start + 1, n)))
        check(tau, start, x_stop, rng.sample((1, 2, 3), 3), bounds)


# -- late first occurrences: the search for the witness's x runs long ---------------

#: (reverse, complement) that take a 231-avoider to an avoider of each 3-pattern;
#: 4231, 2413 and 3142 contain 231, so a 231-avoider avoids them as it is
TO_AVOIDER = {"231": (False, False), "132": (True, False), "213": (False, True), "312": (True, True)}


def late_occurrence(name: str, m: int, rng: random.Random) -> list[int]:
    """A seeded avoider of pattern ``name`` on 1..m, with the pattern planted late.

    The values at len(name) random positions among the last 3 % are
    rearranged into the pattern's order, so every occurrence uses one of them.
    """
    reverse, complement = TO_AVOIDER.get(name, (False, False))
    values = avoider_231(m, rng)
    if complement:
        values = [m + 1 - v for v in values]
    if reverse:
        values.reverse()
    at = sorted(rng.sample(range(m - max(len(name), m * 3 // 100), m), len(name)))
    ordered = sorted(values[p] for p in at)
    for p, r in zip(at, name):
        values[p] = ordered[int(r) - 1]
    return values


@pytest.mark.parametrize("name, m", [
    ("312", 1000), ("132", 1000), ("231", 1000), ("213", 1000),
    ("4231", 200), ("2413", 200), ("3142", 200),
])
def test_late_first_occurrences_match_the_oracle(name, m):
    # as a permutation, then as sparse seq values, which the matcher ranks first
    rng = random.Random(int(name))
    values = late_occurrence(name, m, rng)
    sparse = sorted(rng.sample(range(10**12, 10**12 + 10**9), m))
    pattern = parse_pattern(name)
    for inst in (perm_instance(values), seq_instance(tuple(sparse[v - 1] for v in values), 10**15)):
        assert assert_matches_oracle(inst, pattern)
    # x lies far past the first value that fits its interval, so the search
    # widens its step many times, then bisects
    assert first_occurrence(values, pattern.values)[-3] > m // 2


def test_the_witness_search_reads_o_m_log_m_values():
    # A late 312 at m = 4000.  Each sweep reads O(m) values and the search for
    # x makes O(log m) of them; a scan from each candidate x would read O(m^2).
    m = 4000
    values = late_occurrence("312", m, random.Random(4000))
    reads = 0

    class Counted(list):
        """A buffer that counts its reads at one index."""

        def __getitem__(self, i):
            nonlocal reads
            if isinstance(i, int):
                reads += 1
            return super().__getitem__(i)

    # the values are 1..m, so the matcher reads this buffer as its ranks
    found = first_occurrence(Counted(values), (3, 1, 2))
    x, y, z = (values[p] for p in found)
    assert y < z < x and found[0] > m // 2
    assert reads <= 5 * m * math.ceil(math.log2(m))  # 240 000


def test_sparse_sequence_values_far_above_the_stream_length():
    # values near 10^12 in a universe of 10^15: a map sized from the values or
    # from n, not from the m buffered ones, would not fit in memory
    rng = random.Random(75)
    patterns = all_patterns(3, 4) + [
        parse_pattern(p) for p in ("14253", "25314", "41352", "35142", "54123")
    ]
    verdicts = set()
    for _ in range(40):
        values = rng.sample(range(10**12, 10**12 + 10**9), rng.randint(3, 12))
        inst = seq_instance(tuple(values), 10**15)
        for pattern in patterns:
            verdicts.add(assert_matches_oracle(inst, pattern))
    assert verdicts == {True, False}


# -- every hardgen construction, intersecting and disjoint --------------------------


def construction_instances(n_sets: int):
    """(name, instance, pattern, contains) of each construction, both forms."""
    odd, even = set(range(1, n_sets + 1, 2)), set(range(2, n_sets + 1, 2))
    for s, t in ((odd, even | {3}), (odd, even)):
        yield "seq312", gen_seq312(n_sets, s, t)
        for front in ("4231", "4213", "4132", "4123"):
            yield f"front4:{front}", gen_pi4_front(parse_pattern(front), n_sets, s, t)
        yield "4312", gen_4312(n_sets, s, t)
        for name in ("3142", "2143"):
            yield name, gen_3142_2143(parse_pattern(name), n_sets, s, t)


@pytest.mark.parametrize("n_sets", [4, 8, 12])  # 12: the benchmark's check size
def test_hardgen_constructions_match_the_oracle(n_sets):
    seen = set()
    for name, disj in construction_instances(n_sets):
        verdict = assert_matches_oracle(disj.stream, disj.pattern)
        assert verdict == disj.intersecting, name
        seen.add((name, verdict))
    assert len(seen) == 2 * 8  # each construction in both forms


def test_hardgen_constructions_beyond_the_oracle():
    # too long for the oracle when disjoint: the known answer decides
    for name, disj in construction_instances(60):
        report = run_baseline(disj.stream, disj.pattern)
        assert report.verdict == disj.intersecting, name
        if report.verdict:
            assert occurrence_is_valid(disj.stream, disj.pattern, report.occurrence)
        assert report.peak_cells == len(disj.stream.elements)


def test_monotone_lower_bound_pair_matches_the_oracle():
    for k, n, rho, sigma in ((4, 12, (1, 3), (1, 7)), (6, 20, (1, 5, 7, 13), (1, 5, 9, 11))):
        pattern = Pattern(range(1, k + 1))
        accepting, rejecting = gen_monotone_lb(k, n, rho, sigma)
        assert assert_matches_oracle(accepting, pattern)
        assert not assert_matches_oracle(rejecting, pattern)
        prefix = gen_monotone_lb(k, n, rho)
        assert_matches_oracle(prefix, pattern)


def test_extended_streams_match_the_oracle():
    # extend_stream(tau) contains p with a new minimum appended exactly when
    # tau contains p
    rng = random.Random(73)
    for base in ("21", "12", "312", "231", "2413"):
        pattern = parse_pattern(base)
        extended = Pattern(tuple(v + 1 for v in pattern.values) + (1,))
        for _ in range(6):
            tau = random_perm(rng.randint(2, 9), rng)
            want = contains_bruteforce(perm_instance(tau), pattern) is not None
            assert assert_matches_oracle(extend_stream(perm_instance(tau)), extended) == want


# -- independence from the oracle -----------------------------------------------------


def imported_names(path: Path, package: list[str]) -> list[str]:
    """Every module the file imports, and every name it imports from one."""
    names: list[str] = []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from ..oracle import x" and "from .. import oracle" alike
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return names


def within(name: str, module: str) -> bool:
    return name == module or name.startswith(module + ".")


def test_streaming_modules_import_nothing_from_the_oracle():
    modules = sorted(Path(streaming.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for name in imported_names(path, ["permstream", "streaming"]):
            assert not within(name, "permstream.oracle"), f"{path.name} imports {name}"


ORACLE_RUN = """\
import sys
from permstream.core import StreamInstance, StreamMode, parse_pattern
from permstream.oracle import contains_bruteforce, count_occurrences
inst = StreamInstance(4, StreamMode.PERMUTATION, (3, 1, 4, 2))
contains_bruteforce(inst, parse_pattern("312")), count_occurrences(inst, parse_pattern("21"))
print(sorted(m for m in sys.modules if m.startswith("permstream.streaming")))
"""


def test_oracle_imports_nothing_from_the_streaming_package():
    names = imported_names(Path(oracle.__file__), ["permstream"])
    assert "permstream.core" in names
    for name in names:
        assert not within(name, "permstream.streaming"), f"oracle.py imports {name}"
    # the lazy re-exports of permstream could reach a detector at run time
    proc = subprocess.run([sys.executable, "-c", ORACLE_RUN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
