"""Brute-force reference semantics: containment, counting, and the split protocol.

Everything here favours obvious correctness over speed.  The detectors in
:mod:`permstream.streaming` are validated against these functions, so they
deliberately share no code with them (``tests/test_baseline.py`` checks
that no detector module imports this one).  Desk-scale inputs (n up to a few
hundred for containment, smaller for exact counting) are the intended range.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .core import (
    Frozen,
    Occurrence,
    Pattern,
    StreamInstance,
    StreamMode,
    classify_pattern,
    is_order_isomorphic,
    rank_normalize,
    require_valid_stream,
)


def contains_bruteforce(inst: StreamInstance, pattern: Pattern) -> Occurrence | None:
    """Search for the lexicographically smallest occurrence of ``pattern``.

    Position tuples are compared left to right, so the returned occurrence is
    the first one found by a depth-first search that always advances the
    earliest undecided position.  Returns None when the stream avoids the
    pattern.
    """
    require_valid_stream(inst)
    values = inst.elements
    pat = pattern.values
    k = len(pat)
    m = len(values)
    if k > m:
        return None

    # For the value at pattern slot d, which earlier slots must sit below it
    # and which above it.
    below = [[j for j in range(d) if pat[j] < pat[d]] for d in range(k)]
    above = [[j for j in range(d) if pat[j] > pat[d]] for d in range(k)]

    chosen_pos: list[int] = []
    chosen_val: list[int] = []

    def extend(depth: int, start: int) -> bool:
        if depth == k:
            return True
        # m - (k - depth) is the last index leaving room to finish.
        for idx in range(start, m - (k - depth) + 1):
            v = values[idx]
            if all(chosen_val[j] < v for j in below[depth]) and all(
                chosen_val[j] > v for j in above[depth]
            ):
                chosen_pos.append(idx + 1)
                chosen_val.append(v)
                if extend(depth + 1, idx + 1):
                    return True
                chosen_pos.pop()
                chosen_val.pop()
        return False

    if extend(0, 0):
        return Occurrence(positions=tuple(chosen_pos), values=tuple(chosen_val))
    return None


def count_occurrences(inst: StreamInstance, pattern: Pattern) -> int:
    """Exact number of occurrences of ``pattern`` in the stream.

    Enumerates every order-isomorphic subsequence, so the cost grows like
    C(len(stream), len(pattern)); keep inputs desk-scale.
    """
    require_valid_stream(inst)
    values = inst.elements
    pat = pattern.values
    k = len(pat)
    m = len(values)
    below = [[j for j in range(d) if pat[j] < pat[d]] for d in range(k)]
    above = [[j for j in range(d) if pat[j] > pat[d]] for d in range(k)]
    chosen_val: list[int] = []

    def count_from(depth: int, start: int) -> int:
        if depth == k:
            return 1
        total = 0
        for idx in range(start, m - (k - depth) + 1):
            v = values[idx]
            if all(chosen_val[j] < v for j in below[depth]) and all(
                chosen_val[j] > v for j in above[depth]
            ):
                chosen_val.append(v)
                total += count_from(depth + 1, idx + 1)
                chosen_val.pop()
        return total

    return count_from(0, 0)


def occurrence_is_valid(
    inst: StreamInstance, pattern: Pattern, occ: Occurrence
) -> bool:
    """Check a reported occurrence against the stream it came from.

    The witness values must be order-isomorphic to the pattern, the known
    positions must carry exactly the claimed values, and a future-marked
    final value must indeed appear in the stream *after* the last known
    position.
    """
    if len(occ.positions) != len(pattern):
        return False
    if not is_order_isomorphic(occ.values, pattern.values):
        return False
    for pos, val in zip(occ.positions, occ.values):
        if pos is None:
            continue
        if not 1 <= pos <= len(inst.elements) or inst.elements[pos - 1] != val:
            return False
    if occ.has_future:
        known = [p for p in occ.positions if p is not None]
        last_known = known[-1] if known else 0
        if occ.values[-1] not in inst.elements[last_known:]:
            return False
    return True


class SplitInput(Frozen):
    """A stream cut in two: Alice holds the prefix, Bob the suffix.

    Together the halves must form a permutation of [1..n].
    """

    __slots__ = _fields = ("n", "prefix", "suffix")
    n: int
    prefix: tuple[int, ...]
    suffix: tuple[int, ...]

    def __init__(self, n: int, prefix: tuple[int, ...], suffix: tuple[int, ...]) -> None:
        require_valid_stream(StreamInstance(n, StreamMode.PERMUTATION, prefix + suffix))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "suffix", suffix)


def split_protocol(split: SplitInput, pattern: Pattern) -> bool:
    """One-way, one-bit containment protocol for patterns of length <= 3.

    Alice sends a single bit: whether her prefix alone already contains the
    pattern, or contains all but the last pattern value in a way that some
    value on Bob's side could complete.  Bob outputs that bit OR'd with what
    he can see locally: the pattern entirely inside his suffix, or all but
    the *first* pattern value in his suffix started by some value on Alice's
    side.  (Each party knows the other's value *set*, since the two halves
    partition [1..n].)  The result always equals brute-force containment of
    the concatenated stream.
    """
    k = len(pattern)
    if k > 3:
        raise ValueError(f"split protocol handles |pattern| <= 3, got {k}")
    pat = pattern.values

    def side_contains(side: Sequence[int]) -> bool:
        inst = StreamInstance(
            n=split.n, mode=StreamMode.DISTINCT_SEQUENCE, elements=tuple(side)
        )
        return contains_bruteforce(inst, pattern) is not None

    def completable_by(side: Sequence[int], others: set[int]) -> bool:
        # side contains pat[:-1] so that some w in others finishes pat.
        for combo in combinations(side, k - 1):
            if not is_order_isomorphic(combo, pat[:-1]):
                continue
            if any(is_order_isomorphic(combo + (w,), pat) for w in others):
                return True
        return False

    def startable_by(side: Sequence[int], others: set[int]) -> bool:
        # side contains pat[1:] so that some w in others starts pat.
        for combo in combinations(side, k - 1):
            if not is_order_isomorphic(combo, pat[1:]):
                continue
            if any(is_order_isomorphic((w,) + combo, pat) for w in others):
                return True
        return False

    alice_bit = side_contains(split.prefix) or completable_by(
        split.prefix, set(split.suffix)
    )
    if alice_bit:
        return True
    return side_contains(split.suffix) or startable_by(split.suffix, set(split.prefix))


def subsequence_pattern(values: Sequence[int]) -> Pattern:
    """The pattern a subsequence realizes (rank-normalized)."""
    return classify_pattern(rank_normalize(values))
