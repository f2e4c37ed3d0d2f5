"""Shared helpers for the test suite: independent re-implementations used as
cross-checks, plus small enumeration utilities."""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations

from permstream import Pattern, StreamInstance, StreamMode


def all_patterns(*lengths: int) -> list[Pattern]:
    """Every pattern of each requested length."""
    out = []
    for k in lengths:
        for p in permutations(range(1, k + 1)):
            out.append(Pattern(p))
    return out


def perm_instance(values) -> StreamInstance:
    return StreamInstance(
        n=len(values), mode=StreamMode.PERMUTATION, elements=tuple(values)
    )


def seq_instance(values, n: int) -> StreamInstance:
    return StreamInstance(
        n=n, mode=StreamMode.DISTINCT_SEQUENCE, elements=tuple(values)
    )


def random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def lis_length(values) -> int:
    """Independent O(n^2) longest-increasing-subsequence dynamic program."""
    best = [0] * len(values)
    for i, v in enumerate(values):
        best[i] = 1 + max(
            (best[j] for j in range(i) if values[j] < v), default=0
        )
    return max(best, default=0)


def contains_reference(values, pattern_values) -> bool:
    """Independent recursive containment check (no shared code with oracle)."""
    k = len(pattern_values)

    def grow(chosen: list[int], start: int) -> bool:
        d = len(chosen)
        if d == k:
            return True
        for i in range(start, len(values)):
            v = values[i]
            ok = all(
                (chosen[j] < v) == (pattern_values[j] < pattern_values[d])
                for j in range(d)
            )
            if ok and grow(chosen + [v], i + 1):
                return True
        return False

    return grow([], 0)
