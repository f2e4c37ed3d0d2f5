"""Brute-force reference semantics: containment, counting, and the split protocol.

Everything here favours obvious correctness over speed.  The detectors in
:mod:`permstream.streaming` are validated against these functions, so the two
share no code: no detector module imports this one and this one imports no
detector module (``tests/test_baseline.py`` checks both).  Containment and
counting are one exhaustive search over the pattern slots, which keeps one
scan per slot on a list, so a pattern of any length runs without
recursion.  It skips a slot
that no later value can fill, which the stream's suffix minima and maxima
decide in one step, and builds those two lists only once its scans have
covered m positions, so a search that finds an occurrence early never pays
the ``O(m)`` build (see :func:`_occurrences`).  That makes the last slot of a
pattern such as 231 cheap on a stream that avoids it, but the worst case is
still ``O(m^k)``, so desk-scale inputs (n up to a few hundred for
containment, smaller for exact counting) are the intended range.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Iterator, Sequence

from .core import (
    Frozen,
    Occurrence,
    Pattern,
    StreamInstance,
    StreamMode,
    is_order_isomorphic,
)


def _occurrences(inst: StreamInstance, pattern: Pattern) -> Iterator[tuple[int, ...]]:
    """Yield the 0-based index tuple of every occurrence of ``pattern``.

    ``inst`` is valid by construction.  The search fills pattern slots left
    to right and tries each slot's positions in increasing order, so the
    tuples come out in lexicographic order.  A slot's scan stops where a
    candidate enters the next slot and resumes once that slot's scan has
    ended, as a recursive search would, but on lists indexed by slot, so
    no Python frame is taken per slot.  The values chosen for slots 0..d-1 are
    order-isomorphic to the pattern's first d values, so the values slot d may
    take form one open interval (lo, hi), fixed once slot d - 1 is chosen: lo
    is the largest chosen value the pattern puts below slot d (0 if none), hi
    the smallest chosen value it puts above (n + 1 if none).  Each candidate
    then costs one chained comparison.

    The search does not enter a slot that no later value can fill.  With
    ``least[i]`` and ``greatest[i]`` the smallest and largest value at
    position i or later, no value from the slot's first position ``start``
    on lies in (lo, hi) when ``least[start] >= hi`` or
    ``greatest[start] <= lo``, so the slot's scan would find nothing: the
    same tuples come out in the same order.  (Slot 0 is always entered; a
    later slot starts at m - 1 at the latest, since the slots after it need
    room, so the lists need no entry past the end.)  When lo = 0 or
    hi = n + 1, as at the last slot of 123, 321, 231, 213 and 4231, the test
    decides that slot exactly; a slot bounded on both sides is skipped only
    when every later value lies on one side of it.  The two lists cost O(m)
    to build, so they are built only once the slot scans that ran to their
    end have covered more than m positions.  A scan left through a
    ``yield`` is not counted, so a search that stops at an early occurrence
    never builds them, and one that builds them has already scanned more
    than the build reads.  The worst case stays O(m^k).
    """
    values, pat = inst.elements, pattern.values
    k, m = len(pat), len(values)
    # chosen[k] and chosen[k + 1] are the two sentinels the bounds fall back to
    chosen = [0] * k + [0, inst.n + 1]
    # Slot d's bounds come from the earlier slot holding the next pattern
    # value below pat[d] and the one holding the next value above it.
    low: list[int] = []
    high: list[int] = []
    for d in range(k):
        below = [j for j in range(d) if pat[j] < pat[d]]
        above = [j for j in range(d) if pat[j] > pat[d]]
        low.append(max(below, key=pat.__getitem__, default=k))
        high.append(min(above, key=pat.__getitem__, default=k + 1))
    # the scan of each slot d up to depth began at starts[d] and is at index[d]
    index = [0] * k
    starts = [0] * k
    # the suffix minima and maxima of the docstring, empty until built
    least: list[int] = []
    greatest: list[int] = []
    scanned = 0  # positions covered by the slot scans that ran to their end
    depth, idx, lo, hi = 0, 0, 0, inst.n + 1
    stop = m - k + 1  # m - k + depth is the last index leaving room to finish
    while True:
        for idx in range(idx, stop):
            v = values[idx]
            if lo < v < hi:
                index[depth] = idx
                if depth == k - 1:
                    yield tuple(index)
                    continue
                chosen[depth] = v
                next_lo, next_hi = chosen[low[depth + 1]], chosen[high[depth + 1]]
                if least and (least[idx + 1] >= next_hi or greatest[idx + 1] <= next_lo):
                    continue  # no value past idx can fill the next slot
                break  # enter the next slot
        else:  # the scan ran to its end: resume the one before
            scanned += stop - starts[depth]
            if scanned > m and not least:
                least = list(accumulate(reversed(values), min))[::-1]
                greatest = list(accumulate(reversed(values), max))[::-1]
            if depth == 0:
                return
            depth, stop = depth - 1, stop - 1
            idx, lo, hi = index[depth] + 1, chosen[low[depth]], chosen[high[depth]]
            continue
        depth, stop = depth + 1, stop + 1
        starts[depth] = idx = idx + 1
        lo, hi = next_lo, next_hi


def contains_bruteforce(inst: StreamInstance, pattern: Pattern) -> Occurrence | None:
    """The lexicographically smallest occurrence of ``pattern``, or None.

    Position tuples are compared left to right; this is the first tuple the
    shared search yields.
    """
    first = next(_occurrences(inst, pattern), None)
    if first is None:
        return None
    values = inst.elements
    return Occurrence(
        positions=tuple(i + 1 for i in first), values=tuple(values[i] for i in first)
    )


def count_occurrences(inst: StreamInstance, pattern: Pattern) -> int:
    """Exact number of occurrences of ``pattern`` in the stream.

    Enumerates every occurrence through the same search, so the cost grows
    like C(len(stream), len(pattern)); keep inputs desk-scale.
    """
    return sum(1 for _ in _occurrences(inst, pattern))


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


def judge_report(inst: StreamInstance, pattern: Pattern, report) -> tuple[bool, bool]:
    """The oracle's verdict on ``inst``, and whether a detector's ``report``
    agrees with it: the same verdict, and any witness it reports passes
    :func:`occurrence_is_valid`.  ``detect --check`` and ``fuzz`` both judge
    a run here, so a ``fuzz`` replay file disagrees under ``detect --check``.
    """
    verdict = contains_bruteforce(inst, pattern) is not None
    occ = report.occurrence
    return verdict, verdict == report.verdict and (
        occ is None or occurrence_is_valid(inst, pattern, occ))


class SplitInput(Frozen):
    """A stream cut in two: Alice holds the prefix, Bob the suffix.

    Together the halves must form a permutation of [1..n]: the constructor
    raises the ValueError of :class:`StreamInstance` on the two joined.
    """

    __slots__ = _fields = ("n", "prefix", "suffix")
    n: int
    prefix: tuple[int, ...]
    suffix: tuple[int, ...]

    def __init__(self, n: int, prefix: tuple[int, ...], suffix: tuple[int, ...]) -> None:
        StreamInstance(n, StreamMode.PERMUTATION, prefix + suffix)
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

    def fillable(side: Sequence[int], others: set[int], first: bool) -> bool:
        # side contains pat without its first (or else its last) value, so
        # that some w in others fills that end of pat.
        rest = pat[1:] if first else pat[:-1]
        for combo in combinations(side, k - 1):
            if not is_order_isomorphic(combo, rest):
                continue
            if any(is_order_isomorphic((w, *combo) if first else (*combo, w), pat) for w in others):
                return True
        return False

    alice_bit = side_contains(split.prefix) or fillable(
        split.prefix, set(split.suffix), first=False
    )
    if alice_bit:
        return True
    return side_contains(split.suffix) or fillable(split.suffix, set(split.prefix), first=True)
