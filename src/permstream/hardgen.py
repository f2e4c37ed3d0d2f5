"""Constructive hard instances for streaming pattern detection.

Each generator here encodes a two-party set-disjointness instance
(S, T subsets of [1..n_sets]) into a stream, arranged so that the stream
contains the target pattern *exactly when* S and T intersect.  Alice's
values come first, Bob's after (one construction gives Alice a second,
final segment), and the segment boundaries are recorded so the instances
double as communication-protocol test beds: any one-pass detector must
carry enough information across each boundary to decide intersection.

The generators:

* :func:`gen_seq312` -- sequence-mode instances for 312, universe 3*n_sets;
* :func:`gen_pi4_front` -- permutation instances for 4231/4213/4132/4123,
  universe 4*n_sets, one boundary;
* :func:`gen_4312` -- permutation instances for 4312, universe 3*n_sets+1,
  two boundaries (Alice speaks again after Bob);
* :func:`gen_3142_2143` -- permutation instances for 3142/2143, universe
  4*n_sets, two boundaries;
* :func:`gen_monotone_lb` -- a pair of permutations that agree except for
  one value of an odd increasing prefix code, built so one contains the
  increasing pattern of length k and the other does not;
* :func:`extend_stream` -- the padding transform behind pattern-extension
  arguments: double every value, then append the odd values in increasing
  order.  The result contains sigma+x (sigma with one larger value appended)
  exactly when the original contains sigma's pattern.

All constructions are deterministic; :func:`random_subsets` supplies seeded
S, T pairs for fuzzing.
"""

from __future__ import annotations

import random
import warnings
from typing import Iterable, NamedTuple, Sequence

from .core import (
    Pattern,
    StreamInstance,
    StreamMode,
    classify_pattern,
)


class Segment(NamedTuple):
    """A contiguous run of stream positions owned by one party (1-based, inclusive)."""

    owner: str
    start: int
    end: int


class DisjInstance(NamedTuple):
    """A generated stream with its disjointness provenance."""

    pattern: Pattern
    n_sets: int
    s: frozenset[int]
    t: frozenset[int]
    stream: StreamInstance
    segments: tuple[Segment, ...]

    @property
    def intersecting(self) -> bool:
        return bool(self.s & self.t)


def _check_sets(n_sets: int, s: Iterable[int], t: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    if n_sets < 1:
        raise ValueError(f"n_sets must be at least 1, got {n_sets}")
    fs, ft = frozenset(s), frozenset(t)
    for name, subset in (("S", fs), ("T", ft)):
        bad = [i for i in subset if not 1 <= i <= n_sets]
        if bad:
            raise ValueError(f"{name} contains {bad[0]}, outside [1, {n_sets}]")
    return fs, ft


def _assemble(
    pattern: Pattern, n_sets: int, s: frozenset[int], t: frozenset[int], n: int,
    mode: StreamMode, *runs: tuple[str, list[int]],
) -> DisjInstance:
    """The instance whose stream is the ``(owner, run)`` pairs' runs in order."""
    elements: list[int] = []
    segments = []
    for owner, run in runs:
        segments.append(Segment(owner, len(elements) + 1, len(elements) + len(run)))
        elements += run
    stream = StreamInstance(n=n, mode=mode, elements=tuple(elements))
    return DisjInstance(pattern, n_sets, s, t, stream, tuple(segments))


def gen_seq312(n_sets: int, s: Iterable[int], t: Iterable[int]) -> DisjInstance:
    """Sequence-mode 312 instance over universe [1..3*n_sets].

    Alice emits the descent (3i, 3i-2) for each i in S (ascending i); Bob
    emits 3i-1 for each i in T (descending i).  A shared i yields the
    occurrence (3i, 3i-2, 3i-1); conversely any 312 needs a descent from
    Alice completed by a Bob value strictly between, forcing a shared i.
    """
    fs, ft = _check_sets(n_sets, s, t)
    alice: list[int] = []
    for i in sorted(fs):
        alice.extend((3 * i, 3 * i - 2))
    bob = [3 * i - 1 for i in sorted(ft, reverse=True)]
    return _assemble(
        classify_pattern((3, 1, 2)), n_sets, fs, ft, 3 * n_sets, StreamMode.DISTINCT_SEQUENCE,
        ("alice", alice), ("bob", bob),
    )


_FRONT4 = {(4, 2, 3, 1), (4, 2, 1, 3), (4, 1, 3, 2), (4, 1, 2, 3)}


def gen_pi4_front(
    pattern: Pattern, n_sets: int, s: Iterable[int], t: Iterable[int]
) -> DisjInstance:
    """Permutation instance over [1..4*n_sets] for a pattern starting with 4.

    The universe splits into n_sets blocks of four values.  In block i Alice
    emits the pair (pi(1), pi(2)) in pattern order when i is in S, swapped
    otherwise; Bob does the same with (pi(3), pi(4)) and T, walking blocks
    upward for 4231 and downward for the other three patterns.
    """
    if pattern.values not in _FRONT4:
        raise ValueError(f"pattern {pattern} is not one of 4231, 4213, 4132, 4123")
    fs, ft = _check_sets(n_sets, s, t)
    p = pattern.values
    alice: list[int] = []
    for i in range(1, n_sets + 1):
        base = 4 * (i - 1)
        first, second = (p[0], p[1]) if i in fs else (p[1], p[0])
        alice.extend((base + first, base + second))
    bob: list[int] = []
    for i in range(1, n_sets + 1):
        d = i if p == (4, 2, 3, 1) else n_sets + 1 - i
        base = 4 * (d - 1)
        first, second = (p[2], p[3]) if d in ft else (p[3], p[2])
        bob.extend((base + first, base + second))
    return _assemble(
        pattern, n_sets, fs, ft, 4 * n_sets, StreamMode.PERMUTATION, ("alice", alice), ("bob", bob)
    )


def gen_4312(n_sets: int, s: Iterable[int], t: Iterable[int]) -> DisjInstance:
    """Permutation instance over [1..3*n_sets+1] for 4312, with two boundaries.

    Alice first emits the middle value 3(i-1)+2 of every block i *not* in S
    (ascending), topped with the global maximum 3*n_sets+1.  Bob emits each
    block's outer pair, descending (3(i-1)+3, 3(i-1)+1) when i is in T and
    ascending otherwise.  Alice closes with the middles of her S blocks in
    descending order.  A shared block gives (max, 3, 1, 2)-shaped values;
    any occurrence is forced into that shape.
    """
    fs, ft = _check_sets(n_sets, s, t)
    top = 3 * n_sets + 1
    alice1 = [3 * (i - 1) + 2 for i in range(1, n_sets + 1) if i not in fs]
    alice1.append(top)
    bob: list[int] = []
    for i in range(1, n_sets + 1):
        base = 3 * (i - 1)
        pair = (base + 3, base + 1) if i in ft else (base + 1, base + 3)
        bob.extend(pair)
    alice2 = [3 * (i - 1) + 2 for i in sorted(fs, reverse=True)]
    return _assemble(
        classify_pattern((4, 3, 1, 2)), n_sets, fs, ft, top, StreamMode.PERMUTATION,
        ("alice", alice1), ("bob", bob), ("alice", alice2),
    )


_MID4 = {(3, 1, 4, 2), (2, 1, 4, 3)}


def gen_3142_2143(
    pattern: Pattern, n_sets: int, s: Iterable[int], t: Iterable[int]
) -> DisjInstance:
    """Permutation instance over [1..4*n_sets] for 3142 or 2143, two boundaries.

    Alice's opening run carries, per block i, the value pi(1) when i is in S
    and pi(4) otherwise; her closing run carries the other one.  Bob walks
    blocks downward emitting each block's extremes, increasing (1 then 4)
    exactly when the block is in T.  A shared block supplies all four pattern
    values; Bob's segment is built so no other increasing pair exists in it.
    """
    if pattern.values not in _MID4:
        raise ValueError(f"pattern {pattern} is not one of 3142, 2143")
    fs, ft = _check_sets(n_sets, s, t)
    p = pattern.values
    alice1 = [
        4 * (i - 1) + (p[0] if i in fs else p[3]) for i in range(1, n_sets + 1)
    ]
    bob: list[int] = []
    for block in range(n_sets, 0, -1):
        base = 4 * (block - 1)
        pair = (base + 1, base + 4) if block in ft else (base + 4, base + 1)
        bob.extend(pair)
    alice2 = [
        4 * (i - 1) + (p[3] if i in fs else p[0]) for i in range(1, n_sets + 1)
    ]
    return _assemble(
        pattern, n_sets, fs, ft, 4 * n_sets, StreamMode.PERMUTATION,
        ("alice", alice1), ("bob", bob), ("alice", alice2),
    )


def gen_monotone_lb(
    k: int, n: int, rho: Sequence[int], sigma: Sequence[int] | None = None
) -> StreamInstance | tuple[StreamInstance, StreamInstance]:
    """Monotone lower-bound family: two streams a one-pass detector must split.

    ``rho`` is an increasing sequence of k-2 odd values starting at 1, drawn
    from [1..n-1] with n even.  The prefix ``alpha(rho)`` lists the unused
    odd values in decreasing order, then rho itself.  Without ``sigma`` that
    prefix is returned alone (a sequence-mode instance).

    With ``sigma`` (same shape, different from rho), the shared suffix
    ``beta`` is built from the first index where they differ -- the roles are
    swapped if needed so rho holds the smaller value there.  The suffix
    serves the even values in three runs arranged so that exactly the
    rho-side stream reaches an increasing subsequence of length k:
    (alpha(rho) + beta) contains it, (alpha(sigma) + beta) does not.
    """
    if k < 3:
        raise ValueError(f"pattern length k must be at least 3, got {k}")
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")

    def check_code(name: str, code: Sequence[int]) -> tuple[int, ...]:
        vals = tuple(code)
        if len(vals) != k - 2:
            raise ValueError(f"{name} must have length k-2={k - 2}, got {len(vals)}")
        if not vals or vals[0] != 1:
            raise ValueError(f"{name} must start with 1")
        if any(v % 2 == 0 for v in vals):
            raise ValueError(f"{name} must contain only odd values")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"{name} must be strictly increasing")
        if vals[-1] > n - 1:
            raise ValueError(f"{name} exceeds the universe: {vals[-1]} > {n - 1}")
        return vals

    rho_v = check_code("rho", rho)

    def alpha(code: tuple[int, ...]) -> list[int]:
        used = set(code)
        unused = [v for v in range(n - 1, 0, -2) if v not in used]
        return unused + list(code)

    if sigma is None:
        return StreamInstance(
            n=n, mode=StreamMode.DISTINCT_SEQUENCE, elements=tuple(alpha(rho_v))
        )

    sigma_v = check_code("sigma", sigma)
    if rho_v == sigma_v:
        raise ValueError("rho and sigma must differ")
    diff = next(idx for idx, (a, b) in enumerate(zip(rho_v, sigma_v)) if a != b)
    if rho_v[diff] > sigma_v[diff]:
        rho_v, sigma_v = sigma_v, rho_v
    i = diff + 1  # 1-based index of the first difference
    r = rho_v[diff]
    if r + 2 * (k - i) - 1 > n:
        raise ValueError(
            f"universe too small: need n >= {r + 2 * (k - i) - 1} for the middle run"
        )
    beta = (
        list(range(n, r + 2 * (k - i), -2))
        + list(range(r + 1, r + 2 * (k - i), 2))
        + list(range(r - 1, 0, -2))
    )
    accepting = StreamInstance(
        n=n, mode=StreamMode.PERMUTATION, elements=tuple(alpha(rho_v) + beta)
    )
    rejecting = StreamInstance(
        n=n, mode=StreamMode.PERMUTATION, elements=tuple(alpha(sigma_v) + beta)
    )
    return accepting, rejecting


def extend_stream(inst: StreamInstance) -> StreamInstance:
    """Double every value, then append the odd values 1, 3, ..., 2n-1.

    Maps a stream over [1..n] to one over [1..2n].  The transform preserves
    containment upward: for a pattern sigma and its extension sigma+x (one
    value appended that exceeds sigma's last value, with the last step a
    descent), the output contains the extension exactly when the input
    contains sigma.
    """
    if inst.mode is StreamMode.DISTINCT_SEQUENCE:
        warnings.warn(
            "extending a sequence-mode stream: the transform is defined, but "
            "the containment equivalence is stated for permutations",
            stacklevel=2,
        )
    doubled = [2 * v for v in inst.elements]
    odds = list(range(1, 2 * inst.n, 2))
    return StreamInstance(n=2 * inst.n, mode=inst.mode, elements=tuple(doubled + odds))


def random_subsets(n_sets: int, rng: random.Random) -> tuple[frozenset[int], frozenset[int]]:
    """A seeded (S, T) pair, each element included independently with p=1/2."""
    s = frozenset(i for i in range(1, n_sets + 1) if rng.getrandbits(1))
    t = frozenset(i for i in range(1, n_sets + 1) if rng.getrandbits(1))
    return s, t
