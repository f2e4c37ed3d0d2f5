"""Seeded workload generators and exact linear-time containment checkers.

Everything here is the benchmark's own code.  The workloads must not move
when the program's CLI or generators are refactored, and the expected
verdicts must come from code that shares nothing with the detectors or the
brute-force oracle, so nothing in this module imports ``permstream``.

Checkers
    ``contains(seq, pattern)`` decides containment of a 3-pattern or of a
    monotone pattern in a sequence of distinct integers in linear time:
    the stack-sort test for the four non-monotone 3-patterns (all reduced to
    231 by reversal and negation) and a greedy cover by k-1 decreasing runs
    for ``12...k`` (``k...1`` by negation).

Generators
    worst-case adversaries, random avoiders (231 from a random Dyck word by
    the stack-sortable decomposition, 312 as its inverse, 132 and 213 as
    complements, ``12...k`` as k-1 merged decreasing runs) and late near
    misses (an avoider with one occurrence planted in its last few percent).

Inputs are cached per (workload, seed) under ``.perfbench_cache/`` with a
sha256 per file, so generation never falls inside a measured interval.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
from typing import Sequence

#: bump when a generator changes, so stale caches are rebuilt
GEN_VERSION = 2
#: input sets kept per workload (an early-accept set is about 41 MB); the
#: least recently used ones beyond this are removed
KEEP_INPUTS = 4

NATIVE = ("123", "312", "231")
MIRROR = {"123": "321", "312": "132", "231": "213"}
PATTERNS3 = ("123", "321", "312", "132", "231", "213")


# ---------------------------------------------------------------------------
# exact checkers
# ---------------------------------------------------------------------------


def avoids_231(seq: Sequence[int]) -> bool:
    """Stack-sort test: a sequence is stack-sortable exactly when it avoids 231."""
    stack: list[int] = []
    last = -math.inf
    for x in seq:
        while stack and stack[-1] < x:
            y = stack.pop()
            if y < last:
                return False
            last = y
        stack.append(x)
    while stack:
        y = stack.pop()
        if y < last:
            return False
        last = y
    return True


def has_increasing(seq: Sequence[int], k: int) -> bool:
    """True when ``seq`` has an increasing subsequence of length ``k``.

    Greedy cover by decreasing runs: each value joins the first run whose last
    value is above it.  The run tails stay increasing left to right, and the
    cover is minimal, so a k-th run is needed exactly when ``12...k`` occurs.
    """
    tails: list[int] = []
    for x in seq:
        for i, tail in enumerate(tails):
            if tail > x:
                tails[i] = x
                break
        else:
            tails.append(x)
            if len(tails) >= k:
                return True
    return False


def contains(seq: Sequence[int], pattern: str) -> bool:
    """Exact containment of a 3-pattern or a monotone pattern (digits form)."""
    k = len(pattern)
    if pattern == "".join(str(i) for i in range(1, k + 1)):
        return has_increasing(seq, k)
    if pattern == "".join(str(i) for i in range(k, 0, -1)):
        return has_increasing([-x for x in seq], k)
    # 213 is the complement of 231, 132 its reverse, 312 both.
    if pattern == "231":
        return not avoids_231(seq)
    if pattern == "213":
        return not avoids_231([-x for x in seq])
    if pattern == "132":
        return not avoids_231(seq[::-1])
    if pattern == "312":
        return not avoids_231([-x for x in reversed(seq)])
    raise ValueError(f"no linear-time checker for pattern {pattern}")


# ---------------------------------------------------------------------------
# generators (permutations of 1..n as lists)
# ---------------------------------------------------------------------------


def complement(perm: Sequence[int]) -> list[int]:
    n = len(perm)
    return [n + 1 - v for v in perm]


def inverse(perm: Sequence[int]) -> list[int]:
    inv = [0] * len(perm)
    for pos, v in enumerate(perm, start=1):
        inv[v - 1] = pos
    return inv


def random_dyck(n: int, rng: random.Random) -> list[int]:
    """A uniform Dyck word of semilength n (+1 up, -1 down), by the cycle lemma."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    # The rotation starting just after the first minimum prefix sum is the
    # unique one that stays non-negative until its final down step.
    low, cut, height = 0, 0, 0
    for i, s in enumerate(steps, start=1):
        height += s
        if height < low:
            low, cut = height, i
    rotated = steps[cut:] + steps[:cut]
    return rotated[:-1]


def avoider_231(n: int, rng: random.Random) -> list[int]:
    """A random 231-avoider from the stack-sortable decomposition.

    A 231-avoider of [lo..hi] is alpha, hi, beta with alpha a 231-avoider of
    the lowest values and beta one of the rest; the Dyck word's first-return
    decomposition U A D B picks the split, |alpha| = semilength(A).
    """
    word = random_dyck(n, rng)
    match = [0] * len(word)
    opened: list[int] = []
    for i, s in enumerate(word):
        if s > 0:
            opened.append(i)
        else:
            match[opened.pop()] = i
    out: list[int] = []
    # work items: (start, end, lo) for a Dyck segment, or (-1, value, 0)
    work = [(0, len(word), 1)]
    while work:
        start, end, lo = work.pop()
        if start < 0:
            out.append(end)
            continue
        if start == end:
            continue
        m = match[start]
        j = (m - start - 1) // 2
        size = (end - start) // 2
        work.append((m + 1, end, lo + j))
        work.append((-1, lo + size - 1, 0))
        work.append((start + 1, m, lo))
    return out


def avoider_increasing(n: int, k: int, rng: random.Random) -> list[int]:
    """A random ``12...k``-avoider: k-1 decreasing runs merged at random."""
    runs: list[list[int]] = [[] for _ in range(k - 1)]
    for v in range(1, n + 1):
        runs[rng.randrange(k - 1)].append(v)
    labels = [r for r, run in enumerate(runs) for _ in run]
    rng.shuffle(labels)
    return [runs[r].pop() for r in labels]


def random_avoider(pattern: str, n: int, rng: random.Random) -> list[int]:
    if pattern == "123":
        return avoider_increasing(n, 3, rng)
    if pattern == "231":
        return avoider_231(n, rng)
    if pattern == "312":
        return inverse(avoider_231(n, rng))
    raise ValueError(f"{pattern} is not a native pattern")


def window_width(n: int) -> int:
    """The 312 detector's documented window width, sqrt(n log2 n)."""
    return max(1, math.isqrt(int(n * math.log2(n)))) if n > 1 else 1


def adversary(pattern: str, n: int) -> list[int]:
    """The rejecting stream ``permstream bench`` uses as a native pattern's adversary.

    123: the decreasing stream; 231: the increasing stream; 312: ascending
    blocks of descending values, one value wider than the detector's window,
    so every block start undercuts the window and stores a pair.  Copied here
    so that a change to the CLI cannot change the workload.
    """
    if pattern == "123":
        return list(range(n, 0, -1))
    if pattern == "231":
        return list(range(1, n + 1))
    if pattern == "312":
        block = window_width(n) + 1
        out: list[int] = []
        for lo in range(1, n + 1, block):
            out.extend(range(min(lo + block - 1, n), lo - 1, -1))
        return out
    raise ValueError(f"{pattern} is not a native pattern")


def tail_start(n: int, tail: float) -> int:
    """First position of the last ``tail`` share of a stream (at least 8 values)."""
    return max(0, n - max(8, int(n * tail)))


def near_miss(pattern: str, n: int, rng: random.Random, tail: float) -> tuple[list[int], list[int]]:
    """A random avoider and a copy with one occurrence planted in its last ``tail`` share.

    The occurrence comes from swapping two values after ``tail_start``.  The
    untouched prefix avoids the pattern, so any occurrence (and any
    acceptance, even one through a future witness) needs a swapped value.
    """
    start = tail_start(n, tail)
    while True:
        avoider = random_avoider(pattern, n, rng)
        for _ in range(100):
            i, j = rng.sample(range(start, n), 2)
            planted = list(avoider)
            planted[i], planted[j] = planted[j], planted[i]
            if contains(planted, pattern):
                return avoider, planted


def uniform_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

FULL_PASS_N = 20_000
FULL_PASS_TAIL = 0.03
EARLY_ACCEPT_N = 1_000_000
#: prefix long enough for the checker to prove a random stream contains every
#: 3-pattern; containment in a prefix implies containment in the stream.
EARLY_PROOF_PREFIX = 4_000
CHECK_NSETS = 12
CHECK_PERM_N = 64
CHECK_PERM_TAIL = 0.1
CHECK_CONSTRUCTIONS = (
    "front4:4231", "front4:4213", "front4:4132", "front4:4123",
    "4312", "3142", "2143", "seq312",
)


def _rng(workload: str, seed: int, name: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{name}")


def full_pass_streams(seed: int, n: int = FULL_PASS_N):
    """(name, pattern, values, intended verdict, proof prefix) for full-pass.

    Each native pattern gets its adversary and a late near miss, and its
    complement pattern gets the complemented pair.  A plain random avoider is
    left out to fit one pass into a run: the near miss is such an avoider
    for all but its last few percent.
    """
    for native in NATIVE:
        rng = _rng("full-pass", seed, native)
        shapes = (
            ("adversary", adversary(native, n), False),
            ("nearmiss", near_miss(native, n, rng, FULL_PASS_TAIL)[1], True),
        )
        for shape, values, intended in shapes:
            for pattern, stream in ((native, values), (MIRROR[native], complement(values))):
                yield f"{pattern}-{shape}", pattern, stream, intended, None


def early_accept_streams(seed: int, n: int = EARLY_ACCEPT_N):
    """Uniform random permutations; each complement pattern gets the complement."""
    for native in NATIVE:
        values = uniform_permutation(n, _rng("early-accept", seed, native))
        for pattern, stream in ((native, values), (MIRROR[native], complement(values))):
            yield f"{pattern}-random", pattern, stream, True, EARLY_PROOF_PREFIX


def construction_detector(construction: str, nsets: int) -> tuple[str, int, str]:
    """(pattern, n, mode) of a hardgen construction, as the generator documents it."""
    if construction == "seq312":
        return "312", 3 * nsets, "seq"
    if construction.startswith("front4:"):
        return construction[7:], 4 * nsets, "perm"
    if construction == "4312":
        return "4312", 3 * nsets + 1, "perm"
    return construction, 4 * nsets, "perm"


def check_items(seed: int, trials: int = 24, perm_trials: int = 12) -> list[dict]:
    """Small instances for the check workload.

    Hardgen trials draw S as nsets/2 values of [1..nsets].  Every other
    trial draws T as nsets/3 values from outside S, so that half of the
    trials reach the rejecting search (random halves almost always
    intersect); the others draw T as nsets/2 values that meet S.  Fixed
    sizes and an exact half keep the work of a pass alike from seed to seed.
    The expected verdict is ``S & T != {}``.
    The 3-pattern group adds random avoiders and late near misses at n=64,
    whose verdicts the linear-time checkers decide.
    """
    rng = _rng("check", seed, "items")
    items: list[dict] = []
    for construction in CHECK_CONSTRUCTIONS:
        for trial in range(trials):
            universe = range(1, CHECK_NSETS + 1)
            s = set(rng.sample(universe, CHECK_NSETS // 2))
            if trial % 2:
                t = set(rng.sample(sorted(set(universe) - s), CHECK_NSETS // 3))
            else:
                t = set()
                while not t & s:
                    t = set(rng.sample(universe, CHECK_NSETS // 2))
            items.append({
                "name": f"{construction}-{trial}", "kind": "hardgen",
                "construction": construction, "nsets": CHECK_NSETS,
                "s": sorted(s), "t": sorted(t), "expected": bool(s & t),
            })
    for native in NATIVE:
        for trial in range(perm_trials):
            avoider, planted = near_miss(native, CHECK_PERM_N, rng, CHECK_PERM_TAIL)
            for shape, values in (("avoider", avoider), ("nearmiss", planted)):
                for pattern, stream in ((native, values), (MIRROR[native], complement(values))):
                    items.append({"name": f"{pattern}-{shape}-{trial}", "kind": "perm",
                                  "pattern": pattern, "n": CHECK_PERM_N, "values": stream,
                                  "expected": contains(stream, pattern)})
    return items


# ---------------------------------------------------------------------------
# stream files and the per-(workload, seed) cache
# ---------------------------------------------------------------------------


def stream_text(n: int, values: Sequence[int], comment: str) -> str:
    """The program's documented stream file format, 20 values per line."""
    lines = [f"# {comment}", f"n={n} mode=perm"]
    for i in range(0, len(values), 20):
        lines.append(" ".join(map(str, values[i : i + 20])))
    return "\n".join(lines) + "\n"


def read_values(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    return [int(tok) for line in lines[1:] for tok in line.split()]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cached(directory: str) -> dict | None:
    try:
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return None
    if manifest.get("version") != GEN_VERSION:
        return None
    for entry in manifest["files"]:
        path = os.path.join(directory, entry["file"])
        if not os.path.exists(path) or _sha256(path) != entry["sha256"]:
            return None
    return manifest


def _write_manifest(directory: str, manifest: dict) -> dict:
    manifest["version"] = GEN_VERSION
    manifest["files"] = [
        {"file": name, "sha256": _sha256(os.path.join(directory, name))}
        for name in manifest.pop("_files")
    ]
    text = json.dumps(manifest, indent=1)
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return json.loads(text)


def _evict(cache_root: str, workload: str) -> None:
    prefix = f"{workload}-s"
    dirs = [os.path.join(cache_root, d) for d in os.listdir(cache_root) if d.startswith(prefix)]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for stale in dirs[KEEP_INPUTS:]:
        shutil.rmtree(stale, ignore_errors=True)


def prepare(workload: str, seed: int, cache_root: str) -> tuple[str, dict]:
    """Generate (or reuse) the workload's inputs; return their directory and manifest.

    Stream workloads get one file per stream and a manifest entry with the
    pattern, value count and expected verdict.  Every expected verdict is
    recomputed by the exact checkers, which must agree with the shape's
    intended verdict, so a generator bug stops the run instead of skewing it.
    """
    directory = os.path.join(cache_root, f"{workload}-s{seed}")
    manifest = _cached(directory)
    if manifest is not None:
        os.utime(directory)
        _evict(cache_root, workload)
        return directory, manifest
    os.makedirs(directory, exist_ok=True)
    _evict(cache_root, workload)
    if workload == "check":
        items = check_items(seed)
        with open(os.path.join(directory, "items.json"), "w", encoding="utf-8") as fh:
            json.dump(items, fh)
        detectors = {construction_detector(c, CHECK_NSETS) for c in CHECK_CONSTRUCTIONS}
        detectors |= {(p, CHECK_PERM_N, "perm") for p in PATTERNS3}
        return directory, _write_manifest(directory, {"workload": workload, "seed": seed,
                                           "detectors": sorted(detectors),
                                           "_files": ["items.json"]})
    source = full_pass_streams if workload == "full-pass" else early_accept_streams
    streams = []
    for name, pattern, values, intended, proof_prefix in source(seed):
        probe = values if proof_prefix is None else values[:proof_prefix]
        verdict = contains(probe, pattern)
        n = len(values)
        if len(set(values)) != n or min(values) != 1 or max(values) != n or verdict != intended:
            raise RuntimeError(f"generator error: {workload} seed {seed} stream {name}")
        fname = f"{name}.txt"
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(stream_text(len(values), values, f"perfbench {workload} seed={seed} {name}"))
        streams.append({"name": name, "pattern": pattern, "file": fname,
                        "values": len(values), "expected": verdict})
    detectors = sorted({(s["pattern"], s["values"], "perm") for s in streams})
    return directory, _write_manifest(directory, {"workload": workload, "seed": seed, "streams": streams,
                                       "detectors": detectors,
                                       "_files": [s["file"] for s in streams]})


if __name__ == "__main__":
    import sys

    print(prepare(sys.argv[1], int(sys.argv[2]), sys.argv[3])[0])
