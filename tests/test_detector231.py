from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import permutations

import pytest

from permstream import (
    Detector231,
    StreamInstance,
    StreamMode,
    complement,
    contains_bruteforce,
    new_detector,
    parse_pattern,
)
from permstream.streaming.strips231 import scan_231, widest_gap_hull
from conftest import perm_instance, random_perm

P231 = parse_pattern("231")


def run_and_finish(det, values):
    for v in values:
        if det.push(v):
            return True
    return det.finish().verdict


# -- the within-strip scan ---------------------------------------------------------


def highest_starter(seq):
    """O(s^2) reference: the highest value with a higher value after it, or 0."""
    return max((a for i, a in enumerate(seq) if any(b > a for b in seq[i + 1 :])), default=0)


def test_scan_231_finds_a_231_or_the_highest_starter():
    assert scan_231([3, 5, 2]) == -1
    assert scan_231([2, 3, 1]) == -1
    assert scan_231([1, 2, 3]) == 2
    assert scan_231([1, 3, 2, 4]) == 3  # the last value popped, not the first
    assert scan_231([3, 2, 1]) == 0
    assert scan_231([]) == 0
    for k in range(1, 7):
        for tau in permutations(range(1, k + 1)):
            contains = contains_bruteforce(perm_instance(tau), P231) is not None
            assert scan_231(list(tau)) == (-1 if contains else highest_starter(tau)), tau


def contains_213_quadratic(seq):
    """O(s^2) reference: some earlier a and later c > a around a lower b."""
    for i, a in enumerate(seq):
        lowest_between = math.inf
        for c in seq[i + 1 :]:
            if c > a and lowest_between < a:
                return True
            lowest_between = min(lowest_between, c)
    return False


def gap_hull_quadratic(seq):
    """O(s^2) reference hull of the increasing pairs with an outside value between."""
    inside = set(seq)
    top = max(seq, default=0)
    # outside_upto[x] = values in [1..x] that are not in seq
    outside_upto = [0] * (top + 1)
    for x in range(1, top + 1):
        outside_upto[x] = outside_upto[x - 1] + (x not in inside)
    lows, highs = [], []
    for i, a in enumerate(seq):
        for b in seq[i + 1 :]:
            if a < b and outside_upto[b - 1] - outside_upto[a] > 0:
                lows.append(a)
                highs.append(b)
    return (min(lows), max(highs)) if lows else None


def avoider_231(n, rng):
    """A random 231-avoider: alpha, n, beta with alpha below beta, recursively."""
    if n == 0:
        return []
    k = rng.randrange(n)
    return avoider_231(k, rng) + [n] + [x + k for x in avoider_231(n - 1 - k, rng)]


def mirror(seq, top):
    """The complement v -> top+1-v of a sequence of values from [1..top]."""
    return [top + 1 - x for x in seq]


def scanned_sequences():
    """All sequences of distinct values from [1..7] up to length 7, then seeded length-150 ones.

    The sequences are drawn in complement space, where the quadratic
    references above look for 213; the scans under test get their mirror.
    """
    for length in range(8):
        yield from (list(seq) for seq in permutations(range(1, 8), length))
    rng = random.Random(44)
    for _ in range(8):
        values = sorted(rng.sample(range(1, 301), 150))
        avoider = [values[150 - x] for x in avoider_231(150, rng)]  # a 213-avoider
        near = list(avoider)
        i = rng.randrange(100, 149)
        near[i], near[i + 1] = near[i + 1], near[i]
        shuffled = list(values)
        rng.shuffle(shuffled)
        yield from (avoider, near, shuffled)


def test_scan_231_and_gap_hull_mirror_the_quadratic_references():
    found = hulls = 0
    for seq in scanned_sequences():
        top = max(seq, default=0)
        values = mirror(seq, top)
        want = contains_213_quadratic(seq)
        assert scan_231(values) == (-1 if want else highest_starter(values)), seq
        hull = gap_hull_quadratic(seq)
        want_hull = None if hull is None else tuple(mirror(reversed(hull), top))
        assert widest_gap_hull(values, sorted(values)) == want_hull, seq
        found += want
        hulls += hull is not None
    assert found and hulls  # both outcomes occur


# -- hand-traced runs -----------------------------------------------------------------


def test_high_starter_accepts_across_strips():
    # The first strip (2,4) stores the ascent starter 2, and the later
    # 1 < 2 completes a witness at the third push.
    det = Detector231(4)
    assert det.strip_size == 2
    assert not det.push(2)
    assert not det.push(4)
    assert det._high_starter == 2
    assert det.push(1)
    assert contains_bruteforce(perm_instance((2, 4, 1, 3)), P231) is not None


def test_gap_record_summarizes_widest_pair():
    # Strip (14,11,6,3) in a 16-universe: the pair (6,3) counts because
    # 6-3-1 = 2 exceeds the 0 buffered values between them (so 4 or 5 lives
    # outside the strip); the gap entry keeps the hull of all such pairs.
    det = Detector231(16)
    assert det.strip_size == 4
    for v in (14, 11, 6, 3):
        assert not det.push(v)
    assert (det._gap_lo, det._gap_hi) == ([3], [14])
    assert det._seen == [2]  # 6 and 11 sit between the hull endpoints
    assert det._high_starter == 0  # no ascent yet


def test_end_check_fires_when_gap_value_appeared_earlier():
    # The 231 (3,4,1) spans the strips (5,3) and (4,1): the second strip's
    # gap entry keeps the pair (4,1), and the 3 between them came earlier, so
    # only the end-of-stream counters can see it.
    inst = perm_instance((5, 3, 4, 1, 2))
    det = Detector231(5)
    assert not any(det.push(v) for v in inst.elements)
    assert (det._gap_lo, det._gap_hi) == ([3, 1], [5, 4])
    assert det.finish().verdict is True
    assert contains_bruteforce(inst, P231) is not None


def test_increasing_stream_rejects():
    det = Detector231(8)
    assert run_and_finish(det, range(1, 9)) is False


def test_decreasing_stream_rejects():
    det = Detector231(8)
    assert run_and_finish(det, range(8, 0, -1)) is False


# -- black-box equivalence -------------------------------------------------------------


def test_matches_oracle_on_all_small_permutations():
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            det = Detector231(n)
            verdict = run_and_finish(det, tau)
            want = contains_bruteforce(perm_instance(tau), P231) is not None
            assert verdict == want, tau


def test_213_via_complement_adapter_matches_oracle():
    p213 = parse_pattern("213")
    for n in range(1, 7):
        for tau in permutations(range(1, n + 1)):
            det = new_detector(p213, n, StreamMode.PERMUTATION)
            verdict = run_and_finish(det, tau)
            want = contains_bruteforce(perm_instance(tau), p213) is not None
            assert verdict == want, tau


def all_avoiders_231(n):
    """Every 231-avoider of [1..n]: alpha, n, beta with alpha below beta, recursively."""
    if n == 0:
        return [()]
    return [
        (*alpha, n, *(x + k for x in beta))
        for k in range(n)
        for alpha in all_avoiders_231(k)
        for beta in all_avoiders_231(n - 1 - k)
    ]


def oracle_231(seq):
    """The oracle's verdict on a sequence of distinct values."""
    inst = StreamInstance(max(seq), StreamMode.DISTINCT_SEQUENCE, seq)
    return contains_bruteforce(inst, P231) is not None


def oracle_accept(stream, contains):
    """The value at which the strips design must accept, from the oracle alone.

    It accepts at the first value that completes a 231 whose first two
    values lie in one strip closed before it, or at the end of a strip that
    holds a 231 of its own.  A closed strip holds none, so the first case
    is the oracle's verdict (``contains``) on the strip followed by the
    value.  Returns (the position or None, whether a strip's own 231
    decided it).
    """
    s = max(1, math.isqrt(len(stream)))
    closed = []
    for t, v in enumerate(stream, start=1):
        if any(contains((*strip, v)) for strip in closed):
            return t, False
        if t % s == 0:
            strip = stream[t - s : t]
            if contains(strip):
                return t, True
            closed.append(strip)
    return None, False


def verdict_and_accept(pattern, stream):
    det = new_detector(pattern, len(stream))
    accepted = det._feed(stream)
    return det.finish().verdict, det.pushes if accepted else None


@pytest.mark.parametrize("n", [9, 10])
def test_matches_oracle_on_every_avoider_and_a_swap_of_each(n):
    # strips of 3 values (and at n = 10 a last strip of one, closed at
    # finish), so a strip can hold a 231 and the in-strip scan decides
    p213 = parse_pattern("213")
    rng = random.Random(n)
    strips_contain = lru_cache(maxsize=None)(oracle_231)  # strips recur across streams
    by_scan = 0
    for avoider in all_avoiders_231(n):
        i, j = rng.sample(range(n), 2)
        swapped = list(avoider)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        for stream in (avoider, tuple(swapped)):
            accept, scanned = oracle_accept(stream, strips_contain)
            by_scan += scanned
            assert verdict_and_accept(P231, stream) == (oracle_231(stream), accept), stream
            # 213 on the complement runs the same strips through the adapter
            mirrored = complement(stream, n)
            want = contains_bruteforce(perm_instance(mirrored), p213) is not None
            assert verdict_and_accept(p213, mirrored) == (want, accept), stream
    assert by_scan > 100


def test_verdict_only_reporting():
    rng = random.Random(41)
    for _ in range(100):
        tau = random_perm(30, rng)
        det = Detector231(30)
        for v in tau:
            if det.push(v):
                break
        rep = det.finish()
        assert rep.occurrence is None


# -- strip records against the whole stream ----------------------------------------


def reference_run(values, n):
    """Replay the strip design from the whole stream, sharing no detector code.

    The model runs the 213 design on the complement w = n+1-v of the stream
    and maps each record back through v = n+1-w: a gap (lo, hi) becomes
    (n+1-hi, n+1-lo), the strip minimum ``low`` the maximum ``high``, and
    ``high_after`` becomes ``low_after``; so the detector, which works on the
    values themselves, must be its exact mirror.

    Returns the push that accepts (None when the run reaches finish), the
    final record fields per closed 231-free strip, and the expected
    ``peak_cells`` and ``structure_peaks``.
    """
    s = max(1, math.isqrt(n))
    ws = [n + 1 - v for v in values]  # complement space: 231 becomes 213
    strips = [ws[i : i + s] for i in range(0, len(ws), s)]
    records = []
    for start in range(0, len(ws), s):
        strip = ws[start : start + s]
        hull = gap_hull_quadratic(strip)
        low = min(strip)
        low_at = ws.index(low)
        above = [w for w in ws[low_at + 1 :] if w > low]
        records.append(
            {
                "gap_lo": n + 1 - hull[1] if hull else None,
                "gap_hi": n + 1 - hull[0] if hull else None,
                "seen": sum(hull[0] < w < hull[1] for w in ws[start:]) if hull else 0,
                "high": n + 1 - low,
                "low_after": n + 1 - max(above) if above else None,
                "seen_below": len(above),
                # the push after which low_after is known; None if never
                "flip": next((t for t in range(low_at + 2, len(ws) + 1) if ws[t - 1] > low), None),
            }
        )

    def starts_descent(strip, i):
        return any(w < strip[i] for w in strip[i + 1 :])

    accept = None
    low_starter = n + 1
    for t, w in enumerate(ws, start=1):
        if w > low_starter:
            accept = t
            break
        if t % s == 0:
            strip = strips[t // s - 1]
            if contains_213_quadratic(strip):
                accept = t
                break
            starters = [x for i, x in enumerate(strip) if starts_descent(strip, i)]
            low_starter = min([low_starter, *starters])

    def cells_after(t, buffered, closed):
        total = 1 + buffered
        for rec in records[:closed]:
            total += (3 if rec["gap_lo"] is not None else 0) + 2
            total += rec["low_after"] is not None and rec["flip"] <= t
        return total

    metered = []  # (cells, buffer, strips) after every non-accepting push
    for t in range(1, (accept or len(ws) + 1)):
        closed = t // s
        buffered = t - closed * s
        metered.append((cells_after(t, buffered, closed), buffered, closed))
    if accept is None and len(ws) % s and not contains_213_quadratic(strips[-1]):
        metered.append((cells_after(len(ws), 0, len(strips)), 0, len(strips)))
    peaks = {"buffer": max(m[1] for m in metered), "strips": max(m[2] for m in metered)}
    return accept, records, max(m[0] for m in metered), peaks


def reference_routes(values):
    """Fresh detectors run over ``values``: by ``push``, then by ``_feed`` in
    batches of the whole stream, 7, s - 1, s and s + 1 values.

    Yields (route, detector, whether it accepted), each run up to its accept.
    """
    n = len(values)
    s = max(1, math.isqrt(n))
    det = Detector231(n)
    yield "push", det, any(det.push(v) for v in values)
    for size in sorted({n, 7, s - 1, s, s + 1} - {0}):
        det = Detector231(n)
        yield size, det, any(det._feed(values[i : i + size]) for i in range(0, n, size))


def check_against_reference(values):
    n = len(values)
    accept, records, peak_cells, peaks = reference_run(values, n)
    reports = []
    for route, det, accepted in reference_routes(values):
        rep = det.finish()
        where = (route, values)
        assert (det.pushes if accepted else None) == accept, where
        assert rep.peak_cells == peak_cells, where
        assert rep.structure_peaks == peaks, where
        if accept is None:
            closed = records[: len(det._high)]
            assert len(closed) >= len(records) - 1
            # part (3): an entry for each closed strip with a gap pair, in order
            gaps = [(rec["gap_lo"], rec["gap_hi"], rec["seen"]) for rec in closed if rec["gap_lo"]]
            assert list(zip(det._gap_lo, det._gap_hi, det._seen)) == gaps, where
            # part (4): one entry per closed strip, low_after the maximum until one arrives
            highs = [
                (rec["high"], rec["low_after"] or rec["high"], rec["seen_below"]) for rec in closed
            ]
            assert list(zip(det._high, det._low_after, det._seen_below)) == highs, where
        reports.append(rep)
    assert all(rep == reports[0] for rep in reports), values
    return reports[0]


def test_records_match_whole_stream_counts_on_small_permutations():
    finished = 0
    for n in range(1, 9):
        for tau in permutations(range(1, n + 1)):
            rep = check_against_reference(tau)
            assert rep.verdict == contains_213_quadratic([n + 1 - v for v in tau]), tau
            finished += rep.verdict is False
    assert finished > 1000


def late_miss(avoider):
    """A 231-avoider with its last rising neighbours a < b swapped, among those
    with a value between them and none of those values in a's strip or later:
    b, a then completes a 231 that only the end-of-stream counters can see."""
    n = len(avoider)
    s = max(1, math.isqrt(n))
    i = next(
        i
        for i in range(n - 2, -1, -1)
        if avoider[i] + 1 < avoider[i + 1]
        and not any(avoider[i] < x < avoider[i + 1] for x in avoider[i - i % s :])
    )
    swapped = list(avoider)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return swapped


def n400_streams():
    rng = random.Random(45)
    avoider = avoider_231(400, rng)
    return {
        "increasing": list(range(1, 401)),
        "decreasing": list(range(400, 0, -1)),
        "random": list(random_perm(400, rng)),
        "avoider": avoider,
        "late_miss": late_miss(avoider),
        # the first strip ends 19, 20, 21, so 18, moved to the 19th value of
        # the second strip, accepts there: the cells peak just before it
        "late_accept": [*range(1, 18), *range(19, 40), 18, *range(40, 401)],
    }


# (peak_cells, buffer peak, strips peak) pinned on the n = 400 streams
N400_PEAKS = {
    "increasing": (58, 19, 20),
    "decreasing": (77, 19, 20),
    "random": (20, 19, 0),
    "avoider": (131, 19, 20),
    "late_miss": (131, 19, 20),
    "late_accept": (21, 19, 1),
}


@pytest.mark.parametrize("name", sorted(N400_PEAKS))
def test_records_match_whole_stream_counts_at_n400(name):
    values = n400_streams()[name]
    rep = check_against_reference(values)
    assert rep.verdict == contains_213_quadratic([401 - v for v in values])
    if name == "late_miss":
        assert rep.verdict and reference_run(values, 400)[0] is None  # found at finish
    peaks = rep.structure_peaks
    assert (rep.peak_cells, peaks["buffer"], peaks["strips"]) == N400_PEAKS[name]
    assert list(peaks) == ["buffer", "strips"]


# (pushes, accept position, verdict, peak_cells, structure_peaks) at the
# size of the benchmark's full pass, n = 2 * 10^4 (s = 141), for 231 on each
# stream and for 213 on its complement
N20K = {
    "adversary": (20000, None, False, 981, {"buffer": 140, "strips": 142}),
    "increasing": (20000, None, False, 421, {"buffer": 140, "strips": 142}),
    "late_miss": (20000, None, True, 975, {"buffer": 140, "strips": 142}),
    "random": (141, 141, True, 141, {"buffer": 140, "strips": 0}),  # a 231 in strip 1
}


def test_runs_at_the_full_pass_size_keep_their_pinned_telemetry():
    n = 20000
    rng = random.Random(45)
    avoider = avoider_231(n, rng)
    streams = {
        "adversary": Detector231(n).adversary(),
        "increasing": list(range(1, n + 1)),
        "late_miss": late_miss(avoider),
        "random": list(random_perm(n, rng)),
    }
    for name, values in streams.items():
        for pattern, stream in ((P231, values), (parse_pattern("213"), complement(values, n))):
            det = new_detector(pattern, n)
            accepted = det._feed(stream)
            rep = det.finish()
            got = (det.pushes, det.pushes if accepted else None, rep.verdict, rep.peak_cells)
            assert (*got, rep.structure_peaks) == N20K[name], (name, pattern)


def test_adversary_drives_the_detector_to_its_peak():
    det = Detector231(400)
    adversary = det.adversary()
    assert adversary[:22] == [400, *range(1, 20), 399, 20]
    assert not det._feed(adversary)
    rep = det.finish()
    assert not rep.verdict
    assert (rep.peak_cells, rep.structure_peaks) == (134, {"buffer": 19, "strips": 20})
    # above every stream pinned at n = 400, the random avoider included
    assert rep.peak_cells > max(peaks[0] for peaks in N400_PEAKS.values())


# -- space ---------------------------------------------------------------------------


def test_space_bounds_on_random_streams():
    rng = random.Random(42)
    n = 400
    for _ in range(20):
        det = Detector231(n)
        run_and_finish(det, random_perm(n, rng))
        rep = det.finish() if not det._finished else None
        peaks = det.structure_peaks
        assert peaks["buffer"] <= math.isqrt(n)
        assert peaks["strips"] <= math.ceil(n / math.isqrt(n))
        assert det.peak_cells <= 10 * math.sqrt(n)


def test_requires_permutation_mode():
    with pytest.raises(ValueError):
        Detector231(5, StreamMode.DISTINCT_SEQUENCE)
