"""Pins for the detector table: which detector each (family, pattern, mode)
gets, the bench rows built from each detector's own facts, and the
adversaries those facts supply."""

from __future__ import annotations

import json
import warnings

import pytest

from permstream import (
    StreamInstance,
    StreamMode,
    contains_bruteforce,
    new_detector,
    parse_pattern,
)
from permstream.cli import main
from permstream.streaming import base

PATTERNS = ("1", "12", "21", "123", "321", "312", "132", "231", "213", "4231")

#: stream name -> (mode, n, values); perm2 puts every 3- and 4-pattern past n
STREAMS = {
    "perm5": ("perm", "5", "2,5,1,4,3"),
    "perm2": ("perm", "2", "2,1"),
    "seq9": ("seq", "9", "3,9,1,7"),
}

CLASSES = {
    "Mon": "MonotoneDetector",
    "312": "Detector312",
    "231": "Detector231",
    "Base": "BaselineDetector",
    "Triv": "TrivialRejectDetector",
}

#: usage errors, exit code 2
ERRORS = {
    "!mono": "--detector monotone cannot serve the pattern {pattern}",
    "!312": "--detector 312 serves only the patterns 312 and 132",
    "!231": "--detector 231 serves only the patterns 231 and 213",
    "!perm": "--detector {family} needs a permutation stream (mode=perm)",
}

# One entry per pattern of PATTERNS, in order: a class from CLASSES, C(x) for
# ComplementAdapter around x, +w when a dispatch warning is shown, or an
# error from ERRORS.
MATRIX = {
    ("auto", "perm5"): "Mon Mon C(Mon) Mon C(Mon) 312 C(312) 231 C(231) Base+w",
    ("auto", "perm2"): "Mon Mon C(Mon) Triv Triv Triv Triv Triv Triv Triv",
    ("auto", "seq9"): "Mon Mon C(Mon) Mon C(Mon) Base+w Base+w Base+w Base+w Base+w",
    ("monotone", "perm5"): "Mon Mon C(Mon) Mon C(Mon) !mono !mono !mono !mono !mono",
    ("monotone", "perm2"): "Mon Mon C(Mon) Mon C(Mon) !mono !mono !mono !mono !mono",
    ("monotone", "seq9"): "Mon Mon C(Mon) Mon C(Mon) !mono !mono !mono !mono !mono",
    ("312", "perm5"): "!312 !312 !312 !312 !312 312 C(312) !312 !312 !312",
    ("312", "perm2"): "!312 !312 !312 !312 !312 312 C(312) !312 !312 !312",
    ("312", "seq9"): " ".join(["!perm"] * 10),
    ("231", "perm5"): "!231 !231 !231 !231 !231 !231 !231 231 C(231) !231",
    ("231", "perm2"): "!231 !231 !231 !231 !231 !231 !231 231 C(231) !231",
    ("231", "seq9"): " ".join(["!perm"] * 10),
    ("baseline", "perm5"): " ".join(["Base"] * 10),
    ("baseline", "perm2"): " ".join(["Base"] * 10),
    ("baseline", "seq9"): " ".join(["Base"] * 10),
}


def _expected(family: str, pattern: str, code: str) -> tuple[int, str, bool]:
    """(exit code, class or error text, warned) for one MATRIX entry."""
    if code.startswith("!"):
        return 2, ERRORS[code].format(family=family, pattern=pattern), False
    warned = code.endswith("+w")
    code = code.removesuffix("+w")
    if code.startswith("C("):
        return 0, f"ComplementAdapter({CLASSES[code[2:-1]]})", warned
    return 0, CLASSES[code], warned


@pytest.mark.parametrize("family, stream", sorted(MATRIX))
def test_family_pattern_mode_matrix(family, stream, monkeypatch, capsys):
    built = []
    init = base.Detector.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(base.Detector, "__init__", spy)
    mode, n, values = STREAMS[stream]
    for pattern, code in zip(PATTERNS, MATRIX[family, stream].split(), strict=True):
        want_code, want, want_warned = _expected(family, pattern, code)
        built.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got_code = main(["detect", "--pattern", pattern, "--values", values, "--n", n,
                             "--mode", mode, "--detector", family])
        err = capsys.readouterr().err
        assert got_code == want_code, (family, stream, pattern)
        if want_code == 2:
            assert err == f"error: {want}\n", (family, stream, pattern)
            continue
        det = built[-1]  # the adapter is built after its inner detector
        got = type(det).__name__
        if hasattr(det, "inner"):
            got += f"({type(det.inner).__name__})"
        assert got == want, (family, stream, pattern)
        assert bool(caught) == want_warned, (family, stream, pattern)


# (pattern, n) -> (accept_rate, bound, bound_value, random_peak_cells,
# random_ratio, adversarial_peak_cells, adversarial_ratio,
# adversarial_structures, bits_per_cell) for --trials 3 --seed 2
BENCH_ROWS = {
    ("123", 64): (1.0, "k", 3.0, 3, 1.0, 3, 1.0, {"x-array": 3}, 6),
    ("123", 256): (1.0, "k", 3.0, 3, 1.0, 3, 1.0, {"x-array": 3}, 8),
    ("321", 64): (1.0, "k", 3.0, 3, 1.0, 3, 1.0, {"x-array": 3}, 6),
    ("321", 256): (1.0, "k", 3.0, 3, 1.0, 3, 1.0, {"x-array": 3}, 8),
    ("312", 64): (1.0, "sqrt(n*log2(n))", 19.596, 4, 0.2041, 8, 0.4082, {"A": 19, "D": 3}, 6),
    ("312", 256): (1.0, "sqrt(n*log2(n))", 45.255, 4, 0.0884, 12, 0.2652, {"A": 45, "D": 5}, 8),
    ("132", 64): (1.0, "sqrt(n*log2(n))", 19.596, 4, 0.2041, 8, 0.4082, {"A": 19, "D": 3}, 6),
    ("132", 256): (1.0, "sqrt(n*log2(n))", 45.255, 4, 0.0884, 12, 0.2652, {"A": 45, "D": 5}, 8),
    ("231", 64): (1.0, "sqrt(n)", 8.0, 8, 1.0, 50, 6.25, {"buffer": 7, "strips": 8}, 6),
    ("231", 256): (1.0, "sqrt(n)", 16.0, 16, 1.0, 106, 6.625, {"buffer": 15, "strips": 16}, 8),
    ("213", 64): (1.0, "sqrt(n)", 8.0, 8, 1.0, 50, 6.25, {"buffer": 7, "strips": 8}, 6),
    ("213", 256): (1.0, "sqrt(n)", 16.0, 16, 1.0, 106, 6.625, {"buffer": 15, "strips": 16}, 8),
    ("4231", 64): (1.0, "n", 64.0, 64, 1.0, None, None, {}, 6),
    ("4231", 256): (1.0, "n", 256.0, 256, 1.0, None, None, {}, 8),
}

ROW_KEYS = ("accept_rate", "bound", "bound_value", "random_peak_cells", "random_ratio",
            "adversarial_peak_cells", "adversarial_ratio", "adversarial_structures",
            "bits_per_cell")


@pytest.mark.parametrize("pattern", ["123", "321", "312", "132", "231", "213", "4231"])
def test_bench_rows_are_pinned(pattern, capsys):
    assert main(["bench", "--pattern", pattern, "--sizes", "64,256", "--trials", "3",
                 "--seed", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == [64, 256]
    for row in rows:
        assert row.pop("trials") == 3
        assert isinstance(row.pop("seconds"), float)
        n = row.pop("n")
        assert row == dict(zip(ROW_KEYS, BENCH_ROWS[pattern, n], strict=True)), (pattern, n)


@pytest.mark.filterwarnings("ignore:pattern 4231 needs linear space")
@pytest.mark.parametrize("family", ["auto", "monotone", "312", "231", "baseline"])
def test_adversaries_are_avoiding_permutations(family):
    served = 0
    for text in PATTERNS:
        pattern = parse_pattern(text)
        for n in range(1, 41):
            try:
                det = new_detector(pattern, n, StreamMode.PERMUTATION, family)
            except ValueError:
                continue  # the family does not serve the pattern
            adv = det.adversary()
            if adv is None:
                continue
            served += 1
            assert sorted(adv) == list(range(1, n + 1)), (family, text, n)
            inst = StreamInstance(n, StreamMode.PERMUTATION, tuple(adv))
            assert contains_bruteforce(inst, pattern) is None, (family, text, n)
    assert served or family == "baseline"
