"""Streamed input: the chunked tokenizer, the incremental validator, and the
single pass `permstream detect` makes over them.

The references are the whole-text parser and the set-based validator that
the streamed ones replaced, kept here verbatim apart from the parser's token
grammar (ASCII digits with an optional leading "-", where it used int()) and
the validator's arguments (the fields, not an instance, since a malformed
instance cannot be built); the streamed versions must agree with them on
every input and at every chunk size.  The CLI tests
compare `detect` with `parse_stream_text` + `run_detector` on the same text.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
import tracemalloc
import warnings

import pytest

from permstream import (
    StreamInstance,
    StreamMode,
    bits_per_cell,
    contains_bruteforce,
    count_occurrences,
    format_stream_text,
    new_detector,
    parse_pattern,
    parse_stream_text,
    run_detector,
    stream_violation,
)
from permstream.cli import _occurrence_json, main
from permstream import core
from permstream.core import READ_CHARS, StreamValidator, iter_stream_text
from conftest import random_perm

LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


# -- references ---------------------------------------------------------------


def reference_int(token: str) -> int:
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def reference_parse(text: str) -> StreamInstance:
    header = None
    tokens: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
        else:
            tokens.extend(line.split())
    if header is None:
        raise ValueError("missing stream header line 'n=<int> mode=<perm|seq>'")
    parts = header.split()
    if len(parts) != 2 or not parts[0].startswith("n=") or not parts[1].startswith("mode="):
        raise ValueError(f"malformed header {header!r} (expected 'n=<int> mode=<perm|seq>')")
    try:
        n = reference_int(parts[0][2:])
    except ValueError:
        raise ValueError(f"malformed universe size in header {header!r}") from None
    mode = StreamMode.from_token(parts[1][5:])
    try:
        elements = tuple(reference_int(tok) for tok in tokens)
    except ValueError as exc:
        raise ValueError(f"non-integer stream value: {exc}") from None
    error = reference_error(n, mode, elements)
    if error is not None:
        raise ValueError(error)
    return StreamInstance(n=n, mode=mode, elements=elements)


def reference_violation(n: int, mode: StreamMode, elements: tuple) -> str | None:
    if n < 1:
        return f"universe size must be at least 1, got n={n}"
    if mode is StreamMode.PERMUTATION and len(elements) != n:
        return f"permutation mode requires exactly n={n} values, got {len(elements)}"
    seen: set[int] = set()
    for pos, value in enumerate(elements, start=1):
        if not isinstance(value, int) or isinstance(value, bool):
            return f"non-integer value {value!r} at position {pos}"
        if not 1 <= value <= n:
            return f"value {value} out of range [1, {n}] at position {pos}"
        if value in seen:
            return f"duplicate value {value} at position {pos}"
        seen.add(value)
    return None


def outcome(parse, *args):
    try:
        inst = parse(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return (inst.n, inst.mode, inst.elements)


def chunked_parse(text: str) -> StreamInstance:
    """`parse_stream_text` that also checks each chunk is a non-empty list."""
    chunks = iter_stream_text(io.StringIO(text))
    n, mode = next(chunks)
    elements: list[int] = []
    for values in chunks:
        assert values, "the tokenizer yields only non-empty lists"
        elements += values
    return StreamInstance(n=n, mode=mode, elements=tuple(elements))


def expected_error(text: str) -> str:
    """What `parse_stream_text` says about a bad text."""
    with pytest.raises(ValueError) as exc:
        parse_stream_text(text)
    return str(exc.value)


def construction_error(n: int, mode: StreamMode, elements: tuple) -> str | None:
    """What `StreamInstance` says about the fields: its ValueError's text, or None."""
    try:
        StreamInstance(n, mode, elements)
    except ValueError as exc:
        return str(exc)
    return None


def reference_error(n: int, mode: StreamMode, elements: tuple) -> str | None:
    reason = reference_violation(n, mode, elements)
    return None if reason is None else f"invalid stream: {reason}"


# -- the tokenizer --------------------------------------------------------------


PIECES = ("1", "2", "3", "17", "-4", "+5", "0", "1_0", "\uff13", "x", "#", "#7", "#\u00e9+_",
          "n=3", "mode=perm", "n=5 mode=seq", "n=4 mode=perm", "n=x mode=perm", "n=+4 mode=perm",
          "n=3 mode=foo")
SEPARATORS = LINE_BREAKS + (" ", " ", "\t", "\x1f", "\xa0")


def test_tokenizer_matches_the_reference_parser_at_every_chunk_size(monkeypatch):
    rng = random.Random(11)
    for _ in range(3000):
        text = "".join(
            rng.choice(PIECES) + rng.choice(SEPARATORS) for _ in range(rng.randint(0, 12))
        )
        want = outcome(reference_parse, text)
        assert outcome(parse_stream_text, text) == want, repr(text)
        monkeypatch.setattr(core, "READ_CHARS", rng.randint(1, 8))
        assert outcome(chunked_parse, text) == want, repr(text)
        monkeypatch.undo()



def test_tokenizer_matches_the_reference_after_the_header(monkeypatch):
    # after the header a chunk may be cut after any blank, so "#" must still
    # start a comment only at the start of a line, and must end the words of
    # a line whose first words were already yielded with the non-integer error
    rng = random.Random(13)
    values = ("1", "2", "3", "17", "40", "#", "#7", "x")
    blanks = (" ", "  ", "\t", "\x1f", " \t ")
    for _ in range(3000):
        text = "n=50 mode=seq" + rng.choice(LINE_BREAKS) + "".join(
            rng.choice(values) + rng.choice(blanks + LINE_BREAKS) for _ in range(rng.randint(0, 16))
        )
        want = outcome(reference_parse, text)
        monkeypatch.setattr(core, "READ_CHARS", rng.randint(1, 8))
        assert outcome(chunked_parse, text) == want, repr(text)
        monkeypatch.undo()


#: words that JSON reads otherwise than int(), or not at all; the last is past
#: int()'s digit limit
JSON_WORDS = ("007", "00", "-0", "1.5", "1e3", "true", "null", "[1]", "1,2", "-", "--1", "1-2",
              "12345678901234567890", "9" * 4301)


def spy_on_the_json_parse(monkeypatch) -> list:
    """Wrap the loader ``core`` parses canonical chunks with; it records each outcome."""
    load, calls = core._json_loads, []

    def spy(text):
        try:
            values = load(text)
        except ValueError:
            calls.append(None)
            raise
        calls.append(values)
        return values

    monkeypatch.setattr(core, "_json_loads", spy)
    return calls


def test_canonical_chunks_match_the_reference_at_every_chunk_size(monkeypatch):
    # single blanks and "\n" send most chunks to the one-call JSON parse; a
    # word JSON reads otherwise, "  ", "\r\n" or "\t" must give int()'s outcome
    rng = random.Random(17)
    plain = ("1", "2", "3", "17", "40", "0", "-4", "123456")
    parsed = failed = 0
    for _ in range(2000):
        size = rng.randint(0, 24)
        words = [rng.choice(JSON_WORDS if rng.random() < 0.03 else plain) for _ in range(size)]
        blanks = [rng.choice(("  ", "\r\n", "\t") if rng.random() < 0.04 else (" ", "\n"))
                  for _ in range(size)]
        text = "n=50 mode=seq\n" + "".join(map(str.__add__, words, blanks))
        want = outcome(reference_parse, text)
        calls = spy_on_the_json_parse(monkeypatch)
        monkeypatch.setattr(core, "READ_CHARS",
                            rng.choice((rng.randint(1, 8), rng.randint(9, 64), READ_CHARS)))
        assert outcome(chunked_parse, text) == want, repr(text)
        monkeypatch.undo()
        parsed += sum(values is not None for values in calls)
        failed += calls.count(None)
    assert parsed > 1000 and failed > 100  # both sides of the fast path were reached


def test_every_chunk_after_the_header_of_a_formatted_stream_takes_the_json_parse(monkeypatch):
    monkeypatch.setattr(core, "READ_CHARS", 256)
    values = random_perm(3000, random.Random(5))
    text = format_stream_text(StreamInstance(3000, StreamMode.PERMUTATION, values),
                              segments=[("alice", 1, 1500)], comments=["demo"])
    calls = spy_on_the_json_parse(monkeypatch)
    chunks = list(iter_stream_text(io.StringIO(text)))
    assert [v for part in chunks[1:] for v in part] == list(values)
    assert len(chunks) > 50 and None not in calls
    # the chunk that holds the header and the comments keeps its value lines, and
    # those take the loader too: every list of values is the loader's
    parsed = [part for part in calls if part]
    assert len(parsed) == len(chunks) - 1
    assert all(a is b for a, b in zip(parsed, chunks[1:]))


def test_unicode_line_breaks_and_a_non_ascii_comment_parse(monkeypatch):
    # the text is not ASCII, so each value word is checked on its own
    text = "# caf\u00e9 +1 1_0 \uff13\u2028n=5 mode=perm\u20283 1\x85# na\u00efve\u20282 5 4\u2028"
    for chunk_chars in (1, 2, 3, 7, READ_CHARS):
        monkeypatch.setattr(core, "READ_CHARS", chunk_chars)
        inst = chunked_parse(text)
        assert (inst.n, inst.elements) == (5, (3, 1, 2, 5, 4))


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
def test_comment_starts_after_every_splitlines_boundary(monkeypatch, brk):
    text = f"# c 9{brk}n=3 mode=perm{brk}# 9 9{brk}3 1{brk}  # x{brk}2{brk}"
    for chunk_chars in (1, 2, 3, 5, READ_CHARS):
        monkeypatch.setattr(core, "READ_CHARS", chunk_chars)
        assert chunked_parse(text).elements == (3, 1, 2)


def test_tokenizer_carries_values_and_long_lines_across_chunks(monkeypatch):
    monkeypatch.setattr(core, "READ_CHARS", 16)
    values = random_perm(300, random.Random(3))
    text = format_stream_text(StreamInstance(300, StreamMode.PERMUTATION, values))
    one_line = f"n=300 mode=perm\n{' '.join(map(str, values))}"
    for source in (text, one_line):
        chunks = list(iter_stream_text(io.StringIO(source)))
        assert chunks[0] == (300, StreamMode.PERMUTATION)
        assert [v for part in chunks[1:] for v in part] == list(values)
        # chunks shorter than a line: no list holds a whole line of 20 values
        assert max(len(part) for part in chunks[1:]) < 20


# -- the validator --------------------------------------------------------------


def test_validator_matches_the_reference_in_any_chunking():
    rng = random.Random(12)
    for _ in range(4000):
        n = rng.randint(-1, 7)
        mode = rng.choice(list(StreamMode))
        elements = tuple(rng.randint(-1, 9) for _ in range(rng.randint(0, 9)))
        want = reference_violation(n, mode, elements)
        check = StreamValidator(n, mode)
        start = 0
        while start < len(elements):
            size = rng.randint(0, 3)
            check.feed(list(elements[start : start + size]))
            start += size
        assert check.violation() == want
        assert check.count == len(elements)


def test_validator_holds_far_values_in_a_set(monkeypatch):
    # a small floor and slack make the set and the moves out of it reachable
    monkeypatch.setattr(core, "DENSE_FLOOR", 4)
    monkeypatch.setattr(core, "DENSE_BYTES_PER_VALUE", 2)
    rng = random.Random(14)
    for _ in range(3000):
        n = rng.randint(1, 80)
        elements = rng.sample(range(1, n + 1), rng.randint(0, n))
        for _ in range(rng.randint(0, 2)):  # a duplicate, or a value out of range
            bad = rng.choice(elements) if elements and rng.random() < 0.8 else n + 1
            elements.insert(rng.randint(0, len(elements)), bad)
        want = reference_violation(n, StreamMode.DISTINCT_SEQUENCE, elements)
        check = StreamValidator(n, StreamMode.DISTINCT_SEQUENCE)
        start = 0
        while start < len(elements):
            size = rng.randint(0, 5)
            check.feed(elements[start : start + size])
            start += size
        assert check.violation() == want
        assert all(v >= len(check._guard) for v in check._far)
        one = StreamValidator(n, StreamMode.DISTINCT_SEQUENCE)  # as Detector.push checks
        refused = next(filter(None, map(one.hold, elements, range(len(elements)))), None)
        assert refused == (want and want.rsplit(" at position ", 1)[0])


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
def test_validator_ends_a_dense_stream_with_the_bytearray_alone(monkeypatch, order):
    monkeypatch.setattr(core, "DENSE_FLOOR", 64)
    n = 5000
    values = list(range(1, n + 1))
    if order == "descending":
        values.reverse()
    elif order == "random":
        random.Random(15).shuffle(values)
    check = StreamValidator(n, StreamMode.PERMUTATION)
    for start in range(0, n, 100):
        check.feed(values[start : start + 100])
    assert check.violation() is None
    assert (len(check._guard), check._far) == (n + 1, set())


def test_an_instance_is_scanned_once(monkeypatch):
    built = []

    class CountingValidator(StreamValidator):
        def __init__(self, n, mode):
            built.append((n, mode))
            super().__init__(n, mode)

    monkeypatch.setattr(core, "StreamValidator", CountingValidator)
    pattern = parse_pattern("312")
    values = (3, 1, 5, 2, 6, 4)
    inst = StreamInstance(6, StreamMode.PERMUTATION, values)
    assert built == [(6, StreamMode.PERMUTATION)]  # by the constructor
    assert inst.elements is values  # a tuple is kept, not copied
    # the entry points trust a built instance: none of them scans it again
    assert run_detector(inst, pattern).verdict
    assert contains_bruteforce(inst, pattern) is not None
    assert count_occurrences(inst, pattern) == 2
    assert len(built) == 1


@pytest.mark.parametrize("n", [4 * 10**9, 10**15, 10**20])
def test_validator_guard_follows_the_values_not_the_header(n):
    assert construction_error(n, StreamMode.PERMUTATION, (3, 1, 2)) == (
        f"invalid stream: permutation mode requires exactly n={n} values, got 3"
    )
    assert stream_violation(StreamInstance(n, StreamMode.DISTINCT_SEQUENCE, (3, 1, 2))) is None
    check = StreamValidator(n, StreamMode.DISTINCT_SEQUENCE)
    check.feed([5, 1000, 5])
    assert check.violation() == "duplicate value 5 at position 3"


def test_stream_violation_keeps_its_non_integer_check():
    rng = random.Random(13)
    odd = (True, False, 2.0, "3", None)
    for _ in range(3000):
        n = rng.randint(-1, 6)
        mode = rng.choice(list(StreamMode))
        elements = tuple(
            rng.choice(odd) if rng.random() < 0.2 else rng.randint(-1, 8)
            for _ in range(rng.randint(0, 8))
        )
        assert construction_error(n, mode, elements) == reference_error(n, mode, elements)


@pytest.mark.parametrize("n, mode, elements", [
    (1, StreamMode.PERMUTATION, (True,)),
    (3, StreamMode.PERMUTATION, (2, False, 1)),
    (4, StreamMode.DISTINCT_SEQUENCE, (1, True)),
])
def test_a_bool_is_not_a_stream_value(n, mode, elements):
    # True and False compare as 1 and 0, so only the type scan refuses them
    assert construction_error(n, mode, elements) == reference_error(n, mode, elements)


# -- detect: streamed output equals parse_stream_text + run_detector -------------


def detect(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = main(["detect", *argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out.strip().splitlines()[-1]) if code == 0 else None
    if report is not None:
        report.pop("wall_time_s")
    return code, report, captured.err


def expected_report(text: str, pattern_text: str, check: bool = False) -> dict:
    inst = parse_stream_text(text)
    pattern = parse_pattern(pattern_text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        detector = new_detector(pattern, inst.n, inst.mode)
    rep = run_detector(inst, pattern, detector)
    oracle = contains_bruteforce(inst, pattern) is not None if check else None
    return {
        "schema": 1,
        "command": "detect",
        "pattern": str(pattern),
        "n": inst.n,
        "mode": inst.mode.value,
        "stream_len": len(inst.elements),
        "detector": type(detector).__name__,
        "verdict": rep.verdict,
        "accepted_after": detector.pushes if detector.accepted else None,
        "occurrence": _occurrence_json(rep.occurrence),
        "peak_cells": rep.peak_cells,
        "peak_bits": rep.peak_bits,
        "structure_peaks": rep.structure_peaks,
        "oracle_verdict": oracle,
        "agree": None if oracle is None else oracle == rep.verdict,
    }


def _lines(values, per_line: int = 7) -> list[str]:
    return [" ".join(map(str, values[i : i + per_line])) for i in range(0, len(values), per_line)]


def _value_split_at_chunk_end(text: str) -> str:
    """``text`` behind a comment sized so that a value straddles READ_CHARS."""
    for pad in range(12):
        padded = "#" + "x" * pad + "\n" + text
        if padded[READ_CHARS - 1].isdigit() and padded[READ_CHARS].isdigit():
            return padded
    raise AssertionError("no padding splits a value")


#: a permutation whose file, 20 values a line, is large enough for a helper
#: process to validate its back half (cli.SPLIT_MIN_BYTES)
LARGE_PERM = list(random_perm(200_000, random.Random(22)))


def parity_texts() -> dict[str, str]:
    rng = random.Random(21)
    perm = random_perm(60, rng)
    body = _lines(perm)
    big = random_perm(20_000, rng)
    big_text = format_stream_text(StreamInstance(20_000, StreamMode.PERMUTATION, big))
    texts = {
        "comments": "# made by hand\nn=60 mode=perm\n"
        + "".join(f"{line}\n# between {i}\n\n" for i, line in enumerate(body)),
        "crlf": "n=60 mode=perm\r\n" + "\r\n".join(body) + "\r\n",
        "lone-cr": "n=60 mode=perm\r" + "\r".join(body) + "\r",
        "form-feed": "n=60 mode=perm\f" + "\f# c\f".join(body),
        "vertical-tab": "n=60 mode=perm\v" + "\v# c\v".join(body),
        "u2028": "n=60 mode=perm\u2028" + "\u2028# c\u2028".join(body),
        "no-trailing-newline": "n=60 mode=perm\n" + "\n".join(body),
        "long-line": f"n=20000 mode=perm\n{' '.join(map(str, big))}\n",
        "split-value": _value_split_at_chunk_end(big_text),
        "seq": "n=90 mode=seq\n" + "\n".join(_lines(perm[:40])) + "\n",
        "n-is-1": "n=1 mode=perm\n1\n",
        "empty-seq": "n=5 mode=seq\n# no values\n",
        "large": format_stream_text(StreamInstance(200_000, StreamMode.PERMUTATION, LARGE_PERM)),
    }
    assert len(texts["long-line"]) > READ_CHARS
    return texts


PARITY = parity_texts()


@pytest.mark.parametrize("pattern", ["312", "213", "321", "12"])
@pytest.mark.parametrize("name", sorted(PARITY))
def test_streamed_detect_equals_parse_and_run_detector(tmp_path, capsys, name, pattern):
    text = PARITY[name]
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode("utf-8"))  # no newline translation on write
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, report, _ = detect(capsys, "--pattern", pattern, "--input", str(path), "--json")
    assert code == 0
    assert report == expected_report(text, pattern)


@pytest.mark.parametrize("name", ["comments", "lone-cr", "seq", "n-is-1", "empty-seq"])
def test_streamed_detect_check_equals_oracle(monkeypatch, capsys, name):
    text = PARITY[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, report, _ = detect(capsys, "--pattern", "4231", "--input", "-", "--check", "--json")
    assert code == 0
    assert report == expected_report(text, "4231", check=True)


def test_empty_perm_stream_is_invalid(monkeypatch, capsys):
    text = "n=5 mode=perm\n# no values\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, _, err = detect(capsys, "--pattern", "12", "--input", "-")
    assert code == 2
    assert err == f"error: {expected_error(text)}\n"
    assert err == "error: invalid stream: permutation mode requires exactly n=5 values, got 0\n"


# -- detect: malformed input, also after the accept point ------------------------


PERM = list(random_perm(200, random.Random(31)))


def _defective(values, header: str = "n=200 mode=perm") -> str:
    return header + "\n" + "\n".join(_lines(values)) + "\n"


def _accept_position(pattern_text: str) -> int:
    det = new_detector(parse_pattern(pattern_text), 200, StreamMode.PERMUTATION)
    for value in PERM:
        if det.push(value):
            return det.pushes
    raise AssertionError("the stream was meant to accept")


MALFORMED = {
    "duplicate-after-accept": _defective(PERM[:199] + [PERM[0]]),
    "out-of-range-after-accept": _defective(PERM[:199] + [201]),
    "zero-after-accept": _defective(PERM[:199] + [0]),
    "non-integer-after-accept": _defective(PERM) + "7.5\n",
    "perm-count-short": _defective(PERM[:150]),
    "perm-count-long": _defective(PERM + [201]),
    # headers that overstate n: the guard must not be sized from the header
    "perm-count-huge-n": f"n={10**15} mode=perm\n3 1 2\n",
    "perm-count-n-past-an-index": f"n={10**20} mode=perm\n3 1 2\n",
    "perm-count-huge-n-and-value": f"n={10**15} mode=perm\n{10**15} 1 2\n",
    "n-is-0": "n=0 mode=perm\n1 2\n",
    "missing-header": "# only a comment\n\n",
    "malformed-header": "n=200 mode=perm extra\n1 2\n",
    "malformed-universe": "n=two mode=perm\n1 2\n",
    "unknown-mode": "n=200 mode=list\n1 2\n",
    # past the file's midpoint, where a helper process reads
    "large-front-value-in-the-back": _defective(
        LARGE_PERM[:190_000] + LARGE_PERM[:1] + LARGE_PERM[190_001:], "n=200000 mode=perm"),
    "large-duplicate-in-the-back": _defective(
        LARGE_PERM[:190_000] + LARGE_PERM[190_001:190_002] + LARGE_PERM[190_001:],
        "n=200000 mode=perm"),
    "large-count-short": _defective(LARGE_PERM[:-1], "n=200000 mode=perm"),
}
# inputs with two defects, and the start of the message of the one that wins
PRECEDENCE = {
    "non-integer-beats-duplicate": (
        _defective(PERM[:100] + [PERM[0]] + PERM[101:]) + "x\n", "non-integer stream value"),
    "header-beats-non-integer": ("n=200 mode=permutation\n1 x\n", "unknown stream mode"),
    "n-beats-count": ("n=0 mode=perm\n1\n", "invalid stream: universe size"),
    "count-beats-duplicate": (
        _defective(PERM[:150] + [PERM[0]]), "invalid stream: permutation mode requires"),
    "duplicate-beats-later-range": (
        _defective(PERM[:160] + [PERM[0]] + PERM[161:180] + [999] + PERM[181:]),
        "invalid stream: duplicate value"),
    "range-beats-later-duplicate": (
        _defective(PERM[:160] + [999] + PERM[161:180] + [PERM[0]] + PERM[181:]),
        "invalid stream: value 999 out of range"),
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("name", sorted(MALFORMED) + sorted(PRECEDENCE))
def test_malformed_stream_exits_2_with_the_reference_message(
    tmp_path, monkeypatch, capsys, name, source
):
    text, winner = PRECEDENCE.get(name, (MALFORMED.get(name), ""))
    if name.endswith("after-accept"):
        assert _accept_position("312") < 190  # the defect sits past the accept
    if source == "file":
        path = tmp_path / "s.txt"
        path.write_text(text)
        where = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        where = "-"
    code, _, err = detect(capsys, "--pattern", "312", "--input", where, "--json")
    assert code == 2
    assert err == f"error: {expected_error(text)}\n"
    assert err.startswith(f"error: {winner}")


def test_invalid_stream_beats_an_unusable_forced_detector(capsys):
    code, _, err = detect(
        capsys, "--pattern", "312", "--values", "9,7,9", "--n", "12", "--mode", "seq",
        "--detector", "312",
    )
    assert code == 2
    assert err == "error: invalid stream: duplicate value 9 at position 3\n"


def test_dispatch_warning_only_for_a_valid_stream(capsys):
    argv = ["--pattern", "312", "--n", "12", "--mode", "seq", "--json"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = detect(capsys, *argv, "--values", "9,7,9")
    assert code == 2
    assert err == "error: invalid stream: duplicate value 9 at position 3\n"
    assert caught == []
    with pytest.warns(UserWarning, match="no sublinear sequence-mode detector"):
        assert detect(capsys, *argv, "--values", "9,7,8")[0] == 0


# -- sparse streams: values far above the count read ------------------------------


@pytest.mark.parametrize("pattern", ["12", "21"])
@pytest.mark.parametrize("source", ["file", "stdin", "values"])
@pytest.mark.parametrize("n", [10**15, 10**20])
def test_sparse_stream_detect_agrees_with_the_oracle(
    tmp_path, monkeypatch, capsys, n, source, pattern
):
    text = f"n={n} mode=seq\n{n} 1\n"
    if source == "values":
        argv = ["--values", f"{n},1", "--n", str(n), "--mode", "seq"]
    elif source == "file":
        path = tmp_path / "s.txt"
        path.write_text(text)
        argv = ["--input", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = ["--input", "-"]
    code, report, err = detect(capsys, "--pattern", pattern, *argv, "--check", "--json")
    assert (code, err) == (0, "")
    assert report == expected_report(text, pattern, check=True)
    assert report["verdict"] is (pattern == "21")


@pytest.mark.parametrize("n", [10**15, 10**20])
def test_sparse_stream_through_push(n):
    for pattern, want in (("12", False), ("21", True)):
        det = new_detector(parse_pattern(pattern), n, StreamMode.DISTINCT_SEQUENCE)
        assert (det.push(n) or det.push(1) or det.finish().verdict) is want
    det = new_detector(parse_pattern("12"), n, StreamMode.DISTINCT_SEQUENCE)
    assert not det.push(n)
    with pytest.raises(ValueError, match=f"^duplicate value {n}$"):
        det.push(n)
    assert len(det._validator._guard) == 1 and det._validator._far == {n}


@pytest.mark.parametrize("k", [49, 53, 60])
def test_bits_per_cell_is_exact_past_float_precision(k):
    # ceil(log2(2^k + 1)) in floating point rounds down to k from k = 49 on
    assert [bits_per_cell(2**k + d) for d in (-1, 0, 1)] == [k, k, k + 1]


def test_detect_peak_bits_at_a_universe_past_float_precision(capsys):
    n = str(2**60 + 1)
    code, report, err = detect(
        capsys, "--pattern", "12", "--values", f"{n},1", "--n", n, "--mode", "seq", "--json"
    )
    assert (code, err) == (0, "")
    assert (report["peak_cells"], report["peak_bits"]) == (2, 2 * 61)


# -- detect: memory that does not grow with the stream ---------------------------


def heap_peak_of_early_accept(argv, capsys) -> tuple[int, dict]:
    """The tracemalloc peak and the report of one `main(argv)` that accepts early."""
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["accepted_after"] < 1000
    return peak, report


def test_detect_heap_peak_grows_only_by_the_guard(tmp_path, capsys):
    rng = random.Random(41)
    peaks = {}
    for n in (20_000, 200_000):
        path = tmp_path / f"s{n}.txt"
        inst = StreamInstance(n, StreamMode.PERMUTATION, random_perm(n, rng))
        path.write_text(format_stream_text(inst))
        argv = ["detect", "--pattern", "312", "--input", str(path), "--json"]
        if not peaks:
            main(argv)  # warm-up: first-call caches are not the stream's
        peaks[n], report = heap_peak_of_early_accept(argv, capsys)
        assert report["stream_len"] == n
    guard_growth = 200_000 - 20_000  # one guard byte per universe value
    # Beyond the guard the peak grows by the previous chunk's values, which
    # the consumer holds while the next chunk is parsed: the file at
    # n = 2*10^4 has only two chunks, the second one short.  That part read
    # 205, 215, 227 and 234 KB on CPython 3.10, 3.11, 3.12 and 3.13; the
    # slack leaves room for other interpreters.  Keeping the values alone
    # would add about 7 MB at n = 2*10^5.
    assert peaks[200_000] - peaks[20_000] <= guard_growth + 1024 * 1024, peaks


def test_detect_heap_peak_on_a_one_line_stream(tmp_path, capsys):
    n = 200_000
    values = random_perm(n, random.Random(43))
    lines = tmp_path / "lines.txt"
    lines.write_text(format_stream_text(StreamInstance(n, StreamMode.PERMUTATION, values)))
    one_line = tmp_path / "one-line.txt"
    one_line.write_text(f"n={n} mode=perm\n{' '.join(map(str, values))}\n")
    peaks = {}
    for path in (lines, lines, one_line):  # the first run is the warm-up
        argv = ["detect", "--pattern", "312", "--input", str(path), "--json"]
        peaks[path.name], report = heap_peak_of_early_accept(argv, capsys)
        assert report["stream_len"] == n
    # The one-line file read 2.35 MB against 1.84 MB at 20 values a line on
    # CPython 3.11: its first value chunk is joined with the text carried
    # past the header line, so one list holds two chunks' values.  Holding
    # the line whole read 21.1 MB.
    assert peaks["one-line.txt"] <= peaks["lines.txt"] + 1024 * 1024, peaks
