from __future__ import annotations

import io
import random
import re

import pytest
from hypothesis import given, strategies as st

from permstream import (
    Occurrence,
    StreamInstance,
    StreamMode,
    complement,
    format_stream_text,
    is_order_isomorphic,
    parse_pattern,
    parse_stream_text,
    stream_violation,
)
from permstream import core
from permstream.cli import _file_chunks
from permstream.core import StreamValidator, collect_stream, iter_stream_text
from conftest import perm_instance, random_perm, seq_instance


# -- patterns ---------------------------------------------------------------


def test_parse_pattern_digit_form():
    assert parse_pattern("312").values == (3, 1, 2)
    assert parse_pattern("4231").values == (4, 2, 3, 1)
    assert parse_pattern("1").values == (1,)


def test_parse_pattern_comma_form():
    p = parse_pattern("10,3,2,1,4,5,6,7,8,9")
    assert p.values == (10, 3, 2, 1, 4, 5, 6, 7, 8, 9)
    assert parse_pattern("3,1,2").values == (3, 1, 2)


def test_parse_pattern_rejects_non_permutations():
    for bad in ("0", "11", "13", "312x", "", "1,1", "2,4,3"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_pattern_str_round_trips():
    assert str(parse_pattern("4231")) == "4231"
    long = parse_pattern("10,3,2,1,4,5,6,7,8,9")
    assert parse_pattern(str(long)) == long


# -- order isomorphism and symmetries ---------------------------------------


def test_is_order_isomorphic():
    assert is_order_isomorphic((9, 7, 8), (3, 1, 2))
    assert not is_order_isomorphic((3, 1, 5), (3, 1, 2))  # 5 > 3: wrong shape
    assert is_order_isomorphic((), ())
    assert not is_order_isomorphic((1, 2), (1, 2, 3))


def test_complement_on_patterns():
    assert complement((2, 3, 1), 3) == (2, 1, 3)
    assert complement((1, 3, 2), 3) == (3, 1, 2)
    assert complement((4, 2, 3, 1), 4) == (1, 3, 2, 4)


def test_complement_range_check():
    with pytest.raises(ValueError):
        complement((1, 5), 4)


@given(st.permutations(range(1, 8)))
def test_complement_is_an_involution(perm):
    n = len(perm)
    assert complement(complement(perm, n), n) == tuple(perm)


# -- streams and validation --------------------------------------------------


def test_stream_violation_accepts_permutation():
    assert stream_violation(perm_instance((2, 1, 3))) is None


def test_stream_violation_accepts_distinct_subsequence():
    assert stream_violation(seq_instance((3, 1, 9), n=12)) is None


@pytest.mark.parametrize("n, mode, elements, reason", [
    (3, StreamMode.PERMUTATION, (1, 2), "permutation mode requires exactly n=3 values, got 2"),
    (3, StreamMode.PERMUTATION, (1, 1, 2), "duplicate value 1 at position 2"),
    (4, StreamMode.DISTINCT_SEQUENCE, (5,), "value 5 out of range [1, 4] at position 1"),
    (0, StreamMode.PERMUTATION, (), "universe size must be at least 1, got n=0"),
])
def test_stream_violation_reasons(n, mode, elements, reason):
    # the constructor refuses a malformed stream with stream_violation's reason
    with pytest.raises(ValueError, match=f"^invalid stream: {re.escape(reason)}$"):
        StreamInstance(n=n, mode=mode, elements=elements)


def test_stream_mode_from_token():
    assert StreamMode.from_token("perm") is StreamMode.PERMUTATION
    assert StreamMode.from_token("seq") is StreamMode.DISTINCT_SEQUENCE
    with pytest.raises(ValueError):
        StreamMode.from_token("wat")


# -- occurrences --------------------------------------------------------------


def test_occurrence_future_marker_rules():
    occ = Occurrence(positions=(1, 2, None), values=(6, 4, 5))
    assert occ.has_future
    assert not Occurrence(positions=(1, 2, 3), values=(3, 1, 2)).has_future
    with pytest.raises(ValueError):
        Occurrence(positions=(None, 2, 3), values=(3, 1, 2))  # None must be final
    with pytest.raises(ValueError):
        Occurrence(positions=(2, 1, 3), values=(3, 1, 2))  # not increasing
    with pytest.raises(ValueError):
        Occurrence(positions=(1, 2), values=(3, 1, 2))  # length mismatch


# -- stream file format --------------------------------------------------------


def test_stream_text_round_trip():
    inst = perm_instance((3, 1, 2))
    text = format_stream_text(inst, comments=["hello"])
    back = parse_stream_text(text)
    assert back == inst


def test_stream_text_segments_are_comments():
    inst = seq_instance((3, 1, 9, 7, 8), n=12)
    text = format_stream_text(inst, segments=[("alice", 1, 4), ("bob", 5, 5)])
    assert "# segment alice 1 4" in text
    assert "# segment bob 5 5" in text
    assert parse_stream_text(text) == inst


def test_stream_text_wraps_long_streams():
    rng = random.Random(5)
    inst = perm_instance(random_perm(100, rng))
    text = format_stream_text(inst)
    assert max(len(line.split()) for line in text.splitlines()) <= 20
    assert parse_stream_text(text) == inst


def test_parse_stream_text_errors():
    with pytest.raises(ValueError):
        parse_stream_text("")
    with pytest.raises(ValueError):
        parse_stream_text("width=3\n1 2 3\n")
    with pytest.raises(ValueError):
        parse_stream_text("n=3 mode=perm\n1 two 3\n")
    with pytest.raises(ValueError):
        parse_stream_text("n=x mode=perm\n1\n")


def test_stream_file_round_trip(tmp_path):
    # the library formats and parses text; the CLI reads and writes the file
    path = tmp_path / "stream.txt"
    inst = perm_instance((5, 3, 4, 1, 2))
    path.write_text(format_stream_text(inst, comments=["roundtrip"]), encoding="utf-8")
    assert collect_stream(_file_chunks(str(path))) == inst


def test_tokenizer_starts_past_a_given_header(monkeypatch):
    # from any line start on, the values are those of the whole text from there
    rng = random.Random(19)
    for _ in range(200):
        values = [str(v) for v in random_perm(rng.randint(1, 40), rng)]
        lines = []
        while values:
            words = [values.pop() for _ in range(min(len(values), rng.randint(1, 5)))]
            lines.append(rng.choice(("", "  ")) + " ".join(words))
            if rng.random() < 0.3:
                lines.append(rng.choice(("# 9 9", "", "#x", "  # 1")))
        breaks = [rng.choice(("\n", "\r\n", "\r", "\f", "\u2028")) for _ in lines]
        body = "".join(map(str.__add__, lines, breaks))
        starts = [0] + [i + 1 for i, c in enumerate(body) if c in "\n\f\u2028"
                        or (c == "\r" and body[i + 1 : i + 2] != "\n")]
        header = (50, StreamMode.DISTINCT_SEQUENCE)
        for start in starts:
            monkeypatch.setattr(core, "READ_CHARS", rng.choice((1, 3, 8, 64)))
            chunks = iter_stream_text(io.StringIO(body[start:]), header)
            got = [v for part in chunks for v in part]
            monkeypatch.undo()
            assert got == list(parse_stream_text("n=50 mode=seq\n" + body[start:]).elements)


@pytest.mark.parametrize("slice_bytes", [1, 3, 1 << 16])
def test_a_map_of_the_back_half_holds_all_the_front_lacks(monkeypatch, slice_bytes):
    monkeypatch.setattr(core, "MAP_SLICE", slice_bytes)
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 30)
        values = list(random_perm(n, rng))
        cut = rng.randint(0, n)
        front, back = values[:cut], values[cut:]
        if back and front and rng.random() < 0.5:  # a front value repeated in the back
            back[rng.randrange(len(back))] = rng.choice(front)
        check = StreamValidator(n, StreamMode.PERMUTATION)
        check.feed(front)
        helper = StreamValidator(n, StreamMode.PERMUTATION)
        helper.feed(back)
        held = bytearray(n + 1)
        helper.mark_held(held)
        assert [v for v in range(n + 1) if held[v]] == sorted(set(back))
        assert check.holds_all_but(held) is (set(front) | set(back) == set(range(1, n + 1))
                                             and not set(front) & set(back))


def test_a_map_marks_far_values_and_a_held_set_is_not_compared(monkeypatch):
    monkeypatch.setattr(core, "DENSE_FLOOR", 4)
    monkeypatch.setattr(core, "DENSE_BYTES_PER_VALUE", 1)
    helper = StreamValidator(100, StreamMode.PERMUTATION)
    helper.feed([90, 2])
    assert helper._far == {90}
    held = bytearray(101)
    helper.mark_held(held)
    assert [v for v in range(101) if held[v]] == [2, 90]
    check = StreamValidator(100, StreamMode.PERMUTATION)
    check.feed([95])
    assert check._far == {95}
    everything_else = bytearray([0] + [1] * 100)
    everything_else[95] = 0
    assert not check.holds_all_but(everything_else)
