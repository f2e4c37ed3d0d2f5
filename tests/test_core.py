from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from permstream import (
    Occurrence,
    PatternKind,
    StreamInstance,
    StreamMode,
    classify_pattern,
    complement,
    format_stream_text,
    is_order_isomorphic,
    parse_pattern,
    parse_stream_text,
    stream_violation,
)
from permstream.cli import _file_chunks
from permstream.core import collect_stream
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


def test_classify_pattern_kinds():
    assert classify_pattern((1, 2, 3)).kind is PatternKind.INCREASING
    assert classify_pattern((3, 2, 1)).kind is PatternKind.DECREASING
    assert classify_pattern((3, 1, 2)).kind is PatternKind.NONMONOTONE3
    assert classify_pattern((4, 2, 3, 1)).kind is PatternKind.OTHER
    assert classify_pattern((1,)).kind is PatternKind.INCREASING


def test_classify_pattern_rejects_bad_values():
    with pytest.raises(ValueError):
        classify_pattern((1, 3))
    with pytest.raises(ValueError):
        classify_pattern(())


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


def test_stream_violation_reasons():
    assert stream_violation(
        StreamInstance(n=3, mode=StreamMode.PERMUTATION, elements=(1, 2))
    ) is not None
    assert "duplicate" in stream_violation(perm_instance((1, 1, 2)))
    assert "range" in stream_violation(seq_instance((5,), n=4))
    assert stream_violation(StreamInstance(n=0, mode=StreamMode.PERMUTATION, elements=()))


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
