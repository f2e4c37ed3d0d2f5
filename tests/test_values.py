"""Value semantics of the immutable result and input types.

Equal fields give equal objects with equal hashes, fields cannot be
assigned, the constructors keep their checks and messages, and the objects
survive copying and pickling.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from permstream import (
    DetectorReport,
    Occurrence,
    Pattern,
    PatternKind,
    StreamInstance,
    StreamMode,
    classify_pattern,
    stream_violation,
)


def values():
    """Two equal-field builds of each hashable type, and a differing one."""
    return [
        (
            lambda: Pattern((3, 1, 2), PatternKind.NONMONOTONE3),
            classify_pattern((1, 3, 2)),
        ),
        (
            lambda: Occurrence(positions=(1, 4, None), values=(3, 1, 2)),
            Occurrence(positions=(1, 4, 5), values=(3, 1, 2)),
        ),
        (
            lambda: StreamInstance(n=3, mode=StreamMode.PERMUTATION, elements=(3, 1, 2)),
            StreamInstance(n=3, mode=StreamMode.DISTINCT_SEQUENCE, elements=(3, 1, 2)),
        ),
    ]


@pytest.mark.parametrize("build, other", values())
def test_equal_fields_give_equal_objects_and_hashes(build, other):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other


def test_report_equality_follows_its_fields():
    occ = Occurrence(positions=(1, 2), values=(2, 1))
    a = DetectorReport(True, occ, 3, 9, {"A": 1})
    b = DetectorReport(verdict=True, occurrence=occ, peak_cells=3, peak_bits=9,
                       structure_peaks={"A": 1})
    assert a == b
    assert a != DetectorReport(True, occ, 3, 9, {"A": 2})
    with pytest.raises(TypeError):
        DetectorReport(False, None, 0, 0)  # every field is required
    with pytest.raises(TypeError):
        hash(a)  # its structure_peaks dict is unhashable


def test_a_checked_instance_equals_an_unchecked_one():
    checked = StreamInstance(n=3, mode=StreamMode.PERMUTATION, elements=(3, 1, 2))
    assert stream_violation(checked) is None
    fresh = StreamInstance(n=3, mode=StreamMode.PERMUTATION, elements=(3, 1, 2))
    assert checked == fresh and hash(checked) == hash(fresh)


@pytest.mark.parametrize("obj, field", [
    (classify_pattern((2, 1)), "values"),
    (classify_pattern((2, 1)), "kind"),
    (Occurrence(positions=(1,), values=(1,)), "positions"),
    (StreamInstance(n=1, mode=StreamMode.PERMUTATION, elements=(1,)), "elements"),
    (DetectorReport(False, None, 0, 0, {}), "verdict"),
])
def test_fields_cannot_be_assigned(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert getattr(obj, field) == before


@pytest.mark.parametrize("values, kind, message", [
    ((), PatternKind.OTHER, "pattern must have at least one value"),
    ((1, 3), PatternKind.INCREASING, r"pattern \(1, 3\) is not a permutation of 1..2"),
    ((2, 2), PatternKind.OTHER, r"pattern \(2, 2\) is not a permutation of 1..2"),
    ((2, 1), PatternKind.INCREASING,
     r"pattern \(2, 1\) has kind PatternKind.DECREASING, not PatternKind.INCREASING"),
])
def test_pattern_constructor_errors(values, kind, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Pattern(values, kind)


@pytest.mark.parametrize("positions, values, message", [
    ((1, 2), (1,), "positions and values must have equal length"),
    ((None, 2), (2, 1), "only the final position may be a future marker"),
    ((2, 2), (2, 1), r"positions must be strictly increasing, got \(2, 2\)"),
    ((0, 1), (2, 1), "positions are 1-based"),
])
def test_occurrence_constructor_errors(positions, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Occurrence(positions=positions, values=values)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 12])
def test_pattern_length_is_k(k):
    pattern = classify_pattern(tuple(range(k, 0, -1)))
    assert len(pattern) == k
    assert str(pattern) == ("".join if k <= 9 else ",".join)(str(v) for v in pattern.values)


def test_values_survive_copy_and_pickle():
    occ = Occurrence(positions=(2, None), values=(1, 2))
    for obj in (
        classify_pattern((4, 2, 3, 1)),
        occ,
        StreamInstance(n=2, mode=StreamMode.DISTINCT_SEQUENCE, elements=(2,)),
        DetectorReport(True, occ, 1, 2, {"A": 1}),
    ):
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert clone == obj and type(clone) is type(obj)
    assert occ.has_future


def test_repr_names_every_field():
    assert repr(classify_pattern((2, 1))) == (
        "Pattern(values=(2, 1), kind=<PatternKind.DECREASING: 'decreasing'>)"
    )
    assert repr(Occurrence(positions=(1, None), values=(1, 2))) == (
        "Occurrence(positions=(1, None), values=(1, 2))"
    )
