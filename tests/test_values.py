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
    StreamInstance,
    StreamMode,
)


def values():
    """Two equal-field builds of each hashable type, and a differing one."""
    return [
        (
            lambda: Pattern((3, 1, 2)),
            Pattern((1, 3, 2)),
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


def test_an_instance_keeps_its_values_as_a_tuple():
    from_list = StreamInstance(n=3, mode=StreamMode.PERMUTATION, elements=[3, 1, 2])
    values = (3, 1, 2)
    from_tuple = StreamInstance(n=3, mode=StreamMode.PERMUTATION, elements=values)
    assert from_list.elements == values and from_tuple.elements is values
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)


@pytest.mark.parametrize("obj, field", [
    (Pattern((2, 1)), "values"),
    (Occurrence(positions=(1,), values=(1,)), "values"),
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


@pytest.mark.parametrize("values, message", [
    ((), "pattern must have at least one value"),
    ((1, 3), r"pattern \(1, 3\) is not a permutation of 1..2"),
    ([2, 2], r"pattern \(2, 2\) is not a permutation of 1..2"),
    ((True,), "pattern values must be ints, got True"),
    ((2.0, 1), r"pattern values must be ints, got 2.0"),
])
def test_pattern_constructor_errors(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Pattern(values)


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
    pattern = Pattern(tuple(range(k, 0, -1)))
    assert len(pattern) == k
    assert str(pattern) == ("".join if k <= 9 else ",".join)(str(v) for v in pattern.values)


def test_values_survive_copy_and_pickle():
    occ = Occurrence(positions=(2, None), values=(1, 2))
    for obj in (
        Pattern((4, 2, 3, 1)),
        occ,
        StreamInstance(n=2, mode=StreamMode.DISTINCT_SEQUENCE, elements=(2,)),
        DetectorReport(True, occ, 1, 2, {"A": 1}),
    ):
        for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert clone == obj and type(clone) is type(obj)
    assert occ.has_future


def test_repr_names_every_field():
    assert repr(Pattern((2, 1))) == (
        "Pattern(values=(2, 1))"
    )
    assert repr(Occurrence(positions=(1, None), values=(1, 2))) == (
        "Occurrence(positions=(1, None), values=(1, 2))"
    )
