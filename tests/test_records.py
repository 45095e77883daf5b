"""The immutable value records: Part, GenPartition, XModel, Specialization,
TruncSeries, HypersurfaceDensity and LimitReport.

Each is frozen, and each hashes as the tuple of its fields, so that sets and
dicts keyed on them iterate in a fixed order for a fixed PYTHONHASHSEED.
"""

from fractions import Fraction

import pytest

from disczeta.errors import InputError
from disczeta.genfun import HypersurfaceDensity, LimitReport
from disczeta.models import COUNT, Specialization, XModel
from disczeta.motive import GRADING_POINTS, TruncSeries
from disczeta.partitions import GenPartition, Part

# (record, the names of its fields in order)
RECORDS = [
    (Part.integer(3), ("coeffs",)),
    (GenPartition.integers((1, 2, 2)), ("parts",)),
    (XModel.proj_space(2), ("kind", "dim", "params")),
    (Specialization(COUNT, 3), ("target", "q")),
    (TruncSeries((1, 2, Fraction(1, 2)), GRADING_POINTS), ("coeffs", "grading")),
    (HypersurfaceDensity(Fraction(3, 8), "1/zeta_X(2)", 4, Fraction(1, 81)),
     ("value", "expression", "codim_cutoff", "tail_indicator")),
    (LimitReport(Fraction(1, 2), 10, Fraction(1, 3**11), "by Sym^j", "zeta_X(2)"),
     ("value", "codim_cutoff", "tail_indicator", "normalization", "zeta_expression")),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    assert hash(record) == hash(values)
    assert record == type(record)(*values)
    assert hash(record) == hash(type(record)(*values))


@pytest.mark.parametrize("make", [
    lambda: Specialization("bogus"),
    lambda: Specialization(COUNT, 1),
    lambda: TruncSeries(()),
    lambda: TruncSeries((1,), "bogus"),
])
def test_validation_still_raises(make):
    with pytest.raises(InputError):
        make()


def test_slots_records_equal_only_their_own_class():
    lam = GenPartition.integers((1, 2))
    assert not isinstance(lam, tuple)
    assert lam != (lam.parts,) and lam != lam.parts
    series = TruncSeries((1, 2))
    assert series != ((1, 2), series.grading)
    assert series != TruncSeries((1, 2), GRADING_POINTS)
    assert series == TruncSeries.from_coeffs([1, 2])
    # the NamedTuple records: equal only to their own class, and no tuple arithmetic or ordering
    for record, fields in RECORDS:
        if not isinstance(record, tuple):
            continue
        values = tuple(getattr(record, name) for name in fields)
        assert record != values and values != record and not record == values
        assert record == type(record)(*values) and not record != type(record)(*values)
        for op in (lambda r: r * 2, lambda r: 2 * r, lambda r: r + (), lambda r: () + r,
                   lambda r: r < values, lambda r: values < r, lambda r: r >= r):
            with pytest.raises(TypeError):
                op(record)
    assert Specialization(COUNT, 3) != (COUNT, 3)
    assert Part.integer(1) + Part.integer(1) == Part.integer(2)
