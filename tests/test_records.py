"""The six result records are named tuples: immutable, equal and hashed by
value, with the reprs and validation messages of their fields."""

from fractions import Fraction

import pytest

from seqlab.bessel import GesselCheck
from seqlab.growth import ConstantEstimate, GrowthParams, conjectured_params
from seqlab.oeis import OeisMatch
from seqlab.recurrences import PRecurrence
from seqlab.storage import SequenceRecord

# each record built twice from equal fields, positionally and by keyword
PAIRS = {
    "GrowthParams": (GrowthParams(4, Fraction(3, 2)), conjectured_params(3, 1)),
    "ConstantEstimate": (
        ConstantEstimate(8, 1, ((1, 0.25, None),), (0.5,)),
        ConstantEstimate(stride=8, levels=1, rows=((1, 0.25, None),), estimates=(0.5,)),
    ),
    "GesselCheck": (
        GesselCheck(3, 5, ((4, Fraction(23), 24),)),
        GesselCheck(k=3, n_max=5, failures=((4, Fraction(23), 24),)),
    ),
    "OeisMatch": (
        OeisMatch("A000108", "Catalan numbers", 1),
        OeisMatch(identifier="A000108", name="Catalan numbers", offset=1),
    ),
    # canonicalized when made: content 2 divided out, the sign flipped
    "PRecurrence": (PRecurrence(((4, 8), (-4, -2))), PRecurrence(coeffs=[[-2, -4], [2, 1]], offset=0)),
    "SequenceRecord": (
        SequenceRecord(3, 1, (1, 1, 2), "computed"),
        SequenceRecord(d=3, r=1, terms=[1, 1, 2]),
    ),
}

FIELDS = {
    "GrowthParams": ("mu", "alpha"),
    "ConstantEstimate": ("stride", "levels", "rows", "estimates"),
    "GesselCheck": ("k", "n_max", "failures"),
    "OeisMatch": ("identifier", "name", "offset"),
    "PRecurrence": ("coeffs", "offset"),
    "SequenceRecord": ("d", "r", "terms", "provenance"),
}


@pytest.mark.parametrize("name", PAIRS)
def test_equal_fields_give_equal_records_with_equal_hashes(name):
    one, other = PAIRS[name]
    assert one == other
    assert hash(one) == hash(other)
    assert repr(one) == repr(other)
    assert repr(one).startswith(f"{name}(")


@pytest.mark.parametrize("name", PAIRS)
def test_records_are_immutable(name):
    record, _ = PAIRS[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == PAIRS[name][1]


def test_reprs():
    assert repr(conjectured_params(3, 1)) == "GrowthParams(mu=4, alpha=Fraction(3, 2))"
    assert repr(PAIRS["PRecurrence"][0]) == "PRecurrence(coeffs=((-2, -4), (2, 1)), offset=0)"
    assert repr(PAIRS["SequenceRecord"][0]) == (
        "SequenceRecord(d=3, r=1, terms=(1, 1, 2), provenance='computed')"
    )


@pytest.mark.parametrize("make, message", [
    (lambda: SequenceRecord(1, 1, (1,)), "need d >= 2 and r >= 1"),
    (lambda: SequenceRecord(3, 0, (1,)), "need d >= 2 and r >= 1"),
    (lambda: SequenceRecord(3, 1, ()), "a record must hold at least one term"),
    (lambda: SequenceRecord(3, 1, (2, 3)), "terms must start at index 0 with the value 1"),
    (lambda: SequenceRecord(3, 1, (1,), "guessed"), "unknown provenance 'guessed'"),
    (lambda: PRecurrence(((1,),)), "a recurrence needs order at least 1"),
    (lambda: PRecurrence(((1,), (0,))), "the highest-shift coefficient polynomial is zero"),
    (lambda: PRecurrence(((1,), (1,)), -1), "offset must be nonnegative"),
    (lambda: OeisMatch("000108", "", 0), "bad OEIS identifier '000108'"),
    (lambda: OeisMatch("A1", "", 0), "bad OEIS identifier 'A1'"),
])
def test_validated_records_keep_their_messages(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message

