"""The record types: immutable, compared and hashed by value, printed as
Name(field=value, ...), and picklable for the verify process pool."""

import pickle
from fractions import Fraction

import pytest

from rootheight import (ArithSeq, IdentityReport, RootSystemId, build,
                        coxeter_element, munagi_decompose, singularity_data)
from rootheight.exactalg import Polynomial


def _records():
    """Each record type with one of its fields."""
    rs = build(RootSystemId("A", 3))
    return [
        (RootSystemId("A", 3), "rank"),
        (coxeter_element(rs), "charpoly"),
        (ArithSeq(3, (1, 2, 3)), "values"),
        (IdentityReport("prop1", "A3", "pass"), "verdict"),
        (munagi_decompose(Polynomial((1, 2)), 4), "parts"),
        (singularity_data(rs), "a"),
    ]


@pytest.mark.parametrize("record,field", _records(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_assignment_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_arith_seq_checks_period_length():
    with pytest.raises(ValueError, match="period length mismatch"):
        ArithSeq(3, (1, 2))
    assert ArithSeq(2, (Fraction(1, 2), 3)).values == (Fraction(1, 2), 3)


def test_root_system_id_value_semantics():
    a, b = RootSystemId("A", 3), RootSystemId("A", 3)
    assert a == b and hash(a) == hash(b)
    assert a != RootSystemId("A", 4) and a != RootSystemId("D", 3)
    assert len({a, b, RootSystemId("B", 3)}) == 2
    assert str(a) == "A3"
    assert (a.family, a.rank) == ("A", 3)


def test_reprs():
    assert repr(RootSystemId("A", 3)) == "RootSystemId(family='A', rank=3)"
    assert repr(ArithSeq(2, (1, 2))) == "ArithSeq(h=2, values=(1, 2))"
    assert repr(IdentityReport("prop1", "A3", "fail", "w")) == (
        "IdentityReport(identity_id='prop1', system='A3', verdict='fail', "
        "witness='w')")
    assert repr(singularity_data(build(RootSystemId("A", 3)))).startswith(
        "SingularityData(id=RootSystemId(family='A', rank=3), a=")


def test_identity_report_defaults_and_views():
    report = IdentityReport("prop1", "A3", "pass")
    assert report.witness is None and report.passed
    assert report.as_dict() == {"id": "prop1", "verdict": "pass", "witness": None}
    failed = IdentityReport("prop1", "A3", "fail", "w")
    assert not failed.passed and failed.as_dict()["witness"] == "w"


def test_munagi_reconstruct():
    numer = Polynomial((1, 2, 0, 5))
    assert munagi_decompose(numer, 4).reconstruct() == numer


def test_pickle_round_trip():
    for record in (RootSystemId("E", 8),
                   IdentityReport("eq5", "D6", "fail", "7 vs 1"),
                   IdentityReport("prop1", "A3", "pass")):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
        assert repr(copy) == repr(record)
