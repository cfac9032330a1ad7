"""The library's immutable records: named tuples whose fields cannot be
assigned and which take no new attributes."""

import pytest

from delpezzo.classifier import CoverHypothesis, FilterVerdict, lemma1_table
from delpezzo.fpgroups import Presentation
from delpezzo.lattice import DynkinType, NonGorensteinCyclic, NotADE
from delpezzo.plane_action import FiniteActionGroup, MonomialMatrix, Unsupported

TOP = lemma1_table()[1]
RECORDS = [
    (DynkinType("A", 1), "rank"),
    (NotADE("a loop"), "reason"),
    (NonGorensteinCyclic(3, 1, 1), "r"),
    (MonomialMatrix.identity(), "scalars"),
    (FiniteActionGroup((MonomialMatrix.identity(),)), "elements"),
    (Unsupported("reflections"), "reason"),
    (TOP, "d"),
    (CoverHypothesis(TOP, 2, (), ()), "degree"),
    (FilterVerdict(True), "ok"),
    (Presentation(1, ((1, 1),)), "relators"),
]


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_compare_and_hash_by_their_fields():
    assert DynkinType("A", 2) < DynkinType("A", 10) < DynkinType("D", 4)
    assert hash(DynkinType("E", 6)) == hash(DynkinType("E", 6))
    assert FilterVerdict(False, "K2NotInteger") == FilterVerdict(False, "K2NotInteger", "")
    assert TOP._replace(name="Q").name == "Q" and TOP.name == "A1"
