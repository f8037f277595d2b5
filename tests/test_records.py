"""The record types are named tuples: immutable, with the checks and reprs
they had as frozen dataclasses, and the semantics of a tuple."""

import random

import pytest

from curvelift.diagrams import Diagram, Violation
from curvelift.errors import MalformedAssociatedSubgroup
from curvelift.hnn import HNNExtension, HNNWord
from curvelift.lifting import LiftClass, TwistedShadow
from curvelift.moves import _KINDS, EquivalenceVerdict, MoveInstance, SearchBudget
from curvelift.snf import AbelianGroup, BundleFit
from curvelift.surfaces import BundleKind, CircleBundle, GroupPresentation, Surface
from curvelift.words import GroupElementExpr

S2 = Surface(2)
CIRCLE = Diagram(S2, "smooth", ((("qturn", 1),) * 4,))
EXT = HNNExtension(("a", "b", "c"), frozenset("a"), frozenset("b"), (("a", "b"),))

# one valid record of each type
RECORDS = [
    S2,
    GroupPresentation(("a", "b"), ("abAB",), (("a", "a1"), ("b", "b1"))),
    CircleBundle.unit_tangent(S2),
    CIRCLE,
    Violation("CuspInSmoothMode", 0, "cusp event present"),
    LiftClass((0, 0, 0, 0), 1, -2),
    TwistedShadow(CIRCLE, (((0, 1), 2),)),
    AbelianGroup(4, (2,)),
    BundleFit(2, (2, -2)),
    GroupElementExpr("ab", (("c", 1),)),
    EXT,
    HNNWord(EXT, ("a", "c"), (1,)),
    MoveInstance("stab", (0, 1, "lr")),
    _KINDS["stab"],
    SearchBudget(),
    EquivalenceVerdict("unknown"),
]


# (type, the fields its check rejects, in field order, exception)
REJECTED = [
    (Surface, {"genus": -1}, ValueError),
    (GroupPresentation, {"generators": ("a",), "relators": ("ab",)}, ValueError),
    (CircleBundle, {"base": S2, "kind": BundleKind.UNIT_TANGENT, "euler_number": 0}, ValueError),
    (Diagram, {"surface": S2, "mode": "bogus", "components": ()}, ValueError),
    (LiftClass, {"base_part": (0, 0, 0, 0), "fiber_part": 5, "euler_number": 2}, ValueError),
    (TwistedShadow, {"diagram": Diagram(S2, "smooth", ((("kink", 1),),))}, ValueError),
    (AbelianGroup, {"rank": 1, "torsion": (4, 2)}, ValueError),
    (GroupElementExpr, {"w": "a", "factors": (("b", 2),)}, ValueError),
    (
        HNNExtension,
        {"generators": ("a", "b"), "a_letters": frozenset("a"), "b_letters": frozenset("c"),
         "phi": (("a", "c"),)},
        MalformedAssociatedSubgroup,
    ),
    (HNNWord, {"extension": EXT, "base_words": ("",), "signs": (1,)}, ValueError),
    (SearchBudget, {"max_moves": -1}, ValueError),
]


@pytest.mark.parametrize("cls, fields, error", REJECTED, ids=[c.__name__ for c, _, _ in REJECTED])
def test_record_checks_its_fields(cls, fields, error):
    with pytest.raises(error):
        cls(*fields.values())
    with pytest.raises(error):
        cls(**fields)


@pytest.mark.parametrize("cls, fields, error", REJECTED, ids=[c.__name__ for c, _, _ in REJECTED])
def test_replace_and_make_check_the_fields(cls, fields, error):
    valid = next(r for r in RECORDS if type(r) is cls)
    assert valid._replace() == valid and cls._make(valid) == valid
    with pytest.raises(error):
        valid._replace(**fields)
    with pytest.raises(error):
        cls._make({**valid._asdict(), **fields}.values())


def test_records_are_immutable_tuples():
    assert len({type(r) for r in RECORDS}) == 16
    for record in RECORDS:
        assert isinstance(record, tuple) and record._fields
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    assert S2 == (2, 0) and hash(S2) == hash((2, 0))
    genus, boundary = Surface(3, 1)
    assert (genus, boundary) == (3, 1)
    assert S2._replace(boundary=1) == Surface(2, 1)
    assert SearchBudget()._asdict() == {
        "max_moves": 6, "max_states": 100000, "transvection_generators": ()
    }


def test_records_have_no_instance_dict():
    # __slots__ = () on every record type: a record holds its fields and nothing else
    for record in RECORDS:
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_record_reprs():
    assert repr(S2) == "Surface(genus=2, boundary=0)"
    assert repr(MoveInstance("stab", (0, 1, "lr"))) == (
        "MoveInstance(kind='stab', site=(0, 1, 'lr'))"
    )
    assert repr(EquivalenceVerdict("unknown")) == (
        "EquivalenceVerdict(status='unknown', certificate=None, invariant=None)"
    )
    assert repr(Diagram(S2, "smooth", ((("qturn", 1),),))) == (
        "Diagram(surface=Surface(genus=2, boundary=0), mode='smooth', "
        "components=((('qturn', 1),),))"
    )
    assert str(S2) == "Sigma_2" and str(AbelianGroup(4, (2,))) == "Z^4 + Z/2"


def test_moves_sort_by_kind_site():
    # a transvection's site is its curve data
    moves = [
        MoveInstance(kind, site)
        for kind in ("stab", "destab", "r3")
        for site in ((0, 1), (0, 0, "lr"), (1,))
    ] + [
        MoveInstance("transvection", data)
        for data in ((("a", 1, ()),), (("a", -1, ()),), (("a", 1, ((0, 2, 1),)),), ())
    ]
    shuffled = moves[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == sorted(moves, key=lambda m: (m.kind, m.site))
    assert MoveInstance._fields == ("kind", "site")
