"""Contract of the immutable value types: normalisation, error messages,
immutability, keyword construction and defaults, and a cold import that
does not load the dataclass machinery."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bnlimits
from bnlimits.curvefile import CurveDescription, Witness
from bnlimits.curves import (
    CheckResult,
    CompactCurve,
    Component,
    FactSheet,
    Node,
    SeriesDimFact,
    TorsionPair,
)
from bnlimits.limit_checker import (
    AdditivityAudit,
    ComponentAudit,
    NodeAudit,
    RefutationReport,
    Survivor,
    WitnessReport,
    _Branch,
    _BranchTable,
)
from bnlimits.modspace import BoundaryRow, Decomposition, DivisorClass, PlanePencil
from bnlimits.numerology import RamificationSeq, SeriesType, VanishingSeq
from bnlimits.schubert import CohomologyClass


def _chain(genus=23, c2_genus=11, nodes=None, components=None):
    components = components or (
        Component("C1", 11, "general", ["p1"]),
        Component("E", 1, "elliptic", ["p1", "p2"], [TorsionPair(["p2", "p1"], 9)]),
        Component("C2", c2_genus, "general", ["p2"]),
    )
    nodes = nodes or [Node([["E", "p1"], ["C1", "p1"]]), Node((("E", "p2"), ("C2", "p2")))]
    return CompactCurve("chain", genus, components, nodes)


def _samples():
    """One instance of each of the 25 value types."""
    comp = Component("E", 1, "elliptic", ("p",))
    curve = _chain()
    audit = AdditivityAudit(-1, -1, True, True)
    return [
        Witness("w", (1, 12), ()),
        CurveDescription(curve, ()),
        SeriesDimFact(1, 12, 7),
        FactSheet(),
        TorsionPair(("p", "q"), 9),
        comp,
        Node((("A", "p"), ("B", "p"))),
        curve,
        CheckResult("pass", "rule"),
        audit,
        Survivor(()),
        RefutationReport("c", (1, 12), "refuted", 0, (), 0, (), False, True, ()),
        NodeAudit("A.p~B.p", (12, 12), "refined"),
        ComponentAudit("E", "pass", True, False, "rule", ""),
        WitnessReport("c", (1, 12), "confirmed", (), (), (), (), audit, True, ()),
        _Branch("tail", ((comp, "p", None),)),
        _BranchTable(b"\x01"),
        DivisorClass(2, 1, (0, 0)),
        Decomposition(23, Fraction(1, 2), Fraction(0), ()),
        PlanePencil(11, 22, 33, 23, 146, Fraction(146, 23), False),
        BoundaryRow(1, Fraction(8), Fraction(16), 16, True),
        SeriesType(23, 1, 12),
        VanishingSeq((0, 12), 12),
        RamificationSeq((0, 11), 1, 12),
        CohomologyClass((2, 11), {(1,): 1}),
    ]


def test_every_value_type_has_a_sample():
    assert len({type(x) for x in _samples()}) == 25


@pytest.mark.parametrize("value", _samples(), ids=lambda v: type(v).__name__)
def test_value_types_are_immutable(value):
    first = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_validated_types_normalise_their_fields():
    assert TorsionPair(["q", "p"], 9).points == ("p", "q")
    comp = Component("E", 1, "elliptic", ["p", "q"], [TorsionPair(("q", "p"), 3)])
    assert comp.points == ("p", "q") and comp.torsion == (TorsionPair(("p", "q"), 3),)
    assert Node([["B", "q"], ["A", "p"]]).ends == (("A", "p"), ("B", "q"))
    curve = _chain()
    assert isinstance(curve.components, tuple) and isinstance(curve.nodes, tuple)
    assert curve.nodes[0].ends == (("C1", "p1"), ("E", "p1"))
    assert VanishingSeq([0, 2], 5).entries == (0, 2)
    assert RamificationSeq([0, 2], 1, 5).entries == (0, 2)
    cls = DivisorClass(2, 3, [1, Fraction(1, 2)])
    assert type(cls.lam) is Fraction and all(type(x) is Fraction for x in cls.delta)
    assert cls.delta == (1, Fraction(1, 2))
    assert CohomologyClass((2, 2), {(1, 0): 2, (2,): 0}).terms == {(1,): 2}
    assert CohomologyClass((2, 2)).terms == {} and CohomologyClass((2, 2), None).terms == {}


@pytest.mark.parametrize("build,message", [
    (lambda: SeriesType(-1, 0, 0), "series type needs nonnegative g, r, d; got g^0_0 (genus -1)"),
    (lambda: SeriesType(5, 3, 2), "series dimension r=3 exceeds degree d=2"),
    (lambda: VanishingSeq((), 3), "vanishing sequence must be nonempty"),
    (lambda: VanishingSeq([0, 4], 3), "vanishing sequence (0, 4) out of range [0, 3]"),
    (lambda: VanishingSeq([1, 1], 3), "vanishing sequence (1, 1) is not strictly increasing"),
    (lambda: RamificationSeq([0], 1, 3), "expected 2 entries, got (0,)"),
    (lambda: RamificationSeq([0, 3], 1, 3), "ramification sequence (0, 3) out of range [0, 2]"),
    (lambda: RamificationSeq([2, 1], 1, 3), "ramification sequence (2, 1) is not weakly increasing"),
    (lambda: TorsionPair(("p", "p"), 3), "torsion pair needs two distinct points"),
    (lambda: TorsionPair(("p", "q"), 1), "torsion order must be >= 2, got 1"),
    (lambda: Component("C", 3, "mystery", ("p",)), "unknown component kind 'mystery'"),
    (lambda: Component("C", -1, "general", ("p",)), "genus must be nonnegative"),
    (lambda: Component("C", 3, "general", ["p", "p"]), "duplicate marked points on C"),
    (lambda: Component("E", 2, "elliptic", ("p",)), "elliptic component E must have genus 1"),
    (lambda: Component("C", 3, "general", ("p", "q"), (TorsionPair(("p", "q"), 5),)),
     "torsion data only allowed on elliptic components (C)"),
    (lambda: Component("C", 3, "general", ("p",), facts=FactSheet()),
     "fact sheet only allowed on factsheet components (C)"),
    (lambda: Component("E", 1, "elliptic", ("p", "q"), (TorsionPair(("p", "z"), 5),)),
     "torsion point z is not marked on E"),
    (lambda: Node((("A", "p"), ("A", "q"))), "node joins component A to itself"),
    (lambda: _chain(components=(Component("C", 1, "general", ("p",)),) * 2),
     "duplicate component ids"),
    (lambda: _chain(nodes=[Node((("E", "p1"), ("X", "p1")))]), "node references unknown component X"),
    (lambda: _chain(nodes=[Node((("E", "p1"), ("C1", "p9")))]), "node references unknown point C1.p9"),
    (lambda: _chain(nodes=[Node((("E", "p1"), ("C1", "p1"))), Node((("E", "p1"), ("C2", "p2")))]),
     "marked point E.p1 appears in two nodes"),
    (lambda: _chain(nodes=[Node((("E", "p1"), ("C1", "p1")))]),
     "dual graph is not a tree (wrong node count)"),
    (lambda: CompactCurve("cycle", 4, (
        Component("A", 1, "general", ("p", "q")),
        Component("B", 1, "general", ("p", "q")),
        Component("C", 2, "general", ("p",)),
    ), (Node((("A", "p"), ("B", "p"))), Node((("A", "q"), ("B", "q"))))),
     "dual graph is not a tree (disconnected)"),
    (lambda: _chain(c2_genus=10), "component genera sum to 22, declared genus is 23"),
    (lambda: DivisorClass(23, 26, (1,)), "need 12 delta coefficients for genus 23, got 1"),
    (lambda: Decomposition(23, Fraction(-1), Fraction(0), ()), "leading coefficient must be nonnegative"),
    (lambda: CohomologyClass((2, 2), {(3,): 1}), "partition (3,) does not fit in a 2x2 rectangle"),
])
def test_validated_types_keep_their_error_messages(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_keyword_construction_and_defaults():
    assert SeriesType(d=12, r=1, g=23) == SeriesType(23, 1, 12)
    assert VanishingSeq(d=5, entries=(0, 5)).r == 1
    comp = Component(id="C", genus=3, kind="general", points=("p",))
    assert (comp.torsion, comp.facts) == ((), None)
    assert FactSheet() == FactSheet(series_dims=(), gonality=None, points_general=True)
    assert CheckResult("fail", "rule") == CheckResult("fail", "rule", exact=False,
                                                      witness_grade=False, detail="")
    assert Survivor(assignment=()).unconfirmed == ()
    assert Witness("w", (1, 12), ()).description == ""
    assert not DivisorClass(g=2, lam=1, delta=(0, 0)).normalized_up_to_scale
    assert CohomologyClass(rect=(1, 1)).is_zero()
    branch = _Branch(kind="general", parts=((comp, "p", None),))
    assert (branch.links, branch.key) == ((), ("general", 3, None, ()))
    assert _BranchTable(b"\x00") == _BranchTable(live=b"\x00", good_in=(), floor=None)


def test_value_types_compare_by_field_values():
    assert SeriesType(23, 1, 12) == (23, 1, 12)
    assert hash(SeriesType(23, 1, 12)) == hash((23, 1, 12))
    g, r, d = SeriesType(23, 1, 12)
    assert (g, r, d) == (23, 1, 12)


def test_cold_import_loads_no_dataclass_machinery():
    src = str(Path(bnlimits.__file__).resolve().parents[1])
    probe = ("import sys, bnlimits.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout == "[]\n"


def test_package_imports_a_module_on_first_use():
    # the Schubert calculus alone does not compile or hold the limit engine
    src = str(Path(bnlimits.__file__).resolve().parents[1])
    probe = ("import sys, bnlimits.schubert; "
             "print(sorted(m for m in sys.modules if m.startswith('bnlimits'))); "
             "print(bnlimits.refute.__module__, bnlimits.modspace.__name__)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout == ("['bnlimits', 'bnlimits.numerology', 'bnlimits.schubert']\n"
                          "bnlimits.limit_checker bnlimits.modspace\n")
    assert sorted(bnlimits.__all__) == bnlimits.__all__
    assert all(getattr(bnlimits, name) for name in bnlimits.__all__)
    with pytest.raises(AttributeError):
        bnlimits.no_such_name
