import pytest

from bnlimits.curves import (
    CompactCurve,
    Component,
    FactSheet,
    Node,
    SeriesDimFact,
    TorsionPair,
    elliptic_single_point_check,
    elliptic_two_point_check,
    factsheet_check,
    general_pointed_check,
)
from bnlimits.limit_checker import min_complement
from bnlimits.numerology import RamificationSeq, SeriesType, VanishingSeq, vanishing_to_ramification


def _v(entries, d):
    return VanishingSeq(tuple(entries), d)


# ---------------------------------------------------------------------------
# structure validation


def test_component_validation():
    with pytest.raises(ValueError):
        Component("E", 2, "elliptic", ("p",))
    with pytest.raises(ValueError):
        Component("C", 3, "general", ("p",), torsion=(TorsionPair(("p", "q"), 5),))
    with pytest.raises(ValueError):
        Component("E", 1, "elliptic", ("p", "q"), torsion=(TorsionPair(("p", "z"), 5),))
    with pytest.raises(ValueError):
        TorsionPair(("p", "q"), 1)
    with pytest.raises(ValueError):
        Component("C", 3, "mystery", ("p",))


def _chain(torsion_order=9):
    return CompactCurve(
        id="chain",
        genus=23,
        components=(
            Component("C1", 11, "general", ("p1",)),
            Component("E", 1, "elliptic", ("p1", "p2"),
                      torsion=(TorsionPair(("p1", "p2"), torsion_order),)),
            Component("C2", 11, "general", ("p2",)),
        ),
        nodes=(
            Node((("C1", "p1"), ("E", "p1"))),
            Node((("E", "p2"), ("C2", "p2"))),
        ),
    )


def test_curve_validation():
    curve = _chain()
    assert curve.node_points("E") == ["p1", "p2"]
    with pytest.raises(ValueError):  # genus mismatch
        CompactCurve("c", 24, curve.components, curve.nodes)
    with pytest.raises(ValueError):  # disconnected / wrong node count
        CompactCurve("c", 23, curve.components, curve.nodes[:1])
    with pytest.raises(ValueError):  # point reused in two nodes
        CompactCurve(
            "c", 23, curve.components,
            (curve.nodes[0], Node((("C1", "p1"), ("C2", "p2")))),
        )
    with pytest.raises(ValueError):  # self node
        Node((("E", "p1"), ("E", "p2")))
    with pytest.raises(KeyError) as err:  # no such component
        curve.component("C3")
    assert err.value.args == ("C3",)


# ---------------------------------------------------------------------------
# elliptic rules


def test_elliptic_two_point_pass_with_torsion():
    res = elliptic_two_point_check(_v((4, 8, 13), 17), _v((4, 8, 13), 17), 9)
    assert res.passed and res.witness_grade and res.exact


def test_elliptic_two_point_pencil():
    res = elliptic_two_point_check(_v((0, 12), 12), _v((0, 12), 12), 12)
    assert res.passed and res.witness_grade


def test_elliptic_two_point_divisibility_failure():
    res = elliptic_two_point_check(_v((0, 9, 18, 19), 20), _v((1, 2, 11, 20), 20), 9)
    assert res.failed and res.rule == "elliptic-torsion-divisibility"


def test_elliptic_two_point_sum_bound():
    res = elliptic_two_point_check(_v((0, 12), 12), _v((1, 12), 12), 12)
    assert res.failed and res.rule == "elliptic-pair-bound"


def test_elliptic_two_point_needs_declared_torsion():
    res = elliptic_two_point_check(_v((0, 12), 12), _v((0, 12), 12), None)
    assert res.failed and res.rule == "elliptic-torsion-divisibility"


def test_elliptic_two_point_symmetry():
    a, b = _v((2, 7, 13), 17), _v((4, 9, 15), 17)
    left = elliptic_two_point_check(a, b, 9)
    right = elliptic_two_point_check(b, a, 9)
    assert (left.status, left.rule) == (right.status, right.rule)


def test_elliptic_two_point_pass_without_witness_grade():
    # sums well below d - 1 are allowed but prove nothing
    res = elliptic_two_point_check(_v((0, 1), 12), _v((0, 1), 12), None)
    assert res.passed and not res.witness_grade and not res.exact


def test_elliptic_single_point():
    assert elliptic_single_point_check(12, _v((11, 12), 12)).failed
    assert elliptic_single_point_check(12, _v((10, 12), 12)).passed
    assert elliptic_single_point_check(3, _v((1, 2, 3), 3)).failed
    assert elliptic_single_point_check(15, _v((12, 13, 14), 15)).passed
    with pytest.raises(ValueError, match="^sequence bound 12 does not match degree 11$"):
        elliptic_single_point_check(11, _v((10, 12), 12))


def test_elliptic_two_point_bounds_must_match():
    for b in (_v((0, 11), 11), _v((0, 1, 12), 12)):
        with pytest.raises(ValueError, match="^sequence bounds .* differ$"):
            elliptic_two_point_check(_v((0, 12), 12), b, None)


# ---------------------------------------------------------------------------
# general pointed and fact-sheet rules


def _complement_ram(a, d):
    return vanishing_to_ramification(VanishingSeq(min_complement(tuple(a), d), d))


def test_general_pointed_complement_scenarios():
    # hub side (11,12,13,14): the complementary aspect is unobstructed
    t = SeriesType(11, 3, 20)
    assert general_pointed_check(t, [_complement_ram((11, 12, 13, 14), 20)]).passed
    # hub side (0,9,18,19) forces an infeasible complement
    assert general_pointed_check(t, [_complement_ram((0, 9, 18, 19), 20)]).failed


def test_general_pointed_equality_case():
    t = SeriesType(11, 2, 17)
    res = general_pointed_check(t, [RamificationSeq((4, 8, 11), 2, 17)])
    assert res.passed and res.exact


def test_general_pointed_zero_ramification_matches_rho_sign():
    from bnlimits.numerology import rho

    for g, r, d in [(23, 1, 12), (15, 1, 12), (4, 1, 3), (6, 2, 6)]:
        res = general_pointed_check(SeriesType(g, r, d), [])
        assert res.passed == (rho(SeriesType(g, r, d)) >= 0)


def test_general_pointed_cusp_route():
    t = SeriesType(10, 2, 17)
    res = general_pointed_check(t, [RamificationSeq((4, 8, 11), 2, 17)], extra_cusps=1)
    assert res.passed and res.rule == "general-pointed-cusp-clamp"
    res = general_pointed_check(t, [RamificationSeq((4, 8, 12), 2, 17)], extra_cusps=1)
    assert res.failed


def test_general_pointed_multipoint_route():
    t = SeriesType(10, 2, 17)
    rams = [RamificationSeq((4, 8, 11), 2, 17), RamificationSeq((0, 1, 1), 2, 17)]
    res = general_pointed_check(t, rams)
    assert res.passed and res.rule == "schubert-nonvanishing"


# the rule label and the answers for genus 0..11 of g^2_7 with the first `points` of
# (0,1,1), (0,0,2), (1,1,1) and `cusps` cusps, by (points, cusps); `exist` prints the label,
# so it stays whichever criterion decides the shape
SHAPES = {
    (0, 0): ("general-pointed-clamp", "yyyyyyyynnnn"),
    (0, 1): ("schubert-nonvanishing", "yyyyyyynnnnn"),
    (0, 2): ("schubert-nonvanishing", "yyyyyynnnnnn"),
    (1, 0): ("general-pointed-clamp", "yyyyyyynnnnn"),
    (1, 1): ("general-pointed-cusp-clamp", "yyyyyynnnnnn"),
    (1, 2): ("schubert-nonvanishing", "yyyyynnnnnnn"),
    (2, 0): ("schubert-nonvanishing", "yyyyyynnnnnn"),
    (2, 1): ("schubert-nonvanishing", "yyyyynnnnnnn"),
    (2, 2): ("schubert-nonvanishing", "yyyynnnnnnnn"),
    (3, 0): ("schubert-nonvanishing", "yyyyynnnnnnn"),
    (3, 1): ("schubert-nonvanishing", "yyyynnnnnnnn"),
    (3, 2): ("schubert-nonvanishing", "yyynnnnnnnnn"),
}


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "%d-points-%d-cusps" % shape)
def test_general_pointed_rule_label_by_shape(shape):
    points, cusps = shape
    rams = [RamificationSeq(a, 2, 7) for a in ((0, 1, 1), (0, 0, 2), (1, 1, 1))][:points]
    results = [general_pointed_check(SeriesType(g, 2, 7), rams, cusps) for g in range(12)]
    assert {res.rule for res in results} == {SHAPES[shape][0]}
    assert all(res.exact for res in results)
    assert "".join("y" if res.passed else "n" for res in results) == SHAPES[shape][1]


def test_factsheet_counting():
    facts = FactSheet((SeriesDimFact(1, 12, 7),), gonality=6)
    t = SeriesType(15, 1, 12)
    cusp = RamificationSeq((0, 1), 1, 12)
    res = factsheet_check(facts, t, [cusp] * 8)
    assert res.failed and res.rule == "factsheet-ramification-count"
    assert factsheet_check(facts, t, [cusp] * 7).status == "unknown"
    no_fact = RamificationSeq((1, 1, 1), 2, 15)
    assert factsheet_check(facts, SeriesType(15, 2, 15), [no_fact]).status == "unknown"
    assert factsheet_check(None, t, [cusp]).status == "unknown"


def test_factsheet_counting_needs_general_points():
    facts = FactSheet((SeriesDimFact(1, 12, 7),), gonality=6, points_general=False)
    cusp = RamificationSeq((0, 1), 1, 12)
    res = factsheet_check(facts, SeriesType(15, 1, 12), [cusp] * 8)
    assert res.status == "unknown" and "not asserted general" in res.detail
