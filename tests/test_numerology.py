import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlimits.curves import RULE_GENERAL_CUSP, general_pointed_check
from bnlimits.numerology import (
    RamificationSeq,
    SeriesType,
    VanishingSeq,
    adjusted_rho,
    bn_divisor_pairs,
    bn_divisor_triples,
    pointed_exists,
    ramification_to_vanishing,
    residual,
    rho,
    vanishing_to_ramification,
    weight,
)


def test_rho_goldens():
    assert rho(SeriesType(23, 1, 12)) == -1
    assert rho(SeriesType(23, 2, 17)) == -1
    assert rho(SeriesType(23, 3, 20)) == -1
    assert rho(SeriesType(15, 1, 12)) == 7
    assert rho(SeriesType(0, 0, 0)) == 0


def test_series_type_validation():
    with pytest.raises(ValueError):
        SeriesType(5, 4, 3)
    with pytest.raises(ValueError):
        SeriesType(-1, 0, 0)


def test_vanishing_sequence_validation():
    with pytest.raises(ValueError):
        VanishingSeq((3, 3, 5), 10)
    with pytest.raises(ValueError):
        VanishingSeq((0, 11), 10)
    with pytest.raises(ValueError):
        VanishingSeq((-1, 2), 10)


def test_ramification_sequence_validation():
    with pytest.raises(ValueError):
        RamificationSeq((2, 1), 1, 10)
    with pytest.raises(ValueError):
        RamificationSeq((0, 10), 1, 10)  # max is d - r = 9
    RamificationSeq((0, 9), 1, 10)


def test_vanishing_ramification_goldens():
    a = VanishingSeq((4, 9, 13), 17)
    assert vanishing_to_ramification(a).entries == (4, 8, 11)
    b = VanishingSeq((12, 13, 14), 15)
    assert vanishing_to_ramification(b).entries == (12, 12, 12)
    ident = VanishingSeq(tuple(range(4)), 9)
    assert vanishing_to_ramification(ident).entries == (0, 0, 0, 0)


@given(st.data())
def test_vanishing_ramification_round_trip(data):
    d = data.draw(st.integers(1, 25))
    r = data.draw(st.integers(0, min(5, d)))
    entries = tuple(sorted(data.draw(
        st.sets(st.integers(0, d), min_size=r + 1, max_size=r + 1))))
    a = VanishingSeq(entries, d)
    assert ramification_to_vanishing(vanishing_to_ramification(a)) == a


def test_weight():
    assert weight(RamificationSeq((0, 1, 1, 1), 3, 10)) == 3
    assert weight(RamificationSeq((4, 8, 11), 2, 17)) == 23
    assert weight(RamificationSeq((0, 0, 0), 2, 9)) == 0


def test_adjusted_rho_goldens():
    cusp = RamificationSeq((1, 1, 1), 2, 15)
    assert adjusted_rho(SeriesType(15, 2, 15), [cusp] * 8) == -15
    tail = RamificationSeq((12, 12, 12), 2, 15)
    assert adjusted_rho(SeriesType(1, 2, 15), [tail]) == 1
    t = SeriesType(11, 2, 17)
    assert adjusted_rho(t, []) == rho(t)
    with pytest.raises(ValueError):
        adjusted_rho(SeriesType(11, 2, 17), [RamificationSeq((0, 0), 1, 17)])


def test_residual_goldens():
    assert residual(SeriesType(23, 1, 12)) == SeriesType(23, 11, 32)
    # degree is forced to 2g-2-d = 27 here; the triple list is consistent with it
    assert residual(SeriesType(23, 2, 17)) == SeriesType(23, 7, 27)
    assert residual(SeriesType(23, 3, 20)) == SeriesType(23, 5, 24)
    with pytest.raises(ValueError):
        residual(SeriesType(3, 0, 5))


@given(st.data())
def test_residual_preserves_rho(data):
    g = data.draw(st.integers(1, 40))
    d = data.draw(st.integers(0, 2 * g - 2))
    lo = max(0, d - g + 1)  # keeps the residual dimension nonnegative
    hi = min(d, g - 1)  # keeps the residual degree at least its dimension
    if lo > hi:
        return
    r = data.draw(st.integers(lo, hi))
    t = SeriesType(g, r, d)
    assert rho(residual(t)) == rho(t)


def test_bn_divisor_triples_genus23():
    assert bn_divisor_triples(23) == [
        (1, 13, 12), (2, 9, 17), (3, 7, 20), (5, 5, 24), (7, 4, 27), (11, 3, 32)]


def test_bn_divisor_triples_small():
    assert bn_divisor_triples(5) == [(1, 4, 3), (2, 3, 5)]
    assert bn_divisor_triples(12) == []  # 13 is prime
    with pytest.raises(ValueError):
        bn_divisor_triples(2)


@pytest.mark.parametrize("g", [3, 5, 7, 11, 17, 23, 29, 35])
def test_bn_divisor_triples_invariants(g):
    triples = bn_divisor_triples(g)
    for r, s, d in triples:
        assert g + 1 == (r + 1) * (s - 1) and s >= 3 and r >= 1 and d == r * s - 1
        assert rho(SeriesType(g, r, d)) == -1
        res = residual(SeriesType(g, r, d))
        assert (res.r, res.d) in {(a, c) for a, _, c in triples}


def test_bn_divisor_pairs_genus23():
    assert bn_divisor_pairs(23) == [
        ((1, 13, 12), (11, 3, 32)),
        ((2, 9, 17), (7, 4, 27)),
        ((3, 7, 20), (5, 5, 24)),
    ]


def test_pointed_exists_goldens():
    t = SeriesType(11, 2, 17)
    assert pointed_exists(t, RamificationSeq((4, 8, 11), 2, 17))
    assert not pointed_exists(t, RamificationSeq((4, 8, 12), 2, 17))
    assert pointed_exists(SeriesType(11, 1, 12), RamificationSeq((0, 11), 1, 12))
    # all clamps vanish once d >= g + r
    assert pointed_exists(SeriesType(4, 2, 6), RamificationSeq((0, 0, 0), 2, 6))


def test_cusp_pointed_exists_goldens():
    # one extra cusp is one more genus: the cusp clamp of a genus-g curve is
    # pointed_exists at genus g + 1, and the curve-level check with one cusp agrees
    cases = [
        (SeriesType(10, 2, 17), RamificationSeq((4, 8, 11), 2, 17), True),
        (SeriesType(10, 2, 17), RamificationSeq((4, 8, 12), 2, 17), False),
        (SeriesType(4, 2, 7), RamificationSeq((0, 0, 0), 2, 7), True),
    ]
    for t, alpha, expected in cases:
        assert pointed_exists(SeriesType(t.g + 1, t.r, t.d), alpha) is expected
        res = general_pointed_check(t, [alpha], extra_cusps=1)
        assert res.passed is expected and res.failed is not expected
        assert res.rule == RULE_GENERAL_CUSP


def test_pointed_exists_monotone_small():
    # downward closure in the ramification, spot grid (the full grid runs in acceptance)
    from itertools import combinations_with_replacement
    for g in range(0, 6):
        for d in range(1, 7):
            for r in range(0, min(2, d) + 1):
                t = SeriesType(g, r, d)
                for alpha in combinations_with_replacement(range(d - r + 1), r + 1):
                    if not pointed_exists(t, RamificationSeq(alpha, r, d)):
                        continue
                    for smaller in combinations_with_replacement(range(d - r + 1), r + 1):
                        if all(x <= y for x, y in zip(smaller, alpha)):
                            assert pointed_exists(t, RamificationSeq(smaller, r, d))

