from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlimits.modspace import (
    SLOPE_THRESHOLD,
    DivisorClass,
    bn_class,
    boundary_multiplicity_table,
    canonical_class,
    decompose_canonical,
    gonal_family_slope,
    plane_pencil_slope,
    slope_bound,
    slope_of_class,
)
from bnlimits.numerology import MAX_GENUS, SeriesType, bn_divisor_triples, rho


def test_bn_class_genus23():
    cls = bn_class(23, 1, 12)
    assert cls.lam == 26
    assert cls.delta[0] == -4
    assert all(cls.delta[i] == -i * (23 - i) for i in range(1, 12))
    assert cls.normalized_up_to_scale
    # the class depends only on the genus
    assert bn_class(23, 2, 17).delta == cls.delta


def test_bn_class_requires_rho_minus_one():
    with pytest.raises(ValueError):
        bn_class(23, 1, 13)


def test_canonical_class():
    kan = canonical_class(23)
    assert kan.lam == 13
    assert kan.delta[0] == -2 and kan.delta[1] == -3
    assert all(kan.delta[i] == -2 for i in range(2, 12))
    assert len(canonical_class(4).delta) == 3
    with pytest.raises(ValueError):
        canonical_class(3)


def test_genus_limit():
    # the two functions every genus-sized command reaches take MAX_GENUS and refuse one more
    assert bn_divisor_triples(MAX_GENUS) == [(72, 138, 9935), (136, 74, 10063)]  # 10,001 = 73 * 137
    assert len(canonical_class(MAX_GENUS).delta) == MAX_GENUS // 2 + 1
    for refused in (bn_divisor_triples, canonical_class):
        with pytest.raises(ValueError, match=f"^genus {MAX_GENUS + 1} is above the limit of {MAX_GENUS}$"):
            refused(MAX_GENUS + 1)


def test_divisor_class_str():
    assert str(canonical_class(4)) == "13λ - 2δ0 - 3δ1 - 2δ2"


def test_divisor_class_length_validation():
    with pytest.raises(ValueError):
        DivisorClass(23, Fraction(1), (Fraction(1),) * 3)


def test_decompose_genus23():
    dec = decompose_canonical(23, 1, 12)
    assert dec.a == Fraction(1, 2)
    assert dec.b == 0
    assert dec.c[0] == 0
    assert dec.c[1] == 8
    assert all(dec.c[i] == Fraction(i * (23 - i) - 4, 2) for i in range(2, 12))
    assert dec.boundary_nonnegative


@pytest.mark.parametrize("g,expected_b", [
    (25, Fraction(2, 26)), (26, Fraction(3, 27)), (27, Fraction(4, 28)), (29, Fraction(6, 30)),
])
def test_decompose_b_positive_beyond_23(g, expected_b):
    r, _, d = bn_divisor_triples(g)[0]
    dec = decompose_canonical(g, r, d)
    assert dec.b == expected_b and dec.b > 0


@given(st.sampled_from([g for g in range(4, 60) if bn_divisor_triples(g)]))
def test_decompose_reconstructs_canonical(g):
    r, _, d = bn_divisor_triples(g)[0]
    dec = decompose_canonical(g, r, d)
    bn = bn_class(g, r, d)
    kan = canonical_class(g)
    assert all(type(x) is Fraction for x in (dec.a, dec.b, *dec.c))  # printed as fractions
    assert dec.a * bn.lam + dec.b == kan.lam
    for i in range(g // 2 + 1):
        assert dec.a * bn.delta[i] + dec.c[i] == kan.delta[i]


def test_slope_of_class():
    assert slope_of_class(bn_class(23, 1, 12)) == Fraction(13, 2)
    assert slope_of_class(canonical_class(23)) == Fraction(13, 2)
    bad = DivisorClass(4, Fraction(5), (Fraction(-1), Fraction(0), Fraction(-2)))
    assert slope_of_class(bad) is None
    nolambda = DivisorClass(4, Fraction(0), (Fraction(-1),) * 3)
    assert slope_of_class(nolambda) is None


def test_slope_bound():
    assert slope_bound(23) == Fraction(13, 2)
    assert slope_bound(3) == 9
    assert slope_bound(5) == 8
    with pytest.raises(ValueError, match="^need genus >= 3, got 2$"):
        slope_bound(2)


def test_slope_matches_bound_for_divisorial_classes():
    for g in range(4, 51):
        triples = bn_divisor_triples(g)
        if not triples:
            continue
        r, _, d = triples[0]
        assert slope_of_class(bn_class(g, r, d)) == slope_bound(g)


def test_gonal_family_slopes():
    assert gonal_family_slope(23, 2) == Fraction(188, 23)
    assert gonal_family_slope(23, 3) == Fraction(216, 29)
    assert gonal_family_slope(23, 4) == Fraction(244, 35)
    assert all(gonal_family_slope(23, k) > SLOPE_THRESHOLD for k in (2, 3, 4))
    with pytest.raises(ValueError):
        gonal_family_slope(23, 5)
    with pytest.raises(ValueError, match="^need genus >= 2, got 1$"):
        gonal_family_slope(1, 2)


def test_plane_pencils():
    ten = plane_pencil_slope(10)
    assert (ten.f, ten.b, ten.delta, ten.slope, ten.exceeds_13_2) == (
        13, 48, 152, Fraction(152, 23), True)
    eleven = plane_pencil_slope(11)
    assert (eleven.f, eleven.b, eleven.delta, eleven.slope, eleven.exceeds_13_2) == (
        22, 33, 146, Fraction(146, 23), False)
    nine = plane_pencil_slope(9)
    assert nine.exceeds_13_2
    twelve = plane_pencil_slope(12)
    assert not twelve.exceeds_13_2
    for dd in (8, 13):
        with pytest.raises(ValueError):
            plane_pencil_slope(dd)


def test_boundary_multiplicity_table():
    rows = {row.i: row for row in boundary_multiplicity_table()}
    assert rows[1].multiplicity == 16 and rows[1].cited_bound == 16 and rows[1].coincide
    assert rows[2].multiplicity == 19 and rows[2].cited_bound == 19 and rows[2].coincide
    assert rows[3].multiplicity == 28 and rows[3].cited_bound == 18 and not rows[3].coincide
    assert rows[10].cited_bound is None and not rows[10].coincide
    assert rows[11].cited_bound == 10
    assert {i for i, row in rows.items() if row.coincide} == {1, 2}


def test_rho_consistency_of_triples():
    for g in (23, 25, 26):
        for r, _, d in bn_divisor_triples(g):
            assert rho(SeriesType(g, r, d)) == -1
