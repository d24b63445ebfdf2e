import random
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlimits import schubert
from bnlimits.numerology import RamificationSeq, SeriesType, pointed_exists
from bnlimits.schubert import (
    CohomologyClass,
    bn_condition,
    cusp_class_power,
    identity_class,
    index_to_partition,
    lr_product,
    rect_for,
    schubert_class,
    zero_class,
)
from schur_oracle import oracle_product, rect_partitions


def test_index_to_partition():
    assert index_to_partition(RamificationSeq((0, 1, 1, 1), 3, 10)) == (1, 1, 1)
    assert index_to_partition(RamificationSeq((4, 8, 11), 2, 17)) == (11, 8, 4)
    assert index_to_partition(RamificationSeq((0, 0, 0), 2, 9)) == ()


def test_pieri_golden():
    rect = (2, 2)
    s1 = schubert_class((1,), rect)
    prod = lr_product(s1, s1)
    assert prod.terms == {(2,): 1, (1, 1): 1}


def test_four_lines():
    rect = (2, 2)
    s1 = schubert_class((1,), rect)
    p = s1
    for _ in range(3):
        p = lr_product(p, s1)
    assert p.coefficient((2, 2)) == 2


def test_zero_and_identity():
    rect = (3, 4)
    x = schubert_class((2, 1), rect)
    assert lr_product(x, zero_class(rect)).is_zero()
    assert lr_product(x, identity_class(rect)).terms == x.terms


def test_rectangle_mismatch():
    with pytest.raises(ValueError):
        lr_product(identity_class((2, 2)), identity_class((2, 3)))
    with pytest.raises(ValueError, match="^need r <= d, got r=3, d=2$"):
        rect_for(3, 2)


def test_partition_validation():
    with pytest.raises(ValueError):
        schubert_class((3,), (2, 2))
    with pytest.raises(ValueError):
        schubert_class((1, 2), (2, 2))


def test_cusp_power_identity():
    assert cusp_class_power(0, (3, 5)).terms == {(): 1}
    with pytest.raises(ValueError, match="^power must be nonnegative$"):
        cusp_class_power(-1, (3, 5))


def test_cusp_power_pencils():
    rect = rect_for(1, 12)  # (2, 11)
    assert cusp_class_power(23, rect).is_zero()
    top = cusp_class_power(22, rect)
    # the full-rectangle coefficient counts standard tableaux of shape (11, 11)
    catalan11 = comb(22, 11) // 12
    assert top.terms == {(11, 11): catalan11}


def test_poincare_duality_spot():
    for rect in [(2, 2), (2, 3), (3, 3)]:
        k, m = rect
        for lam in rect_partitions(rect):
            padded = tuple(lam) + (0,) * (k - len(lam))
            comp = tuple(sorted((m - x for x in padded), reverse=True))
            prod = lr_product(schubert_class(lam, rect), schubert_class(comp, rect))
            assert prod.coefficient((m,) * k) == 1


def test_degree_additivity():
    rect = (3, 4)
    x = schubert_class((2, 1), rect)
    y = schubert_class((3, 1), rect)
    for nu, c in lr_product(x, y).terms.items():
        assert sum(nu) == 3 + 4
        assert c > 0


@given(st.data())
def test_lr_commutative_and_associative(data):
    rect = (3, 3)
    parts = rect_partitions(rect)
    a = schubert_class(data.draw(st.sampled_from(parts)), rect)
    b = schubert_class(data.draw(st.sampled_from(parts)), rect)
    c = schubert_class(data.draw(st.sampled_from(parts)), rect)
    assert lr_product(a, b).terms == lr_product(b, a).terms
    assert lr_product(lr_product(a, b), c).terms == lr_product(a, lr_product(b, c)).terms


def test_against_oracle_spot():
    rect = (2, 3)
    for lam in rect_partitions(rect):
        for mu in rect_partitions(rect):
            got = lr_product(schubert_class(lam, rect), schubert_class(mu, rect)).terms
            assert got == oracle_product(lam, mu, rect)


def test_bn_condition_goldens():
    assert bn_condition(SeriesType(11, 2, 17), [RamificationSeq((4, 8, 11), 2, 17)])
    assert not bn_condition(SeriesType(23, 1, 12), [])
    # triple product: two prescribed points plus ten cusps on a genus-10 curve
    assert bn_condition(SeriesType(10, 2, 17),
                        [RamificationSeq((4, 8, 11), 2, 17), RamificationSeq((0, 1, 1), 2, 17)])


def test_bn_condition_matches_clamp_small_grid():
    # one-point specialization on a spot grid; the full grid runs in acceptance
    for g in range(0, 6):
        for d in range(1, 7):
            for r in range(0, min(2, d) + 1):
                t = SeriesType(g, r, d)
                for alpha in combinations_with_replacement(range(d - r + 1), r + 1):
                    ram = RamificationSeq(alpha, r, d)
                    assert bn_condition(t, [ram]) == pointed_exists(t, ram)


def _pieri_oracle(rams, g, rect, powers):
    """Nonvanishing of the marked classes times the g-th cusp power, multiplied out."""
    acc = identity_class(rect)
    for alpha in rams:
        acc = lr_product(acc, schubert_class(index_to_partition(alpha), rect))
    return not lr_product(acc, powers[g]).is_zero()


def test_bn_condition_matches_the_cusp_power():
    # every rectangle with at most 4 rows and 7 columns; all one-point conditions,
    # a seeded draw of two to five points, and draws with repeated identity
    # factors among them, each at every genus up to 12
    rng = random.Random(20231)
    checked = 0
    for k in range(1, 5):
        for m in range(0, 8):
            rect = (k, m)
            r, d = k - 1, m + k - 1
            powers = [cusp_class_power(g, rect) for g in range(13)]
            seqs = [RamificationSeq(a, r, d) for a in combinations_with_replacement(range(m + 1), k)]
            one = RamificationSeq((0,) * k, r, d)
            draws = [[]] + [[a] for a in seqs]
            draws += [[rng.choice(seqs) for _ in range(n)] for n in (2, 3) for _ in range(12)]
            draws += [[rng.choice(seqs) for _ in range(n)] for n in (4, 5) for _ in range(6)]
            draws += [[one] * n for n in (2, 5)]
            draws += [[rng.choice(seqs), one, rng.choice(seqs), one] for _ in range(4)]
            for rams in draws:
                for g in range(13):
                    expected = _pieri_oracle(rams, g, rect, powers)
                    assert bn_condition(SeriesType(g, r, d), rams) == expected, (rect, rams, g)
                    checked += 1
    assert checked == 34502


def test_unpadded_clamp_is_a_down_set():
    # bn_condition prunes a partition that fails the clamp over its nonzero rows,
    # which is exact only if no partition above it passes; removing any corner box
    # from a passing partition must leave a passing one, in every rectangle and genus
    def passes(lam, g, shift):
        return sum(max(x + shift, 0) for x in lam) <= g

    checked = 0
    for k in range(1, 5):
        for m in range(0, 8):
            r, d = k - 1, m + k - 1
            for lam in rect_partitions((k, m)):
                lam = tuple(lam)
                below = [lam[:i] + (lam[i] - 1,) + lam[i + 1:] for i in range(len(lam))
                         if i + 1 == len(lam) or lam[i] > lam[i + 1]]
                below = [tuple(x for x in mu if x) for mu in below]
                for g in range(13):
                    shift = g - d + r
                    if passes(lam, g, shift):
                        assert all(passes(mu, g, shift) for mu in below), (lam, g)
                        checked += 1
    assert checked == 6575  # of 16,614 (partition, genus) pairs


def test_one_point_clamp_is_the_cusp_power():
    # sigma_lambda * sigma_{1^r}^g != 0 iff lambda passes the clamp, on every partition
    for k in range(1, 4):
        for m in range(0, 6):
            r, d = k - 1, m + k - 1
            rect = (k, m)
            for alpha in combinations_with_replacement(range(m + 1), k):
                ram = RamificationSeq(alpha, r, d)
                lam = schubert_class(index_to_partition(ram), rect)
                for g in range(11):
                    nonzero = not lr_product(lam, cusp_class_power(g, rect)).is_zero()
                    assert nonzero == pointed_exists(SeriesType(g, r, d), ram), (alpha, g)


def test_cusp_class_power_in_one_row_is_the_identity():
    # 1^0 is the identity, so the power never reaches zero and must not take a step per power
    for d in (0, 1, 5):
        rect = rect_for(0, d)
        assert cusp_class_power(10**9, rect) == identity_class(rect)


def _oracle_cusp_power(t, rect):
    """The t-fold product of the column class 1^(k-1), expanded bilinearly by the Schur oracle."""
    column = (1,) * (rect[0] - 1)
    acc = {(): 1}
    for _ in range(t):
        step = {}
        for lam, a in acc.items():
            for nu, c in oracle_product(lam, column, rect).items():
                step[nu] = step.get(nu, 0) + a * c
        acc = {nu: c for nu, c in step.items() if c}
    return acc


def test_cusp_class_power_matches_the_schur_oracle():
    # the oracle multiplies Schur polynomials and shares no code with the Littlewood-Richardson
    # rule; a zero-width rectangle (d = r) is included, where the column does not fit
    for k in range(1, 4):
        for m in range(0, 5):
            for t in range(7):
                assert cusp_class_power(t, (k, m)).terms == _oracle_cusp_power(t, (k, m)), (k, m, t)
    for t in (0, 1, 2, 7, 10**9):
        for m in range(0, 5):  # one row: the cusp class 1^0 is the identity
            assert cusp_class_power(t, (1, m)) == identity_class((1, m))
        for k in range(2, 5):  # zero width: the identity at t = 0, then 0
            expected = identity_class((k, 0)) if t == 0 else zero_class((k, 0))
            assert cusp_class_power(t, (k, 0)) == expected, (k, t)


def test_bn_condition_cost_does_not_grow_with_genus(monkeypatch):
    # with r = 0 the cusp class is the identity, so g products by it would never stop early
    def refuse(*args):
        raise AssertionError("bn_condition multiplied by the cusp class")

    monkeypatch.setattr(schubert, "cusp_class_power", refuse)
    monkeypatch.setattr(schubert, "lr_product", refuse)
    t = SeriesType(10**6, 0, 5)
    assert bn_condition(t, [RamificationSeq((1,), 0, 5), RamificationSeq((2,), 0, 5)])
    assert not bn_condition(t, [RamificationSeq((3,), 0, 5), RamificationSeq((3,), 0, 5)])


def test_bn_condition_checks_every_bound_before_answering():
    # a mismatched condition raises even where the degree alone already answers no
    t = SeriesType(23, 1, 12)
    with pytest.raises(ValueError, match="does not match"):
        bn_condition(t, [RamificationSeq((0, 1), 1, 12), RamificationSeq((0, 1), 1, 13)])


def test_class_str():
    rect = (2, 2)
    s1 = schubert_class((1,), rect)
    assert str(lr_product(s1, s1)) == "s[1,1] + s[2]"
    assert str(zero_class(rect)) == "0"
