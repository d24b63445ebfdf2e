"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from bnlimits import cli
from bnlimits.curvefile import load_fixture
from bnlimits.limit_checker import refute, verify_witness
from bnlimits.modspace import (
    SLOPE_THRESHOLD,
    bn_class,
    boundary_multiplicity_table,
    decompose_canonical,
    gonal_family_slope,
    plane_pencil_slope,
    slope_bound,
    slope_of_class,
)
from bnlimits.numerology import (
    RamificationSeq,
    SeriesType,
    bn_divisor_pairs,
    bn_divisor_triples,
    pointed_exists,
    rho,
)
from bnlimits.schubert import bn_condition, lr_product, schubert_class
from schur_oracle import oracle_product, rect_partitions


def _timed(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_numerology_goldens():
    def work():
        values = [rho(SeriesType(23, r, d)) for r, d in ((1, 12), (2, 17), (3, 20))]
        return values, rho(SeriesType(15, 1, 12)), bn_divisor_triples(23), bn_divisor_pairs(23)

    (values, r15, triples, pairs), elapsed = _timed(work)
    assert values == [-1, -1, -1]
    assert r15 == 7
    assert triples == [(1, 13, 12), (2, 9, 17), (3, 7, 20), (5, 5, 24), (7, 4, 27), (11, 3, 32)]
    assert pairs == [((1, 13, 12), (11, 3, 32)), ((2, 9, 17), (7, 4, 27)),
                     ((3, 7, 20), (5, 5, 24))]
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    _report(1, f"numerology goldens exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_decomposition():
    def work():
        decs = [decompose_canonical(23, r, d) for r, _, d in bn_divisor_triples(23)]
        others = []
        for g in (25, 26, 27, 29):
            r, _, d = bn_divisor_triples(g)[0]
            others.append(decompose_canonical(g, r, d))
        return decs, others

    (decs, others), elapsed = _timed(work)
    for dec in decs:
        assert dec.a == Fraction(1, 2)
        assert dec.b == 0
        assert dec.c[1] == 8
        assert all(dec.c[i] == Fraction(i * (23 - i) - 4, 2) for i in range(2, 12))
    assert all(other.b > 0 for other in others)
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    _report(2, f"canonical decomposition exact for all six triples in {elapsed * 1e6:.0f} us")


def test_criterion_3_slopes():
    def work():
        s_bn = slope_of_class(bn_class(23, 1, 12))
        s_bound = slope_bound(23)
        gonal = [gonal_family_slope(23, k) for k in (2, 3, 4)]
        pencils = {}
        for dd in range(9, 14):
            try:
                pencils[dd] = plane_pencil_slope(dd).exceeds_13_2
            except ValueError:
                pencils[dd] = None
        rows = boundary_multiplicity_table()
        return s_bn, s_bound, gonal, pencils, rows

    (s_bn, s_bound, gonal, pencils, rows), elapsed = _timed(work)
    assert s_bn == s_bound == Fraction(13, 2)
    assert all(s > SLOPE_THRESHOLD for s in gonal)
    assert pencils == {9: True, 10: True, 11: False, 12: False, 13: None}
    by_i = {row.i: row for row in rows}
    assert by_i[1].multiplicity == 16 and by_i[1].coincide
    assert by_i[2].multiplicity == 19 and by_i[2].coincide
    assert {i for i, row in by_i.items() if row.coincide} == {1, 2}
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    _report(3, f"slope goldens exact in {elapsed * 1e6:.0f} us")


def test_criterion_4_chain9_web_refuted_and_net_confirmed():
    desc = load_fixture("chain_9torsion")
    t0 = time.perf_counter()
    report = refute(desc.curve, SeriesType(23, 3, 20))
    elapsed = time.perf_counter() - t0
    assert report.verdict == "refuted"
    assert report.candidates_examined == comb(21, 4) ** 2
    assert sum(v for _, v in report.rule_hits) == report.candidates_examined
    assert elapsed < 60, f"took {elapsed:.1f} s"

    witness = verify_witness(desc.curve, SeriesType(23, 2, 17),
                             desc.witness("g2_17").aspects_dict())
    assert witness.verdict == "confirmed"
    assert witness.refined
    assert dict(witness.aspect_rhos) == {"C1": 0, "C2": 0, "E": -1}
    assert witness.additivity.lhs == -1 and witness.additivity.equality
    _report(4, f"9-torsion chain: no g^3_20 over {report.candidates_examined} candidates "
               f"in {elapsed:.2f} s; g^2_17 witness confirmed, refined, additivity -1 = 0+0-1")


def test_criterion_5_chain12_verdicts():
    desc = load_fixture("chain_12torsion")
    t0 = time.perf_counter()
    pencil = verify_witness(desc.curve, SeriesType(23, 1, 12),
                            desc.witness("g1_12").aspects_dict())
    assert pencil.verdict == "confirmed"

    net = refute(desc.curve, SeriesType(23, 2, 17))
    assert net.verdict in ("refuted", "survivors")
    if net.verdict == "survivors":
        # the engine must then list every survivor as a finding
        assert net.survivor_count == len(net.survivors) or net.truncated

    web = refute(desc.curve, SeriesType(23, 3, 20))
    assert web.verdict == "refuted"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"took {elapsed:.1f} s"
    _report(5, f"12-torsion chain: g^1_12 confirmed, g^2_17 {net.verdict}, g^3_20 refuted "
               f"in {elapsed:.2f} s")


def test_criterion_6_star_verdicts():
    desc = load_fixture("septic_star")
    pencil = refute(desc.curve, SeriesType(23, 1, 12))
    assert pencil.verdict == "refuted"
    assert dict(pencil.rule_hits) == {"factsheet-ramification-count@G": 1}

    net = verify_witness(desc.curve, SeriesType(23, 2, 15),
                         desc.witness("g2_15").aspects_dict())
    rhos = dict(net.aspect_rhos)
    assert rhos["G"] == -15 and all(rhos[f"E{i}"] == 1 for i in range(1, 9))
    assert net.additivity.lhs == -7 and net.additivity.equality

    web = verify_witness(desc.curve, SeriesType(23, 3, 20),
                         desc.witness("g3_20").aspects_dict())
    rhos = dict(web.aspect_rhos)
    assert rhos["G"] == -9 and all(rhos[f"E{i}"] == 1 for i in range(1, 9))
    assert web.additivity.lhs == -1 and web.additivity.equality
    _report(6, "star curve: g^1_12 refuted by the counting rule (8 > 7); "
               "additivity -15+8 = -7 and -9+8 = -1, both with equality")


def _grid():
    for r in range(0, 4):
        for d in range(max(r, 1), 11):
            for alpha in combinations_with_replacement(range(d - r + 1), r + 1):
                yield r, d, alpha


def test_criterion_7a_schubert_matches_clamp():
    checked = 0
    for r, d, alpha in _grid():
        ram = RamificationSeq(alpha, r, d)
        for g in range(0, 9):
            t = SeriesType(g, r, d)
            assert bn_condition(t, [ram]) == pointed_exists(t, ram), (g, r, d, alpha)
            checked += 1
    _report("7a", f"one-point Schubert criterion matches the clamp criterion on {checked} cases")


def test_criterion_7b_schubert_matches_cusp_clamp():
    checked = 0
    for r, d, alpha in _grid():
        if r == 0 or d - r < 1:
            continue  # no cusp index exists there
        ram = RamificationSeq(alpha, r, d)
        cusp = RamificationSeq((0,) + (1,) * r, r, d)
        for g in range(0, 9):
            # the cusp clamp is the clamp at genus g + 1
            cusp_clamp = pointed_exists(SeriesType(g + 1, r, d), ram)
            assert bn_condition(SeriesType(g, r, d), [ram, cusp]) == cusp_clamp, (g, r, d, alpha)
            checked += 1
    _report("7b", f"cusped Schubert criterion matches the cusp clamp criterion on {checked} cases")


def test_criterion_7c_lr_against_tableau_oracle():
    checked = 0
    for rect in [(2, 2), (2, 3), (3, 3)]:  # G(2,4), G(2,5), G(3,6)
        parts = rect_partitions(rect)
        for lam in parts:
            for mu in parts:
                engine = lr_product(schubert_class(lam, rect), schubert_class(mu, rect)).terms
                assert engine == oracle_product(lam, mu, rect), (rect, lam, mu)
                checked += 1
    _report("7c", f"Littlewood-Richardson engine equals the tableau oracle on {checked} products")


def test_criterion_7d_pruned_equals_naive():
    cases = [
        ("chain_9torsion", (1, 12)),
        ("chain_12torsion", (1, 12)),
        ("chain_12torsion", (1, 11)),
        ("chain_9torsion_elltail", (1, 12)),
        ("septic_star", (1, 12)),
    ]
    for name, (r, d) in cases:
        desc = load_fixture(name)
        t = SeriesType(23, r, d)
        pruned = refute(desc.curve, t, prune=True)
        naive = refute(desc.curve, t, prune=False)
        assert pruned.verdict == naive.verdict, name
        assert pruned.survivors == naive.survivors, name
        assert pruned.survivor_count == naive.survivor_count, name
    _report("7d", f"pruned and naive refutation agree on {len(cases)} pencil fixtures")


def test_criterion_7e_clamp_monotone():
    checked = 0
    for r, d, alpha in _grid():
        ram = RamificationSeq(alpha, r, d)
        smaller_set = [beta for beta in combinations_with_replacement(range(d - r + 1), r + 1)
                       if all(x <= y for x, y in zip(beta, alpha))]
        for g in range(0, 9):
            t = SeriesType(g, r, d)
            if pointed_exists(t, ram):
                for beta in smaller_set:
                    assert pointed_exists(t, RamificationSeq(beta, r, d)), (g, r, d, alpha, beta)
                    checked += 1
    _report("7e", f"clamp criterion downward closed in the ramification ({checked} dominated pairs)")


def test_criterion_8_full_audit(capsys):
    code = cli.main(["report", "g23"])
    first = capsys.readouterr().out
    assert code == 0
    assert "kappa(M_23) >= 2 audit: PASS" in first
    assert "asserted per Regeneration Theorem, not verified" in first
    assert "cannot all coincide" in first
    # byte-identical on a second run
    code = cli.main(["report", "g23"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    _report(8, "report g23 exits 0, prints the membership contradiction, and is byte-stable")
