"""Chains of elliptic curves against the theorems that decide them.

A chain of g elliptic curves, one-noded tails at both ends and two-noded
links between, has genus g.  With general node points it carries a limit
g^r_d iff rho(g, r, d) >= 0 (Eisenbud-Harris, Limit linear series: basic
theory, Invent. Math. 85, 1986).  When the two node points of every link
differ by k-torsion it carries one iff rho-bar_k(g, r, d) >= 0 (Pflueger,
Brill-Noether varieties of k-gonal curves, Adv. Math. 312, 2017).  The
engine knows neither theorem: it folds each link over the branch beyond it, in a
loop, so chains far longer than the recursion limit get a verdict.
"""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnlimits import limit_checker
from bnlimits.curves import CompactCurve, Component, Node, TorsionPair
from bnlimits.limit_checker import refute, verify_witness
from bnlimits.numerology import SeriesType, rho


def elliptic_chain(g: int, k: int | None) -> CompactCurve:
    """T1 - E2 - ... - E(g-1) - Tg; every link's node points differ by k-torsion if k."""
    torsion = (TorsionPair(("p", "q"), k),) if k else ()
    comps = [Component("T1", 1, "elliptic", ("q",))]
    comps += [Component(f"E{i}", 1, "elliptic", ("p", "q"), torsion=torsion) for i in range(2, g)]
    comps.append(Component(f"T{g}", 1, "elliptic", ("p",)))
    nodes = [Node(((comps[i].id, "q"), (comps[i + 1].id, "p"))) for i in range(g - 1)]
    return CompactCurve(f"elliptic-chain-{g}", g, tuple(comps), tuple(nodes))


def rho_bar(g: int, r: int, d: int, k: int) -> int:
    return max(rho(SeriesType(g, r - l, d)) - l * k
               for l in range(max(0, min(r, g - d + r - 1)) + 1))


# every series with r <= 3, r < d <= 2g - 2 + r and at most 3,000 sequences per point
SERIES = [(g, r, d) for g in range(3, 13) for r in range(4) for d in range(r + 1, 2 * g - 1 + r)
          if comb(d + 1, r + 1) <= 3000]


def _check_engine(g: int, r: int, d: int, k: int | None):
    """Refute both ways; check the report's invariants; return the pruned report."""
    curve = elliptic_chain(g, k)
    t = SeriesType(g, r, d)
    pruned = refute(curve, t, survivor_cap=5)
    naive = refute(curve, t, prune=False, survivor_cap=5)
    case = (g, r, d, k)
    assert pruned.to_json() | {"pruned": None} == naive.to_json() | {"pruned": None}, case
    assert sum(v for _, v in pruned.rule_hits) + pruned.survivor_count == \
        pruned.candidates_examined, case
    for survivor in pruned.survivors:
        check = verify_witness(curve, t, survivor.assignment_dict())
        assert check.verdict != "rejected", (case, survivor)
    return pruned


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SERIES))
def test_chains_without_torsion_follow_eisenbud_harris(series):
    g, r, d = series
    verdict = _check_engine(g, r, d, None).verdict
    assert (verdict == "refuted") == (rho(SeriesType(g, r, d)) < 0), series


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SERIES), st.integers(2, 6))
def test_chains_with_torsion_follow_pflueger(series, k):
    g, r, d = series
    verdict = _check_engine(g, r, d, k).verdict
    assert (verdict == "refuted") == (rho_bar(g, r, d, k) < 0), (series, k)


@pytest.mark.parametrize("k,r,d,verdict,candidates,survivors", [
    (None, 1, 3, "refuted", 36, 0),  # rho = -9,996
    (2, 1, 2, "survivors", 9, 1),  # rho-bar_2 = 0
])
def test_chains_of_ten_thousand_curves(k, r, d, verdict, candidates, survivors):
    # the fold walks the links in a loop, so the recursion limit does not bound the length
    g = 10_000
    bound = rho(SeriesType(g, r, d)) if k is None else rho_bar(g, r, d, k)
    assert (bound < 0) == (verdict == "refuted")
    report = _check_engine(g, r, d, k)
    assert (report.verdict, report.candidates_examined, report.survivor_count) == \
        (verdict, candidates, survivors)
    for survivor in report.survivors:
        check = verify_witness(elliptic_chain(g, k), SeriesType(g, r, d), survivor.assignment_dict())
        assert check.verdict == "confirmed"


@pytest.mark.parametrize("k", [None, 2, 3, 4])
def test_short_chains_every_series(k):
    # every series on chains of genus 3 to 6, where both theorems have cases on each side
    verdicts = set()
    for g, r, d in SERIES:
        if g > 6:
            break
        verdict = refute(elliptic_chain(g, k), SeriesType(g, r, d), survivor_cap=0).verdict
        bound = rho(SeriesType(g, r, d)) if k is None else rho_bar(g, r, d, k)
        assert (verdict == "refuted") == (bound < 0), (g, r, d, k)
        verdicts.add(verdict)
    assert verdicts == {"refuted", "survivors"}


def test_listing_a_linked_branch_builds_no_table(monkeypatch):
    # a witness reads the table beyond each link from the branch's own table, which keeps
    # them, so listing survivors builds no link table and the cache counts what is kept
    built = []
    link_table = limit_checker._link_table
    monkeypatch.setattr(limit_checker, "_link_table",
                        lambda *args, **kw: built.append(args[1]) or link_table(*args, **kw))
    g = 2000
    curve, t = elliptic_chain(g, 2), SeriesType(g, 1, 2)
    for prune in (True, False):
        for cap in (0, 1, 5):
            limit_checker._lattice.cache_clear()
            built.clear()
            report = refute(curve, t, prune=prune, survivor_cap=cap)
            assert len(report.survivors) == min(cap, 1)
            assert built == [2] * (g - 3), (prune, cap)  # one per link, E3 to E(g-1)
            tables = limit_checker._tables
            held = sum(len(table[0]) + len(getattr(table, "good_in", ()))
                       + sum(len(b.live) for b in getattr(table, "beyond", ()))
                       for table in tables.tables.values())
            assert held == tables.held
