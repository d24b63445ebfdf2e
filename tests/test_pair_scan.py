from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pair_oracle import box, brute_force_pairs, pivot_sides, torsion_fails

from bnlimits.curvefile import load_curve_file, load_fixture
from bnlimits.curves import CompactCurve, Component, FactSheet, Node, SeriesDimFact, TorsionPair
from bnlimits.limit_checker import _analyze, _branch_table, _lattice, _partners, refute, verify_witness
from bnlimits.numerology import SeriesType

ORACLE_SEQ_CAP = 120  # C(d+1, r+1) up to which the n^2 brute force stays quick

PAIR_FIXTURES = ("chain_9torsion", "chain_12torsion", "chain_9torsion_elltail")


def _scan_fields(report) -> dict:
    return {
        "verdict": report.verdict,
        "candidates_examined": report.candidates_examined,
        "rule_hits": report.rule_hits,
        "survivor_count": report.survivor_count,
        "survivors": report.survivors,
        "truncated": report.truncated,
    }


@pytest.mark.parametrize("name", PAIR_FIXTURES)
@pytest.mark.parametrize("series", [(1, 11), (1, 12)])
@pytest.mark.parametrize("cap", [0, 100])
def test_fixture_series_match_brute_force(name, series, cap):
    r, d = series
    assert comb(d + 1, r + 1) <= ORACLE_SEQ_CAP
    curve = load_fixture(name).curve
    expected = brute_force_pairs(curve, r, d, cap)
    for prune in (True, False):
        report = refute(curve, SeriesType(curve.genus, r, d), prune=prune, survivor_cap=cap)
        assert _scan_fields(report) == expected


@pytest.mark.parametrize("series,count", [((1, 3), 0), ((1, 4), 16)])
def test_fact_sheet_behind_a_link_matches_brute_force(series, count):
    # C-E-L-F: the fact-sheet leaf F behind the elliptic link L abstains where it does not
    # fail, so every survivor is flagged unconfirmed at F, in both modes
    curve = load_curve_file(Path(__file__).parent / "curves" / "link_to_factsheet.json").curve
    r, d = series
    expected = brute_force_pairs(curve, r, d)
    assert expected["survivor_count"] == count
    for prune in (True, False):
        report = refute(curve, SeriesType(curve.genus, r, d), prune=prune)
        assert _scan_fields(report) == expected
        assert all(s.unconfirmed == ("F",) for s in report.survivors)


def _branch(draw, r: int, d: int, name: str, near: tuple[str, str], comps: list,
            nodes: list) -> None:
    """Up to three components behind the node at `near`: zero to two elliptic links, each
    with or without torsion, then a general or fact-sheet leaf, an elliptic tail, or a
    general bridge ending in an elliptic tail."""
    end = draw(st.sampled_from(["general", "factsheet", "tail", "bridge"]))
    links = draw(st.integers(0, 1 if end == "bridge" else 2))
    for k in range(links):
        order = draw(st.one_of(st.none(), st.integers(2, 5)))
        torsion = (TorsionPair(("x", "y"), order),) if order else ()
        comps.append(Component(f"{name}{k}", 1, "elliptic", ("x", "y"), torsion=torsion))
        nodes.append(Node((near, (f"{name}{k}", "x"))))
        near = (f"{name}{k}", "y")
    genus = draw(st.integers(0, 8))
    if end == "general":
        comps.append(Component(name, genus, "general", ("x",)))
    elif end == "factsheet":
        dims = draw(st.lists(st.integers(0, 2), max_size=1))
        facts = FactSheet(tuple(SeriesDimFact(r, d, dim) for dim in dims),
                          points_general=draw(st.booleans()))
        comps.append(Component(name, genus, "factsheet", ("x",), facts=facts))
    elif end == "tail":
        comps.append(Component(name, 1, "elliptic", ("x",)))
    else:
        comps.append(Component(name, genus, "general", ("x", "y")))
        comps.append(Component(f"{name}T", 1, "elliptic", ("y",)))
        nodes.append(Node(((name, "y"), (f"{name}T", "y"))))
    nodes.append(Node((near, (name, "x"))))


@st.composite
def pair_curves(draw):
    """An elliptic pivot E with two nodes, listed first so that it is the pivot, and a
    branch of up to three components behind each node (see _branch)."""
    r = draw(st.integers(1, 5))
    top = max(d for d in range(r + 1, 30) if comb(d + 1, r + 1) <= ORACLE_SEQ_CAP)
    d = draw(st.integers(r + 1, top))
    order = draw(st.one_of(st.none(), st.integers(2, 13)))
    torsion = (TorsionPair(("p", "q"), order),) if order else ()
    comps = [Component("E", 1, "elliptic", ("p", "q"), torsion=torsion)]
    nodes = []
    for point, name in (("p", "A"), ("q", "B")):
        _branch(draw, r, d, name, ("E", point), comps, nodes)
    curve = CompactCurve("fuzz-pair", sum(c.genus for c in comps), tuple(comps), tuple(nodes))
    return curve, r, d


# torsion failures and survivors share a box here, so the listing must skip the former
SHARED_BOX = (CompactCurve(
    "shared-box", 1,
    (Component("A", 0, "general", ("x",)), Component("E", 1, "elliptic", ("p", "q")),
     Component("B", 0, "general", ("x",))),
    (Node((("A", "x"), ("E", "p"))), Node((("E", "q"), ("B", "x"))))), 1, 2)


@settings(max_examples=40, deadline=None)
@given(pair_curves(), st.sampled_from([0, 1, 3, 100]))
@example(SHARED_BOX, 100)
def test_random_pair_curves_match_brute_force(drawn, cap):
    curve, r, d = drawn
    expected = brute_force_pairs(curve, r, d, cap)
    _, _, sides = pivot_sides(curve, r, d)
    _, branches, _ = _analyze(curve)
    lat = _lattice(r, d)
    for prune in (True, False):
        report = refute(curve, SeriesType(curve.genus, r, d), prune=prune, survivor_cap=cap)
        assert _scan_fields(report) == expected
        for side, branch in zip(sides, branches):
            kind, genus, facts, links = branch.key
            for i, (comp, _, _) in enumerate(branch.parts):  # every suffix of the path, by its scan
                assert side.comp == comp
                key = (kind, genus, facts, links[i:]) if i <= len(links) else ("tail", 1, None, ())
                # what a branch admits abstains exactly when it ends in a fact sheet
                passing = "unknown" if key[0] == "factsheet" else "pass"
                live = _branch_table(key, r, d, prune).live
                status = tuple(passing if bit else "fail" for bit in live)
                assert status == tuple(map(side.status, lat.seqs)), (comp.id, prune)
                side = side.beyond
            assert side is None


@pytest.mark.parametrize("name,clamp_c1", [
    ("chain_9torsion", "general-pointed-clamp@C1"),
    ("chain_12torsion", "general-pointed-clamp@C1"),
    ("chain_9torsion_elltail", "general-pointed-cusp-clamp@C1"),
])
def test_web_refutation_rule_hits_golden(name, clamp_c1):
    # the pair-scan counts of the paper's g^3_20 refutations, pinned exactly
    report = refute(load_fixture(name).curve, SeriesType(23, 3, 20))
    assert report.verdict == "refuted"
    assert report.candidates_examined == comb(21, 4) ** 2 == 35_820_225
    assert dict(report.rule_hits) == {
        "elliptic-pair-bound@E": 12_002_016,
        "elliptic-single-pole@E": 1_023_435,
        "elliptic-torsion-divisibility@E": 257,
        clamp_c1: 21_845_250,
        "general-pointed-clamp@C2": 949_267,
    }
    assert report.survivor_count == 0 and report.survivors == () and not report.truncated


@settings(max_examples=30, deadline=None)
@given(pair_curves(), st.data())
@example((SHARED_BOX[0], 1, 3), None)
@example((SHARED_BOX[0], 2, 6), None)  # 350 survivors, 100 listed
def test_capped_listing_is_a_prefix_of_the_full_one(drawn, data):
    # the survivors are listed lazily, partner by partner, so every cap k cuts the one
    # listing: the ends, a cap drawn in between, and every cap when data is None
    curve, r, d = drawn
    t = SeriesType(curve.genus, r, d)
    for prune in (True, False):
        full = refute(curve, t, prune=prune)
        assert len(set(full.survivors)) == len(full.survivors)
        for survivor in full.survivors:
            assert verify_witness(curve, t, survivor.assignment_dict()).verdict != "rejected"
        top = min(len(full.survivors) + 1, 100)
        caps = range(top + 1) if data is None else {0, 1, top, data.draw(st.integers(0, top))}
        for k in caps:
            report = refute(curve, t, prune=prune, survivor_cap=k)
            assert report.survivors == full.survivors[:k], (prune, k)
            assert report.survivor_count == full.survivor_count
            assert report.truncated == (report.survivor_count > k), (prune, k)


class _CountedReads(tuple):
    """A table that counts the entries read."""

    reads = 0

    def __getitem__(self, i):
        _CountedReads.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("name,r,d", [("chain_9torsion", 1, 12), ("chain_12torsion", 2, 12),
                                      ("chain_9torsion_elltail", 2, 14)])
def test_partners_read_a_few_entries_per_run(name, r, d):
    # within a run of the box (a fixed prefix b_0..b_{r-1}) the passing b are a suffix,
    # which _partners finds by bisection: at most ceil(log2(d + 2)) admit-bit reads per run,
    # and fewer than half of the box elements that pass the single-pole rule
    curve = load_fixture(name).curve
    pivot, branches, points = _analyze(curve)
    torsion = pivot.torsion_between(*points)
    lat = _lattice(r, d)
    index = {s: k for k, s in enumerate(lat.seqs)}
    for prune in (True, False):
        live = _CountedReads(_branch_table(branches[1].key, r, d, prune, True).live)
        reads = bound = walked = 0
        for ia, a in enumerate(lat.seqs):
            b_box = box(lat.seqs[lat.caps[ia]])
            expected = [index[b] for b in b_box if lat.pole_ok[index[b]]
                        and live[index[b]] and not torsion_fails(a, b, d, torsion)]
            _CountedReads.reads = 0
            assert list(_partners(ia, d, lat, live, torsion)) == expected, (prune, a)
            reads += _CountedReads.reads
            bound += len({b[:-1] for b in b_box}) * (d + 1).bit_length()
            walked += sum(lat.pole_ok[index[b]] for b in b_box)
        assert reads <= bound, prune
        assert 2 * reads < walked, prune


@pytest.mark.parametrize("name,r,d", [("chain_9torsion", 1, 12), ("chain_12torsion", 2, 12),
                                      ("chain_9torsion_elltail", 2, 14), ("chain_9torsion", 3, 12),
                                      ("chain_12torsion", 2, 17)])
def test_partners_skip_the_subtrees_that_fail(name, r, d):
    # a prefix whose largest b (c after it) the table does not admit is skipped with all of its
    # subtree, so over the walks of every a the runs read (one single-pole read each) number
    # at most the partners yielded plus one per walk; a walk of every prefix of each box
    # reads 4,499 runs for 271 partners on the g^2_12, and 27,607 for 1 on the g^3_12
    curve = load_fixture(name).curve
    pivot, branches, points = _analyze(curve)
    torsion = pivot.torsion_between(*points)
    lat = _lattice(r, d)
    counted = lat._replace(pole_ok=_CountedReads(lat.pole_ok))
    for prune in (True, False):
        live = _branch_table(branches[1].key, r, d, prune, True).live
        _CountedReads.reads = yielded = 0
        for ia in range(len(lat.seqs)):
            partners = list(_partners(ia, d, counted, live, torsion))
            assert partners == list(_partners(ia, d, lat, live, torsion))
            yielded += len(partners)
        assert _CountedReads.reads <= yielded + len(lat.seqs), (prune, _CountedReads.reads, yielded)


@settings(max_examples=30, deadline=None)
@given(pair_curves())
@example((SHARED_BOX[0], 2, 6))
def test_warm_verify_memo_matches_a_cold_call_on_listed_survivors(drawn):
    # verify_witness keeps a memo per curve and series; each listed survivor, verified after
    # the ones before it, reports what it reports after cache_clear, in both modes
    curve, r, d = drawn
    t = SeriesType(curve.genus, r, d)
    for prune in (True, False):
        assignments = [s.assignment_dict() for s in refute(curve, t, prune=prune).survivors]
        _lattice.cache_clear()
        warm = [verify_witness(curve, t, a) for a in assignments]
        for assignment, report in zip(assignments, warm):
            _lattice.cache_clear()
            assert verify_witness(curve, t, assignment) == report, (prune, assignment)
