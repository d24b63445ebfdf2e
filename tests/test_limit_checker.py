import json
from itertools import combinations
from math import comb
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_oracle import box, brute_force_pairs, torsion_fails

from bnlimits import limit_checker
from bnlimits.curvefile import curve_from_json, curve_to_json, load_curve_file, load_fixture
from bnlimits.curves import CompactCurve, Component, FactSheet, Node, SeriesDimFact, TorsionPair
from bnlimits.limit_checker import (
    MAX_CACHED_SEQUENCES,
    MAX_SEQUENCES,
    UnsupportedCurveError,
    _analyze,
    _branch_table,
    _down_sums,
    _lattice,
    _rank,
    _reader,
    _tables,
    _torsion_hits,
    additivity_audit,
    min_complement,
    node_compatible,
    refute,
    verify_witness,
)
from bnlimits.numerology import SeriesType, VanishingSeq, rho


def _v(entries, d):
    return VanishingSeq(tuple(entries), d)


TAIL_KEY = ("tail", 1, None, ())


def _key(kind, genus):
    """The table key of a general leaf or of a general bridge ending in a tail."""
    return kind, genus, None, ()


def _clamp_feasible(c, genus, d, r, cusps):
    """The clamp criterion on the ramification of c, with `cusps` extra cusp powers, by one loop."""
    shift = genus + cusps - d + r
    total = 0
    for i, ci in enumerate(c):
        v = ci - i + shift
        if v > 0:
            total += v
            if total > genus + cusps:
                return False
    return True


def test_node_compatible():
    assert node_compatible(_v((1, 2, 3), 15), _v((12, 13, 14), 15), 15) == "refined"
    assert node_compatible(_v((0, 12), 12), _v((0, 12), 12), 12) == "refined"
    assert node_compatible(_v((0, 1), 12), _v((0, 1), 12), 12) == "incompatible"
    assert node_compatible(_v((0, 12), 12), _v((1, 12), 12), 12) == "crude"
    for a, b, d in (((0, 12), (1, 12), 13), ((0, 12), (0, 11), 12), ((0, 1, 12), (0, 12), 12)):
        with pytest.raises(ValueError, match="^sequence bounds do not match the node degree$"):
            node_compatible(_v(a, max(a)), _v(b, max(b)), d)


def test_min_complement_is_minimal_compatible():
    d = 9
    for a in combinations(range(d + 1), 3):
        c = min_complement(a, d)
        assert node_compatible(_v(c, d), _v(a, d), d) != "incompatible"
        # minimality: every compatible sequence dominates it
        for s in combinations(range(d + 1), 3):
            if node_compatible(_v(s, d), _v(a, d), d) != "incompatible":
                assert all(x >= y for x, y in zip(s, c))


def test_additivity_audit_examples():
    audit = additivity_audit(SeriesType(23, 3, 20), [-9] + [1] * 8)
    assert (audit.lhs, audit.rhs, audit.satisfied, audit.equality) == (-1, -1, True, True)
    audit = additivity_audit(SeriesType(23, 2, 15), [-15] + [1] * 8)
    assert (audit.lhs, audit.rhs, audit.equality) == (-7, -7, True)
    audit = additivity_audit(SeriesType(4, 1, 3), [0, -2])
    assert audit.satisfied and not audit.equality
    audit = additivity_audit(SeriesType(4, 1, 3), [1, 0])
    assert not audit.satisfied


@pytest.fixture(scope="module")
def fixtures():
    return {name: load_fixture(name) for name in
            ("chain_9torsion", "chain_12torsion", "chain_9torsion_elltail", "septic_star")}


def test_refute_pencil_on_12torsion_chain(fixtures):
    desc = fixtures["chain_12torsion"]
    report = refute(desc.curve, SeriesType(23, 1, 12))
    assert report.verdict == "survivors"
    assert report.survivor_count == 1
    assert report.candidates_examined == 78 * 78
    only = report.survivors[0].assignment_dict()
    assert only == {
        "C1": {"p1": (0, 12)},
        "C2": {"p2": (0, 12)},
        "E": {"p1": (0, 12), "p2": (0, 12)},
    }


def test_refute_pencil_on_9torsion_chain(fixtures):
    report = refute(fixtures["chain_9torsion"].curve, SeriesType(23, 1, 12))
    assert report.verdict == "refuted"
    hits = dict(report.rule_hits)
    assert sum(hits.values()) == report.candidates_examined
    assert "elliptic-torsion-divisibility@E" in hits


def test_refute_net_on_9torsion_chain_survivors(fixtures):
    report = refute(fixtures["chain_9torsion"].curve, SeriesType(23, 2, 17))
    assert report.verdict == "survivors"
    paper_config = {
        "C1": {"p1": (4, 9, 13)},
        "C2": {"p2": (4, 9, 13)},
        "E": {"p1": (4, 8, 13), "p2": (4, 8, 13)},
    }
    assert paper_config in [s.assignment_dict() for s in report.survivors]


def test_refute_star_counting_rule(fixtures):
    report = refute(fixtures["septic_star"].curve, SeriesType(23, 1, 12))
    assert report.verdict == "refuted"
    assert dict(report.rule_hits) == {"factsheet-ramification-count@G": 1}
    assert report.candidates_examined == 1


def test_refute_star_unknown_series_survives_unconfirmed(fixtures):
    # no dimension fact for nets of degree 15: the floor candidate survives, flagged
    report = refute(fixtures["septic_star"].curve, SeriesType(23, 2, 15))
    assert report.verdict == "survivors"
    assert report.survivor_count == 1
    assert report.survivors[0].unconfirmed == ("G",)
    aspects = report.survivors[0].assignment_dict()
    assert aspects["G"]["p1"] == (0, 2, 3)
    assert aspects["E1"]["p1"] == (12, 13, 15)
    # a cap of 0 lists no survivor and marks the listing truncated, as on every other shape
    capped = refute(fixtures["septic_star"].curve, SeriesType(23, 2, 15), survivor_cap=0)
    assert (capped.survivor_count, capped.survivors, capped.truncated) == (1, (), True)


def test_rule_hits_partition_candidates(fixtures):
    for name, series in [("chain_9torsion", (3, 20)), ("chain_12torsion", (2, 17))]:
        report = refute(fixtures[name].curve, SeriesType(23, *series))
        assert report.verdict == "refuted"
        assert sum(v for _, v in report.rule_hits) == report.candidates_examined


@pytest.mark.parametrize("name,series", [
    ("chain_9torsion", (1, 12)),
    ("chain_12torsion", (1, 12)),
    ("chain_12torsion", (1, 11)),
    ("chain_9torsion_elltail", (1, 12)),
    ("septic_star", (1, 12)),
    ("chain_9torsion_elltail", (1, 13)),  # a genus-10 bridge and a genus-11 leaf, with survivors
])
def test_pruned_matches_naive(fixtures, name, series):
    curve = fixtures[name].curve
    t = SeriesType(23, *series)
    pruned = refute(curve, t, prune=True)
    naive = refute(curve, t, prune=False)
    assert pruned.verdict == naive.verdict
    assert pruned.survivor_count == naive.survivor_count
    assert pruned.survivors == naive.survivors


def test_refute_deterministic(fixtures):
    curve = fixtures["chain_12torsion"].curve
    t = SeriesType(23, 1, 12)
    a = refute(curve, t)
    b = refute(curve, t)
    assert a == b


def _clear_caches():
    _lattice.cache_clear()
    _branch_table.cache_clear()


def _held_within_bound():
    # a far branch table also holds good_in, and one with links the tables beyond them
    held = sum(len(table[0]) + len(getattr(table, "good_in", ()))
               + sum(len(b.live) for b in getattr(table, "beyond", ()))
               for table in _tables.tables.values())
    return held == _tables.held <= limit_checker.MAX_CACHED_SEQUENCES


def test_cached_tables_do_not_change_reports(fixtures, monkeypatch):
    cases = [("chain_9torsion", (2, 17), True), ("chain_12torsion", (2, 17), True),
             ("chain_9torsion_elltail", (2, 17), True), ("septic_star", (1, 12), True),
             ("chain_12torsion", (1, 12), False), ("chain_9torsion_elltail", (1, 12), False),
             ("chain_9torsion", (1, 12), True), ("septic_star", (1, 12), False)]

    def run(case):
        name, series, prune = case
        report = refute(fixtures[name].curve, SeriesType(23, *series), prune=prune).to_json()
        assert _held_within_bound(), (case, _tables.held)
        return report

    # a bound of 2,000 evicts tables within one g^2_17 refutation (816 sequences a table),
    # one of 500 every g^2_17 table as soon as it is built
    for bound in (MAX_CACHED_SEQUENCES, 2000, 500):
        monkeypatch.setattr(limit_checker, "MAX_CACHED_SEQUENCES", bound)
        _clear_caches()
        forward = [run(case) for case in cases]
        backward = [run(case) for case in reversed(cases)][::-1]
        cold = []
        for case in cases:
            _clear_caches()
            cold.append(run(case))
        _clear_caches()
        assert forward == backward == cold, bound


def test_bridge_and_leaf_of_one_genus_get_different_tables(fixtures):
    # the tail chain with its genus-11 leaf replaced by a genus-10 one
    doc = curve_to_json(fixtures["chain_9torsion_elltail"])
    doc["genus"] = 22
    next(c for c in doc["components"] if c["id"] == "C2")["genus"] = 10
    curve = curve_from_json(doc).curve
    bridge = _branch_table(_key("bridge", 10), 1, 12, True)
    leaf = _branch_table(_key("general", 10), 1, 12, True)
    assert bridge.live != leaf.live
    report = refute(curve, SeriesType(22, 1, 12))
    assert report.survivor_count > 0
    expected = brute_force_pairs(curve, 1, 12)
    assert (report.rule_hits, report.survivors) == (expected["rule_hits"], expected["survivors"])


def test_cached_tables_are_immutable():
    d = 8
    lat = _lattice(2, d)
    table = _branch_table(_key("general", 11), 2, d, True, True)
    tail = _branch_table(TAIL_KEY, 2, d, True)
    for part in (lat.seqs, lat.cols, *lat.cols, lat.steps, *lat.steps, lat.caps, lat.pole_ok,
                 lat.box, lat.pole_in, table.good_in, tail.floor):
        assert isinstance(part, tuple)
    assert type(table.live) is type(tail.live) is bytes  # one admit bit per sequence
    with pytest.raises(AttributeError):
        table.live = b""
    with pytest.raises(AttributeError):
        lat.box = ()


def _positions(r, d):
    """Each sequence's position, by the order of combinations."""
    return {s: k for k, s in enumerate(combinations(range(d + 1), r + 1))}


def _clamped_steps(lat, r, index):
    """Per axis j: the index of s - e_j with earlier coordinates clamped below it, or -1."""
    steps = []
    for j in range(r + 1):
        row = []
        for s in lat.seqs:
            c = list(s)
            c[j] -= 1
            k = j
            while k > 0 and c[k - 1] >= c[k]:
                c[k - 1] = c[k] - 1
                k -= 1
            row.append(index[tuple(c)] if c[0] >= 0 else -1)
        steps.append(tuple(row))
    return tuple(steps)


def _dominated(lat):
    """Per sequence s, the bit set of the positions of the b <= s, by a test of every pair."""
    below = []  # per axis j and value v: the positions k with seqs[k][j] <= v
    for col in lat.cols:
        masks = [0] * (max(col) + 1)
        for k, x in enumerate(col):
            masks[x] |= 1 << k
        for v in range(1, len(masks)):
            masks[v] |= masks[v - 1]
        below.append(masks)
    out = []
    for s in lat.seqs:
        mask = -1
        for masks, x in zip(below, s):
            mask &= masks[x]
        out.append(mask)
    return out


def _oracle_lattices():
    # every lattice of degree up to 2g - 2 = 44 at genus 23 with at most 2,000 sequences,
    # and the audit's g^3_20 (5,985)
    for r in range(45):
        for d in range(r, 45):
            if comb(d + 1, r + 1) > 2000:
                break
            yield r, d
    yield 3, 20


def test_lattice_steps_and_caps_match_clamping():
    checked = 0
    for r, d in _oracle_lattices():
        lat = _lattice.__wrapped__(r, d)
        index = _positions(r, d)
        assert lat.seqs == tuple(index), (r, d)
        assert all(_rank(s, d) == k for s, k in index.items()), (r, d)
        assert lat.steps == _clamped_steps(lat, r, index), (r, d)
        assert lat.caps == tuple(index[min_complement(s, d)] for s in lat.seqs), (r, d)
        assert _reader(lat.caps)(lat.seqs) == tuple(map(lat.seqs.__getitem__, lat.caps)), (r, d)
        assert lat.cols == tuple(zip(*lat.seqs)), (r, d)
        pole_ok = tuple(s[-2:] != (d - 1, d) for s in lat.seqs)
        assert lat.pole_ok == pole_ok, (r, d)
        fails = sum(1 << k for k, ok in enumerate(pole_ok) if not ok)
        below = _dominated(lat)
        assert lat.box == tuple(m.bit_count() for m in below), (r, d)
        assert lat.pole_in == tuple((m & fails).bit_count() for m in below), (r, d)
        if len(lat.seqs) <= 300:  # walking every box of the larger lattices takes a minute
            boxes = [box(s) for s in lat.seqs]
            assert lat.box == tuple(map(len, boxes)), (r, d)
            assert lat.pole_in == tuple(sum(b[-2:] == (d - 1, d) for b in box)
                                        for box in boxes), (r, d)
        checked += 1
    assert checked == 278


def _scanned_live(lat, feasible):
    """Naive admit bits by a scan: does any clamp-feasible s lie above caps(a)?"""
    listed = [s for s, f in zip(lat.seqs, feasible) if f]
    return bytes(any(all(x >= y for x, y in zip(s, lat.seqs[c])) for s in listed)
                 for c in lat.caps)


def test_pruned_status_tables_match_clamp_feasible():
    # the tables are summed column by column; _clamp_feasible tests one sequence, caps(a)
    # (test_naive_table_matches_the_scan checks the naive tables against it)
    checked = 0
    for r in range(5):
        for d in range(r, 16):
            lat = _lattice(r, d)
            if len(lat.seqs) > 2000:
                break
            for kind, cusps in (("general", 0), ("bridge", 1)):
                for genus in range(0, 13, 2):
                    feasible = [_clamp_feasible(s, genus, d, r, cusps) for s in lat.seqs]
                    live = _branch_table.__wrapped__(_key(kind, genus), r, d, True).live
                    assert live == bytes(feasible[c] for c in lat.caps), (kind, genus, r, d)
                    checked += 1
    assert checked == 938


@pytest.mark.parametrize("r,d,genera", [
    (0, 12, (5,)), (1, 12, (4, 11)), (2, 9, (3, 8)), (2, 17, (11,)), (3, 12, (5, 9)),
    (4, 11, (4, 7)), (5, 11, (4, 6)),
])
def test_naive_table_matches_the_scan(r, d, genera):
    # the naive table reads one down-set sum; the scan is its oracle (C(d+1, r+1) <= 2,000)
    lat = _lattice(r, d)
    assert len(lat.seqs) <= 2000
    for kind, cusps in (("general", 0), ("bridge", 1)):
        for genus in genera:
            feasible = [_clamp_feasible(s, genus, d, r, cusps) for s in lat.seqs]
            live = _branch_table.__wrapped__(_key(kind, genus), r, d, False).live
            assert live == _scanned_live(lat, feasible), (kind, genus)
            assert 1 in live and (0 in live or r == 0), (kind, genus)


@pytest.mark.parametrize("r,d", [(0, 6), (1, 2), (1, 9), (2, 4), (2, 9), (3, 10), (4, 9), (5, 9)])
def test_torsion_hits_match_the_walked_box(r, d):
    # a pseudo-random set of good b; each count must equal a walk over the box b <= caps(a)
    lat = _lattice(r, d)
    index = _positions(r, d)
    good = [(i * 7919) % 5 != 0 for i in range(len(lat.seqs))]
    good_in = _down_sums(lat.steps, good)
    for torsion in (None, 2, 3, 4, 5, 6, 7):
        for ia, (a, ic) in enumerate(zip(lat.seqs, lat.caps)):
            walked = sum(1 for b in box(lat.seqs[ic])
                         if good[index[b]] and torsion_fails(a, b, d, torsion))
            assert _torsion_hits(ia, ic, lat, good_in, torsion) == walked, (a, torsion)


def test_star_points_not_general_never_refutes(fixtures):
    # the counting rule needs general points; without them the hub abstains
    doc = curve_to_json(fixtures["septic_star"])
    doc["components"][0]["facts"]["points_general"] = False
    curve = curve_from_json(doc).curve
    report = refute(curve, SeriesType(23, 1, 12))
    assert report.verdict == "survivors"
    assert report.survivors[0].unconfirmed == ("G",)
    assert "factsheet-ramification-count@G" not in dict(report.rule_hits)


def test_refute_rejects_bad_sizes(fixtures):
    curve = fixtures["chain_9torsion"].curve
    with pytest.raises(ValueError, match="survivor cap"):
        refute(curve, SeriesType(23, 1, 12), survivor_cap=-1)
    with pytest.raises(ValueError, match="^series genus 22 does not match curve genus 23$"):
        refute(curve, SeriesType(22, 1, 12))
    # g^5_24 and g^11_32 are refused before any sequence is built
    for r, d in ((5, 24), (11, 32)):
        with pytest.raises(ValueError, match="vanishing sequences per point"):
            refute(curve, SeriesType(23, r, d))
    assert comb(21, 4) <= MAX_SEQUENCES  # the audit's webs stay inside the limit


def test_verify_witness_confirmed(fixtures):
    desc = fixtures["chain_9torsion"]
    report = verify_witness(desc.curve, SeriesType(23, 2, 17),
                            desc.witness("g2_17").aspects_dict())
    assert report.verdict == "confirmed"
    assert report.refined
    assert dict(report.aspect_rhos) == {"C1": 0, "C2": 0, "E": -1}
    assert report.additivity.equality and report.additivity.lhs == -1
    assert any("smoothability" in note for note in report.notes)
    # each component's points as a read-only mapping, cold and warm: the same report
    frozen = {comp: MappingProxyType(pts)
              for comp, pts in desc.witness("g2_17").aspects_dict().items()}
    for _ in range(2):
        assert verify_witness(desc.curve, SeriesType(23, 2, 17), frozen) == report
        _lattice.cache_clear()


def test_verify_witness_pencil(fixtures):
    desc = fixtures["chain_12torsion"]
    report = verify_witness(desc.curve, SeriesType(23, 1, 12),
                            desc.witness("g1_12").aspects_dict())
    assert report.verdict == "confirmed" and report.refined


def test_verify_witness_star_consistent(fixtures):
    desc = fixtures["septic_star"]
    report = verify_witness(desc.curve, SeriesType(23, 2, 15),
                            desc.witness("g2_15").aspects_dict())
    assert report.verdict == "consistent"
    assert dict(report.aspect_rhos)["G"] == -15
    assert all(dict(report.aspect_rhos)[f"E{i}"] == 1 for i in range(1, 9))
    assert report.additivity.lhs == -7 and report.additivity.equality
    statuses = {c.component: c.status for c in report.components}
    assert statuses["G"] == "unknown"


def test_verify_witness_tail_chain(fixtures):
    desc = fixtures["chain_9torsion_elltail"]
    report = verify_witness(desc.curve, SeriesType(23, 2, 17),
                            desc.witness("g2_17").aspects_dict())
    assert report.verdict == "confirmed" and report.refined
    assert report.additivity.equality


def test_verify_witness_rejects_bad_torsion():
    # same pencil data on the 9-torsion chain must fail the divisibility rule
    desc9 = load_fixture("chain_9torsion")
    desc12 = load_fixture("chain_12torsion")
    report = verify_witness(desc9.curve, SeriesType(23, 1, 12),
                            desc12.witness("g1_12").aspects_dict())
    assert report.verdict == "rejected"


def _with(aspects, comp, point, entries):
    return {**aspects, comp: {**aspects.get(comp, {}), point: entries}}


def test_verify_witness_input_errors(fixtures):
    # every check on the caller's input, each with its exact message
    desc = fixtures["chain_9torsion"]
    aspects = desc.witness("g2_17").aspects_dict()
    t = SeriesType(23, 2, 17)
    # C1 of the chain with a second marked point x that sits in no node
    marked = desc.curve._replace(components=(
        desc.curve.components[0]._replace(points=("p1", "x")), *desc.curve.components[1:]))
    cases = [
        (desc.curve, t, {k: v for k, v in aspects.items() if k != "C1"},
         "assignment incomplete: C1 lacks ['p1']"),
        (desc.curve, SeriesType(23, 3, 20), aspects, "sequence at C1.p1 has length 3, need 4"),
        (desc.curve, SeriesType(22, 2, 17), aspects,
         "series genus 22 does not match curve genus 23"),
        (desc.curve, t, _with(aspects, "C1", "zz", (4, 9, 13)),
         "assignment names unknown point C1.zz"),
        (marked, t, _with(aspects, "C1", "x", (4, 9, 13)),
         "point C1.x is not a node; only node points carry witness data"),
        (desc.curve, t, _with(aspects, "E", "p2", (4, 8, 18)),
         "vanishing sequence (4, 8, 18) out of range [0, 17]"),
        (desc.curve, t, _with(aspects, "E", "p2", (-1, 8, 13)),
         "vanishing sequence (-1, 8, 13) out of range [0, 17]"),
        (desc.curve, t, _with(aspects, "C2", "p2", (4, 9, 9)),
         "vanishing sequence (4, 9, 9) is not strictly increasing"),
        (desc.curve, t, _with(aspects, "C2", "p2", ()), "vanishing sequence must be nonempty"),
        # an UnsupportedCurveError, raised by the elliptic oracle after every check above
        (_three_noded_elliptic(), SeriesType(4, 1, 3),
         {"X": dict.fromkeys("abc", (1, 3)), **{f"T{p}": {p: (0, 2)} for p in "abc"}},
         "elliptic component X has more than two nodes"),
    ]
    for curve, series, assignment, message in cases:
        with pytest.raises(ValueError) as err:
            verify_witness(curve, series, assignment)
        assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        verify_witness(desc.curve, t, {**aspects, "X": {}})
    assert str(err.value) == "assignment names unknown component X"


def test_verify_plan_is_one_slot_cleared_with_the_tables(fixtures):
    # verify_witness keeps the plan of the last curve only, and cache_clear drops it
    desc, other = fixtures["chain_9torsion"], fixtures["chain_12torsion"]
    t = SeriesType(23, 2, 17)
    first = verify_witness(desc.curve, t, desc.witness("g2_17").aspects_dict())
    assert _tables.plan[0] is desc.curve
    verify_witness(other.curve, SeriesType(23, 1, 12), other.witness("g1_12").aspects_dict())
    assert _tables.plan[0] is other.curve and _tables.plan[1] == (23, 1, 12)
    _lattice.cache_clear()
    assert _tables.plan == (None, None, None)
    assert verify_witness(desc.curve, t, desc.witness("g2_17").aspects_dict()) == first


# every fixture series with survivors here, and an elliptic chain with one witness per link
MEMO_CASES = [("chain_9torsion", (2, 17)), ("chain_9torsion", (2, 18)), ("chain_12torsion", (1, 14)),
              ("chain_9torsion_elltail", (3, 21)), ("septic_star", (2, 15)), ("septic_star", (3, 20)),
              ("elliptic_chain_8_3torsion", (2, 7))]


def _memo_curve(fixtures, name):
    if name in fixtures:
        return fixtures[name].curve
    return load_curve_file(Path(__file__).parent / "curves" / f"{name}.json").curve


def _memo_sizes():
    return tuple(map(len, _tables.plan[2][3]))


@pytest.mark.parametrize("name,series", MEMO_CASES)
def test_warm_verify_memo_matches_a_cold_call(fixtures, name, series):
    # each listed survivor, verified after the ones before it (the memo warm), reports exactly
    # what it reports after cache_clear (the memo empty); repeated aspects are audited once
    curve = _memo_curve(fixtures, name)
    t = SeriesType(curve.genus, *series)
    for prune in (True, False):
        assignments = [s.assignment_dict() for s in refute(curve, t, prune=prune).survivors]
        assert assignments
        _lattice.cache_clear()
        warm = [verify_witness(curve, t, a) for a in assignments]
        audited = sum(_memo_sizes()[1:])
        for assignment, report in zip(assignments, warm):
            _lattice.cache_clear()
            cold = verify_witness(curve, t, assignment)
            assert cold == report and repr(cold) == repr(report), (prune, assignment)
        checks = len(assignments) * (len(curve.nodes) + len(curve.components))
        assert audited <= checks and (audited < checks or len(assignments) == 1), (prune, audited)


@pytest.mark.parametrize("name,series", MEMO_CASES)
def test_listed_survivors_share_equal_component_aspects(fixtures, name, series):
    # a listing builds each component's aspects once: survivors that agree on a component
    # hold one object for it, and some component repeats in every listing of two or more
    curve = _memo_curve(fixtures, name)
    t = SeriesType(curve.genus, *series)
    for prune in (True, False):
        parts = [part for s in refute(curve, t, prune=prune).survivors for part in s.assignment]
        by_value = {}
        for part in parts:
            assert by_value.setdefault(part, part) is part, (prune, part)
        assert len(by_value) < len(parts) or len(parts) == len(curve.components), prune


@pytest.mark.parametrize("name,series", [*MEMO_CASES, ("link_to_factsheet", (1, 4))])
def test_listed_survivors_share_pairs_and_flags(fixtures, name, series):
    # a listing builds each (point, sequence) pair and each unconfirmed tuple once: equal ones
    # are one object, across the survivors and across components with the same point name,
    # and some pair repeats in every listing of two or more
    curve = _memo_curve(fixtures, name)
    t = SeriesType(curve.genus, *series)
    for prune in (True, False):
        survivors = refute(curve, t, prune=prune).survivors
        pairs = [pair for s in survivors for _, pts in s.assignment for pair in pts]
        flags = [s.unconfirmed for s in survivors]
        for kept in (pairs, flags):
            by_value = {}
            for item in kept:
                assert by_value.setdefault(item, item) is item, (prune, item)
        assert len({*map(id, pairs)}) < len(pairs) or len(survivors) == 1, prune


def test_verify_memo_keeps_the_first_error(fixtures):
    # with every component's aspects in the memo, a fault in a later component (plan order
    # C1, E, C2) raises the message of a cold call, before any oracle runs; the earlier fault
    # wins when there are two; a failed call leaves the memo as it was
    desc = fixtures["chain_9torsion"]
    t = SeriesType(23, 2, 17)
    aspects = desc.witness("g2_17").aspects_dict()
    cases = [
        (_with(aspects, "C2", "p2", (4, 9, 9)), ValueError,
         "vanishing sequence (4, 9, 9) is not strictly increasing"),
        (_with(aspects, "C2", "p2", (4, 9)), ValueError, "sequence at C2.p2 has length 2, need 3"),
        (_with(aspects, "C2", "zz", (4, 9, 13)), ValueError, "assignment names unknown point C2.zz"),
        ({k: v for k, v in aspects.items() if k != "C2"}, ValueError,
         "assignment incomplete: C2 lacks ['p2']"),
        (_with(_with(aspects, "E", "p2", (4, 8, 18)), "C2", "p2", (4, 9, 9)), ValueError,
         "vanishing sequence (4, 8, 18) out of range [0, 17]"),
        ({**aspects, "X": {}}, ValueError, "assignment names unknown component X"),
    ]
    for assignment, error, message in cases:
        for warm in (True, False):
            _lattice.cache_clear()
            if warm:
                first = verify_witness(desc.curve, t, aspects)
                sizes = _memo_sizes()
            with pytest.raises(error) as err:
                verify_witness(desc.curve, t, assignment)
            assert str(err.value) == message, warm
            if warm:
                assert _memo_sizes() == sizes
                assert verify_witness(desc.curve, t, aspects) == first


def test_verify_memo_keeps_lists_floats_and_bools_apart(fixtures):
    # entries that are not a tuple of ints are checked afresh and keep no audit: with the
    # int tuple of equal value in the memo, each reports what it reports cold, byte for byte
    desc = fixtures["chain_9torsion"]
    t = SeriesType(23, 2, 17)
    aspects = desc.witness("g2_17").aspects_dict()
    entries = aspects["C2"]["p2"]  # (4, 9, 13)
    ints = {"list": entries, "float": entries, "bool": (1, *entries[1:])}
    variants = {"list": list(entries), "float": tuple(map(float, entries)),
                "bool": (True, *entries[1:])}
    warm = {}
    for kind, variant in variants.items():
        _lattice.cache_clear()
        verify_witness(desc.curve, t, _with(aspects, "C2", "p2", ints[kind]))
        sizes = _memo_sizes()
        warm[kind] = verify_witness(desc.curve, t, _with(aspects, "C2", "p2", variant))
        assert _memo_sizes() == sizes, kind
        _lattice.cache_clear()
        cold = verify_witness(desc.curve, t, _with(aspects, "C2", "p2", variant))
        assert json.dumps(warm[kind].to_json()) == json.dumps(cold.to_json()), kind
        assert repr(warm[kind]) == repr(cold), kind
    assert warm["float"].nodes[1].sums == (17.0, 17.0, 17.0)
    assert "17.0" in json.dumps(warm["float"].to_json())


def test_verify_memo_lives_and_dies_with_the_plan(fixtures, monkeypatch):
    # the memo sits in the plan: another curve or series, or cache_clear, starts an empty
    # one, and a call that leaves more than MAX_VERIFY_MEMO entries drops the plan
    desc, other = fixtures["chain_12torsion"], fixtures["chain_9torsion"]
    t = SeriesType(23, 1, 14)
    assignments = [s.assignment_dict() for s in refute(desc.curve, t).survivors]
    verify_witness(desc.curve, t, assignments[0])
    memo = _tables.plan[2][3]
    assert all(_memo_sizes())
    t13 = SeriesType(23, 1, 13)
    verify_witness(desc.curve, t13, refute(desc.curve, t13).survivors[0].assignment_dict())
    assert _tables.plan[2][3] is not memo
    verify_witness(other.curve, SeriesType(23, 2, 17), other.witness("g2_17").aspects_dict())
    assert _tables.plan[0] is other.curve and _memo_sizes() == (4, 2, 3)
    _lattice.cache_clear()
    assert _tables.plan == (None, None, None)
    # one call on this chain holds at most 4 sequences, 2 node and 3 component audits
    monkeypatch.setattr(limit_checker, "MAX_VERIFY_MEMO", 9)
    cold = []
    for assignment in assignments:
        _lattice.cache_clear()
        cold.append(verify_witness(desc.curve, t, assignment))
    _lattice.cache_clear()
    dropped = 0
    for assignment, report in zip(assignments, cold):
        assert verify_witness(desc.curve, t, assignment) == report
        if _tables.plan[0] is None:
            dropped += 1
        else:
            assert sum(_memo_sizes()) <= 9
    assert 0 < dropped < len(assignments)


def test_verify_memo_keeps_nothing_of_a_large_curve():
    # one call on a star of 1,000 elliptic tails audits 1,000 nodes and 1,001 components,
    # beyond MAX_VERIFY_MEMO: nothing of it is kept once the call returns
    n = 1_000
    curve = CompactCurve("star", 3 + n, (Component("H", 3, "general", tuple(f"p{i}" for i in range(n))),
                                         *(Component(f"E{i}", 1, "elliptic", ("q",)) for i in range(n))),
                         tuple(Node((("H", f"p{i}"), (f"E{i}", "q"))) for i in range(n)))
    t = SeriesType(curve.genus, 1, 3)
    assignment = {"H": {f"p{i}": (0, 1) for i in range(n)}, **{f"E{i}": {"q": (2, 3)} for i in range(n)}}
    _lattice.cache_clear()
    report = verify_witness(curve, t, assignment)
    assert _tables.plan == (None, None, None)
    assert verify_witness(curve, t, assignment) == report
    assert _tables.plan == (None, None, None)
    assert len(report.nodes) == n and len(report.components) == n + 1


def test_additivity_identity_on_witnesses(fixtures):
    # rho(g,r,d) = sum of aspect rho + total node excess, for complete assignments
    for name, wname in [("chain_9torsion", "g2_17"), ("chain_12torsion", "g1_12"),
                        ("septic_star", "g2_15"), ("septic_star", "g3_20"),
                        ("chain_9torsion_elltail", "g2_17")]:
        desc = fixtures[name]
        w = desc.witness(wname)
        report = verify_witness(desc.curve, SeriesType(23, *w.series), w.aspects_dict())
        excess = sum(v for _, v in report.node_excess)
        assert report.additivity.lhs == report.additivity.rhs + excess


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_chain_engine_coherence(data):
    # on random torsion chains: pruned == naive, and survivors re-verify
    ga = data.draw(st.integers(2, 8))
    gb = data.draw(st.integers(2, 8))
    order = data.draw(st.integers(2, 13))
    r = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(r + 1, 8))
    curve = CompactCurve(
        "fuzz-chain", ga + gb + 1,
        (
            Component("A", ga, "general", ("p",)),
            Component("E", 1, "elliptic", ("p", "q"),
                      torsion=(TorsionPair(("p", "q"), order),)),
            Component("B", gb, "general", ("q",)),
        ),
        (Node((("A", "p"), ("E", "p"))), Node((("E", "q"), ("B", "q")))),
    )
    t = SeriesType(curve.genus, r, d)
    pruned = refute(curve, t, survivor_cap=10)
    naive = refute(curve, t, prune=False, survivor_cap=10)
    assert pruned.verdict == naive.verdict
    assert pruned.survivors == naive.survivors
    assert pruned.survivor_count == naive.survivor_count
    assert sum(v for _, v in pruned.rule_hits) + pruned.survivor_count == \
        pruned.candidates_examined
    for survivor in pruned.survivors[:3]:
        check = verify_witness(curve, t, survivor.assignment_dict())
        assert check.verdict != "rejected", survivor


def test_refutation_report_invariants(fixtures):
    cases = [
        ("chain_9torsion", (3, 20)), ("chain_9torsion", (1, 12)),
        ("chain_12torsion", (2, 17)), ("septic_star", (1, 12)),
    ]
    for name, series in cases:
        report = refute(fixtures[name].curve, SeriesType(23, *series))
        assert report.verdict == "refuted"
        assert report.survivors == () and report.survivor_count == 0
        assert report.candidates_examined > 0
        assert not report.truncated


def test_survivors_reverify(fixtures):
    # anything the refuter lets through must not be rejected by the verifier
    for name, series in [("chain_12torsion", (1, 12)), ("chain_9torsion", (2, 17))]:
        desc = fixtures[name]
        t = SeriesType(23, *series)
        report = refute(desc.curve, t)
        assert report.verdict == "survivors"
        for survivor in report.survivors[:5]:
            check = verify_witness(desc.curve, t, survivor.assignment_dict())
            assert check.verdict != "rejected", (name, survivor)


def test_pair_engine_matches_raw_joint_enumeration():
    # independent oracle: enumerate all four slots jointly and canonicalize
    curve = CompactCurve(
        id="toy-chain",
        genus=5,
        components=(
            Component("A", 2, "general", ("p",)),
            Component("E", 1, "elliptic", ("p", "q"),
                      torsion=(TorsionPair(("p", "q"), 3),)),
            Component("B", 2, "general", ("q",)),
        ),
        nodes=(Node((("A", "p"), ("E", "p"))), Node((("E", "q"), ("B", "q")))),
    )
    for d in (3, 4, 5):
        t = SeriesType(5, 1, d)
        seqs = list(combinations(range(d + 1), 2))

        def compatible(x, y):
            return all(x[i] + y[1 - i] >= d for i in range(2))

        def clamp_ok(c, genus):
            shift = genus - d + 1
            return sum(max(c[i] - i + shift, 0) for i in range(2)) <= genus

        def elliptic_ok(a, b):
            if (d - 1 in a and d in a) or (d - 1 in b and d in b):
                return False
            sums = [a[i] + b[1 - i] for i in range(2)]
            if any(s > d for s in sums):
                return False
            eq = [i for i in range(2) if sums[i] == d]
            return len(eq) < 2 or (a[eq[1]] - a[eq[0]]) % 3 == 0

        raw = set()
        for a in seqs:
            for b in seqs:
                if not elliptic_ok(a, b):
                    continue
                left = [s for s in seqs if compatible(s, a) and clamp_ok(s, 2)]
                right = [s for s in seqs if compatible(s, b) and clamp_ok(s, 2)]
                if left and right:
                    raw.add((min(left), a, b, min(right)))

        report = refute(curve, t)
        got = set()
        for s in report.survivors:
            asn = s.assignment_dict()
            got.add((asn["A"]["p"], asn["E"]["p"], asn["E"]["q"], asn["B"]["q"]))
        assert report.survivor_count == len(raw)
        assert got == raw


def test_unknown_oracle_never_refutes():
    # a fact sheet with no relevant dimension fact cannot eliminate candidates
    from bnlimits.curves import FactSheet, SeriesDimFact

    curve = CompactCurve(
        id="factsheet-tail",
        genus=16,
        components=(
            Component("F", 15, "factsheet", ("p",),
                      facts=FactSheet((SeriesDimFact(2, 9, 0),), gonality=6)),
            Component("E", 1, "elliptic", ("p",)),
        ),
        nodes=(Node((("F", "p"), ("E", "p"))),),
    )
    report = refute(curve, SeriesType(16, 1, 12))
    assert report.verdict == "survivors"
    assert all(s.unconfirmed == ("F",) for s in report.survivors)
    hits = dict(report.rule_hits)
    assert hits.get("elliptic-single-pole@E", 0) == 1  # only (11, 12) dies
    assert report.survivor_count == report.candidates_examined - 1


def test_two_elliptic_curves_at_one_node():
    # genus 2 as two elliptic curves meeting at general points: by Eisenbud-Harris a limit
    # g^r_d exists iff rho >= 0; the second curve is a tail of the one-noded pivot E1
    curve = CompactCurve(
        id="two-elliptic",
        genus=2,
        components=(
            Component("E1", 1, "elliptic", ("p",)),
            Component("E2", 1, "elliptic", ("p",)),
        ),
        nodes=(Node((("E1", "p"), ("E2", "p"))),),
    )
    report = refute(curve, SeriesType(2, 1, 3))
    assert report.verdict == "survivors" and rho(SeriesType(2, 1, 3)) == 2
    checked = 0
    for r in range(4):
        for d in range(r + 1, 2 * 2 - 2 + r + 1):
            t = SeriesType(2, r, d)
            report = refute(curve, t)
            assert (report.verdict == "refuted") == (rho(t) < 0), (r, d)
            assert report.to_json() | {"pruned": None} == \
                refute(curve, t, prune=False).to_json() | {"pruned": None}, (r, d)
            assert set(dict(report.rule_hits)) <= {"elliptic-single-pole@E1",
                                                   "elliptic-single-pole@E2"}, (r, d)
            for survivor in report.survivors:
                assert verify_witness(curve, t, survivor.assignment_dict()).verdict != "rejected"
            checked += 1
    assert checked == 8


def _star_with_arm(arm: str) -> CompactCurve:
    """A general hub H with two elliptic tails and one more arm of the given shape."""
    comps = [Component("H", 3, "general", ("o", "p", "q"))]
    nodes = []
    for p in "op":
        comps.append(Component(f"T{p}", 1, "elliptic", (p,)))
        nodes.append(Node((("H", p), (f"T{p}", p))))
    if arm == "general-leaf":
        comps.append(Component("C", 2, "general", ("q",)))
        nodes.append(Node((("H", "q"), ("C", "q"))))
    else:  # an elliptic link ending in a tail
        comps += [Component("L", 1, "elliptic", ("q", "x")), Component("U", 1, "elliptic", ("x",))]
        nodes += [Node((("H", "q"), ("L", "q"))), Node((("L", "x"), ("U", "x")))]
    return CompactCurve(f"star-{arm}", sum(c.genus for c in comps), tuple(comps), tuple(nodes))


def _star(hub_kind: str) -> CompactCurve:
    """A hub H of the given kind with three one-noded elliptic tails."""
    comps = [Component("H", 4, hub_kind, ("a", "b", "c"),
                       facts=FactSheet() if hub_kind == "factsheet" else None)]
    nodes = []
    for p in "abc":
        comps.append(Component(f"T{p}", 1, "elliptic", (p,)))
        nodes.append(Node((("H", p), (f"T{p}", p))))
    return CompactCurve(f"star-{hub_kind}", 7, tuple(comps), tuple(nodes))


def test_every_star_arm_is_the_one_tail(fixtures):
    # refute reads one tail table for all of a star's arms: every arm that _analyze
    # accepts around a general or fact-sheet hub has the same key, that of a lone tail
    for curve in (fixtures["septic_star"].curve, _star("general"), _star("factsheet")):
        pivot, branches, _ = _analyze(curve)
        assert pivot.kind != "elliptic" and len(branches) >= 2, curve.id
        assert {b.key for b in branches} == {TAIL_KEY}, curve.id


def _pivot_with(far_side: str) -> CompactCurve:
    """An elliptic pivot E between a general leaf A and a two-noded component B of the
    given kind whose far node holds a general leaf or an elliptic tail: "kind-leaf|tail"."""
    kind, beyond = far_side.split("-")
    comps = [Component("E", 1, "elliptic", ("p", "q")), Component("A", 2, "general", ("x",)),
             Component("B", 2, kind, ("x", "y"),
                       facts=FactSheet() if kind == "factsheet" else None)]
    nodes = [Node((("E", "p"), ("A", "x"))), Node((("E", "q"), ("B", "x")))]
    if beyond == "leaf":
        comps.append(Component("C", 2, "general", ("y",)))
        nodes.append(Node((("B", "y"), ("C", "y"))))
    else:  # a tail
        comps.append(Component("T", 1, "elliptic", ("y",)))
        nodes.append(Node((("B", "y"), ("T", "y"))))
    return CompactCurve(far_side, sum(c.genus for c in comps), tuple(comps), tuple(nodes))


def _three_noded_elliptic() -> CompactCurve:
    """An elliptic curve X with three nodes, each to an elliptic tail; X is the pivot."""
    comps = [Component("X", 1, "elliptic", ("a", "b", "c"))]
    nodes = []
    for p in "abc":
        comps.append(Component(f"T{p}", 1, "elliptic", (p,)))
        nodes.append(Node((("X", p), (f"T{p}", p))))
    return CompactCurve("three-noded", 4, tuple(comps), tuple(nodes))


def _three_noded_off_the_pivot() -> CompactCurve:
    """A general hub H with three elliptic tails and a general M, the pivot's fourth arm,
    that holds two elliptic tails of its own: M has three nodes but is not the pivot."""
    comps = [Component("H", 2, "general", ("a", "b", "c", "m")),
             Component("M", 2, "general", ("m", "x", "y"))]
    nodes = [Node((("H", "m"), ("M", "m")))]
    for comp, p in (("H", "a"), ("H", "b"), ("H", "c"), ("M", "x"), ("M", "y")):
        comps.append(Component(f"T{p}", 1, "elliptic", (p,)))
        nodes.append(Node(((comp, p), (f"T{p}", p))))
    return CompactCurve("three-noded-arm", 9, tuple(comps), tuple(nodes))


@pytest.mark.parametrize("curve,message", [
    (_star_with_arm("general-leaf"), "star around H requires one-noded elliptic tails, got C"),
    (_star_with_arm("link"), "star around H requires one-noded elliptic tails, got L"),
    (_pivot_with("general-leaf"),
     "two-noded general component B must be a general bridge to a one-noded elliptic tail"),
    (_pivot_with("factsheet-tail"),
     "two-noded factsheet component B must be a general bridge to a one-noded elliptic tail"),
    (_three_noded_elliptic(), "elliptic component X has more than two nodes"),
    (CompactCurve("one", 3, (Component("C", 3, "general", ("p",)),), ()),
     "need at least two components joined at a node"),
    (_three_noded_off_the_pivot(), "component M off the pivot has more than two nodes"),
])
def test_refused_shapes(curve, message):
    # the shapes outside the fold: a hub arm that is not a one-noded elliptic tail, a
    # two-noded component that is not a general bridge to a tail, three nodes on an
    # elliptic curve or on a component off the pivot, and a curve without nodes
    with pytest.raises(UnsupportedCurveError) as err:
        refute(curve, SeriesType(curve.genus, 1, 3))
    assert str(err.value) == message


def test_elliptic_tail_next_to_an_elliptic_pivot():
    # E between a general leaf A and a one-noded elliptic tail T: a pair whose b the tail
    # fails is credited to the tail's single-pole rule, and the brute force agrees
    curve = CompactCurve(
        "tail-pair", 4,
        (Component("E", 1, "elliptic", ("p", "q")), Component("A", 2, "general", ("x",)),
         Component("T", 1, "elliptic", ("y",))),
        (Node((("E", "p"), ("A", "x"))), Node((("E", "q"), ("T", "y")))),
    )
    for r, d in ((1, 3), (1, 4), (2, 6), (2, 5)):
        t = SeriesType(4, r, d)
        report = refute(curve, t)
        hits = dict(report.rule_hits)
        assert hits.get("elliptic-single-pole@T", 0) > 0, (r, d)
        assert (report.verdict == "refuted") == (rho(t) < 0), (r, d)
        expected = brute_force_pairs(curve, r, d)
        assert (report.rule_hits, report.survivor_count, report.survivors) == \
            (expected["rule_hits"], expected["survivor_count"], expected["survivors"]), (r, d)


def test_tail_floor_is_the_complement_of_the_largest_tail_sequence():
    # the hub's floor is read from the tail's table; it must be the cusp that the pointwise
    # largest sequence passing the single-pole rule forces, found here by a scan
    checked = 0
    for r in range(8):
        for d in range(r, 30):
            if comb(d + 1, r + 1) > 500:
                break
            lat = _lattice(r, d)
            passing = [s for s in lat.seqs if s[-2:] != (d - 1, d) or r == 0]
            for prune in (True, False):
                floor = _branch_table(TAIL_KEY, r, d, prune).floor
                if not passing:
                    assert floor is None and 0 < r == d, (r, d)
                    continue
                top = tuple(max(s[i] for s in passing) for i in range(r + 1))
                assert floor == min_complement(top, d), (r, d, prune)
                if r:
                    assert floor == (0,) + tuple(range(2, r + 2)), (r, d)  # a cusp
            checked += 1
    assert checked == 104


def test_elliptic_single_slot_pivot():
    # two components, one node: enumeration on the elliptic side
    curve = CompactCurve(
        id="one-tail",
        genus=12,
        components=(
            Component("C", 11, "general", ("p",)),
            Component("E", 1, "elliptic", ("p",)),
        ),
        nodes=(Node((("C", "p"), ("E", "p"))),),
    )
    report = refute(curve, SeriesType(12, 1, 7))
    # a degree-7 pencil survives: (5,7) on the tail against a general pencil
    assert report.verdict == "survivors"
    assert report.candidates_examined == 28  # C(8, 2) sequences on the elliptic slot
    naive = refute(curve, SeriesType(12, 1, 7), prune=False)
    assert naive.survivors == report.survivors
    report4 = refute(curve, SeriesType(12, 1, 4))
    assert report4.verdict == "refuted"  # the genus-11 side admits no degree-4 pencil


def _shape(kind: str, genus: int, torsion: int | None) -> CompactCurve:
    """A small curve of each shape the engine supports, named by kind.

    pair-X-Y: an elliptic pivot E between X and Y, each a general leaf (g),
    a fact-sheet leaf (f) or a general bridge ending in an elliptic tail (b);
    single-X: E on one leaf; star-X-n: n elliptic tails on a hub.
    """
    facts = FactSheet((SeriesDimFact(1, 2, 0), SeriesDimFact(0, 1, 0)))

    def leaf(name: str, code: str, points: tuple[str, ...]) -> Component:
        if code == "f":
            return Component(name, genus, "factsheet", points, facts=facts)
        return Component(name, genus, "general", points)

    shape, *rest = kind.split("-")
    comps, nodes = [], []
    if shape == "star":
        code, tails = rest[0], int(rest[1])
        points = tuple(f"p{i}" for i in range(tails))
        comps.append(leaf("H", code, points))
        for p in points:
            comps.append(Component(f"T{p}", 1, "elliptic", (p,)))
            nodes.append(Node((("H", p), (f"T{p}", p))))
    else:
        pivot_points = ("p", "q")[:len(rest)]
        tor = (TorsionPair(("p", "q"), torsion),) if torsion and len(rest) == 2 else ()
        comps.append(Component("E", 1, "elliptic", pivot_points, torsion=tor))
        for point, code, name in zip(pivot_points, rest, ("A", "B")):
            if code == "b":
                comps.append(Component(name, genus, "general", ("x", "y")))
                comps.append(Component(f"{name}T", 1, "elliptic", ("y",)))
                nodes.append(Node(((name, "y"), (f"{name}T", "y"))))
            else:
                comps.append(leaf(name, code, ("x",)))
            nodes.append(Node((("E", point), (name, "x"))))
    return CompactCurve(kind, sum(c.genus for c in comps), tuple(comps), tuple(nodes))


SHAPES = ("pair-g-g", "pair-g-b", "pair-b-b", "pair-f-g", "pair-f-b", "single-g", "single-f",
          "star-g-1", "star-g-3", "star-f-2")


@pytest.mark.parametrize("kind", SHAPES)
def test_low_degree_series_on_every_shape(kind):
    # d in {r, r+1}: the tails' largest admissible sequence is (0,) at r = d = 0
    # and does not exist at r = d > 0
    for genus in (0, 1, 2):
        for torsion in (None, 2):
            curve = _shape(kind, genus, torsion)
            has_facts = any(c.kind == "factsheet" for c in curve.components)
            for r in range(3):
                for d in (r, r + 1):
                    t = SeriesType(curve.genus, r, d)
                    pruned = refute(curve, t, survivor_cap=10)
                    naive = refute(curve, t, prune=False, survivor_cap=10)
                    case = (kind, genus, torsion, r, d)
                    assert pruned.to_json() | {"pruned": None} == \
                        naive.to_json() | {"pruned": None}, case
                    assert sum(v for _, v in pruned.rule_hits) + pruned.survivor_count == \
                        pruned.candidates_examined, case
                    if not has_facts and rho(t) >= 0:
                        assert pruned.verdict == "survivors", case
                    for survivor in pruned.survivors:
                        check = verify_witness(curve, t, survivor.assignment_dict())
                        assert check.verdict != "rejected", (case, survivor)


ONE_NODE = CompactCurve("one-node", 3, (Component("C", 2, "general", ("x",)),
                                       Component("E", 1, "elliptic", ("p",))),
                        (Node((("C", "x"), ("E", "p"))),))
LAYOUT_CASES = [  # (curve, r, d): a star, a two-noded and a one-noded elliptic pivot
    ("septic_star", 3, 20), ("septic_star", 1, 12), ("chain_9torsion", 2, 17),
    ("chain_9torsion", 3, 20), ("chain_12torsion", 1, 12), ("one_node", 1, 3), ("one_node", 2, 3),
]


@pytest.mark.parametrize("name,r,d", LAYOUT_CASES)
def test_survivor_layout_is_built_only_to_list_a_survivor(monkeypatch, name, r, d):
    # refute lays out its survivor slots at the first survivor it lists: never with
    # survivor_cap=0 or on a refuted verdict, once per call otherwise
    built = []
    layout = limit_checker._layout
    monkeypatch.setattr(limit_checker, "_layout", lambda *args: built.append(args[1]) or layout(*args))
    curve = ONE_NODE if name == "one_node" else load_fixture(name).curve
    for prune in (True, False):
        for cap in (0, 1, 100):
            built.clear()
            report = refute(curve, SeriesType(curve.genus, r, d), prune=prune, survivor_cap=cap)
            assert len(built) == (report.verdict == "survivors" and cap > 0), (prune, cap)
            assert len(report.survivors) == min(cap, report.survivor_count)
