"""Feasibility engine for limit linear series on compact-type curves.

refute() decides whether a curve can carry a limit g^r_d by exhausting the
vanishing sequences at the nodes and applying only necessary local rules:
node compatibility (crude matchings included, so sums >= d), the elliptic
pairwise bound with its torsion-divisibility consequence, the elliptic
single-pole rule, the exact clamp criteria on general pointed components,
and the counting rule on fact-sheet components.  A verdict of "refuted"
therefore certifies nonexistence; surviving candidates are reported as
found, never confirmed (smoothability is not verified here).

The dual tree is rooted at a pivot, the component with the most nodes
(elliptic first).  Behind each pivot node hangs a branch, a flat chain:
elliptic links, then an end that is a general or fact-sheet leaf, a
one-noded elliptic tail, or a general bridge ending in a tail.
_branch_table folds a branch into a table of admit bits over the sequences a
across its node in one loop: the end's table, then one link step per link
from the far end inward, so the cost is linear in the chain's length.
Every rule asks for vanishing at least, so the sequences that a branch's
own component admits at that node form a down-set; the table reads them at
the least sequence compatible with a, min_complement(a), and a link's own
table at s is the pair scan's count of the b <= caps(s) that pass the
single-pole rule, the table beyond and the torsion rule with s.
A fact-sheet leaf admits what its counting rule does not fail: it abstains,
and a survivor is flagged unconfirmed when its branch ends in a fact sheet.

The pivot enumerates: a two-noded elliptic pivot accounts for all pairs
(a, b) at its nodes, counting whole boxes of them, torsion failures
included, from down-set sums and walking a box, by rank, only to list
survivors; a one-noded one scans its sequences; a star's hub is checked
once, on the one floor of its tails' shared table, through the same oracle
as verify_witness.  Survivors list one witness per branch.  Refused shapes: a
hub arm that is not a one-noded elliptic tail, a two-noded component off the
pivot that is not a general bridge to a tail or an elliptic link, and an
elliptic component with three nodes.  Setting prune=False asks whether any
compatible sequence passes instead of the least one (down-set sums over the
whole lattice), the reference mode the pruning is validated against.

Each (r, d) lattice is built from its blocks (the sequences from s_0 = v are
v before a suffix of the shorter ones) with no index of its sequences: a
position is a closed-form rank, and the down-set sizes are one _down_sums
sweep.  Its tables and each branch table (keyed by the end's kind, genus and
fact sheet, the links' torsion orders, r, d and prune mode) are immutable
tuples and bytes kept between refutations in one LRU cache, bounded by the
per-sequence entries its tables hold in all (MAX_CACHED_SEQUENCES).

Reports are deterministic: candidates are ordered lexicographically and
repeated runs produce identical output.  A series with more than
MAX_SEQUENCES vanishing sequences per point is refused.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, OrderedDict, defaultdict
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, islice, repeat
from math import comb
from operator import add, and_, itemgetter, mul, not_, sub
from sys import intern
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .curves import (KIND_ELLIPTIC, KIND_FACTSHEET, KIND_GENERAL, RULE_ELLIPTIC_LINK,
                     RULE_ELLIPTIC_PAIR_BOUND, RULE_ELLIPTIC_SINGLE_POLE, RULE_ELLIPTIC_TORSION,
                     RULE_FACTSHEET_COUNT, RULE_GENERAL_CUSP, RULE_GENERAL_POINTED, CheckResult,
                     CompactCurve, Component, _torsion_fails, elliptic_single_point_check,
                     elliptic_two_point_check, factsheet_check, general_pointed_check)
from .numerology import SeriesType, VanishingSeq, rho, vanishing_to_ramification

SMOOTHABILITY_NOTE = "smoothability not verified"
# the notes of every refutation report, then the one of a report with survivors
_NOTES = ("crude node matchings included (sums >= d)", "eliminations use necessary rules only",
          f"survivors satisfy the necessary rules; {SMOOTHABILITY_NOTE}")

# Largest number C(d+1, r+1) of vanishing sequences per point that a scan
# materialises.  The g23 audit needs 5,985; a g^5_24 would need 177,100.  The same
# count is G(r+1, d+1)'s number of Schubert classes, and `schubert --cusp-power` above 0
# refuses a larger ring (`schubert 1 446 --cusp-power 890`, at 99,681, takes about 1 s).
MAX_SEQUENCES = 100_000
# Largest number of entries, one per sequence, that the lattices and branch
# tables kept between refutations hold in all: four lattices at MAX_SEQUENCES,
# or the 256,000 entries of the 880 or so tables that 900 seeded curves of every
# supported shape visit (perfbench refute-sweep).
MAX_CACHED_SEQUENCES = 4 * MAX_SEQUENCES
# Most entries (sequences, node and component audits) that verify_witness keeps
# for its last curve after a call: twice the 504 that the largest of those 900
# curves needs for its 100 listed survivors.  A call that leaves more drops it.
MAX_VERIFY_MEMO = 1024


class UnsupportedCurveError(ValueError):
    """The curve's dual tree has a shape that the branch fold does not cover."""


def series_name(r: int, d: int) -> str:
    return f"g^{r}_{d}"


def node_compatible(a_y: VanishingSeq, a_z: VanishingSeq, d: int) -> str:
    """Classify a node matching: "incompatible", "crude" or "refined".

    The two aspects match at a node when a_i + b_{r-i} >= d for all i;
    refined means equality everywhere.
    """
    if a_y.d != d or a_z.d != d or a_y.r != a_z.r:
        raise ValueError("sequence bounds do not match the node degree")
    return _node_class(tuple(map(add, a_y.entries, reversed(a_z.entries))), d)


def _node_class(sums: tuple[int, ...], d: int) -> str:
    if min(sums) < d:
        return "incompatible"
    return "refined" if max(sums) == d else "crude"


def min_complement(a: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Pointwise smallest vanishing sequence compatible with a across a node."""
    r = len(a) - 1
    return tuple(max(d - a[r - i], i) for i in range(r + 1))


class AdditivityAudit(NamedTuple):
    """Both sides of the additivity inequality for the adjusted rho."""

    lhs: int  # rho(g, r, d) of the whole curve
    rhs: int  # sum of the per-aspect adjusted rho
    satisfied: bool
    equality: bool


def additivity_audit(t: SeriesType, aspect_rhos: Sequence[int]) -> AdditivityAudit:
    """Compare rho(g, r, d) with the sum of per-component adjusted rho."""
    lhs = rho(t)
    rhs = sum(aspect_rhos)
    return AdditivityAudit(lhs, rhs, lhs >= rhs, lhs == rhs)


class Survivor(NamedTuple):
    """A candidate aspect assignment that no necessary rule eliminated.

    assignment holds every node end: the components by id, each with its node
    points by name and the vanishing sequence there.  unconfirmed names, in
    order, the fact-sheet components that abstained rather than passed.
    """

    assignment: tuple[tuple[str, tuple[tuple[str, tuple[int, ...]], ...]], ...]
    unconfirmed: tuple[str, ...] = ()

    def assignment_dict(self) -> dict[str, dict[str, tuple[int, ...]]]:
        return {comp: dict(pts) for comp, pts in self.assignment}

    def to_json(self) -> dict:
        out: dict = {"aspects": {c: {p: list(s) for p, s in pts} for c, pts in self.assignment}}
        if self.unconfirmed:
            out["unconfirmed_components"] = list(self.unconfirmed)
        return out


class RefutationReport(NamedTuple):
    curve: str
    series: tuple[int, int]
    verdict: str  # "refuted" | "survivors"
    candidates_examined: int
    rule_hits: tuple[tuple[str, int], ...]
    survivor_count: int
    survivors: tuple[Survivor, ...]
    truncated: bool
    pruned: bool
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {"curve": self.curve, "series": {"r": self.series[0], "d": self.series[1]},
                "verdict": self.verdict, "candidates_examined": self.candidates_examined,
                "rule_hits": dict(self.rule_hits), "survivor_count": self.survivor_count,
                "survivors": [s.to_json() for s in self.survivors], "survivors_truncated": self.truncated,
                "pruned": self.pruned, "notes": list(self.notes)}

    def render(self) -> str:
        r, d = self.series
        lines = [
            f"refutation report: curve {self.curve}, series {series_name(r, d)}",
            f"verdict: {self.verdict}",
            f"candidates examined: {self.candidates_examined}",
            "rule hits:",
        ]
        lines += [f"  {k}: {v}" for k, v in self.rule_hits] or ["  (none)"]
        lines.append(f"survivors: {self.survivor_count}"
                     + (" (listing truncated)" if self.truncated else ""))
        for s in self.survivors:
            flag = f"  [unconfirmed: {', '.join(s.unconfirmed)}]" if s.unconfirmed else ""
            lines.append("  - " + " ".join(f"{comp}.{pt}={tuple(seq)}" for comp, pts in s.assignment
                                           for pt, seq in pts) + flag)
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


class NodeAudit(NamedTuple):
    node: str
    sums: tuple[int, ...]
    classification: str


class ComponentAudit(NamedTuple):
    component: str
    status: str
    exact: bool
    witness_grade: bool
    rule: str
    detail: str


class WitnessReport(NamedTuple):
    curve: str
    series: tuple[int, int]
    verdict: str  # "confirmed" | "consistent" | "rejected"
    nodes: tuple[NodeAudit, ...]
    components: tuple[ComponentAudit, ...]
    aspect_rhos: tuple[tuple[str, int], ...]
    node_excess: tuple[tuple[str, int], ...]
    additivity: AdditivityAudit
    refined: bool
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {"curve": self.curve, "series": {"r": self.series[0], "d": self.series[1]},
                "verdict": self.verdict, "nodes": [n._asdict() | {"sums": list(n.sums)} for n in self.nodes],
                "components": [c._asdict() for c in self.components], "aspect_rhos": dict(self.aspect_rhos),
                "node_excess": dict(self.node_excess), "additivity": self.additivity._asdict(),
                "refined": self.refined, "notes": list(self.notes)}

    def render(self) -> str:
        r, d = self.series
        lines = [f"witness report: curve {self.curve}, series {series_name(r, d)}", "nodes:"]
        lines += [f"  {n.node}: sums {n.sums} -> {n.classification}" for n in self.nodes]
        lines.append("components:")
        for c in self.components:
            grade = ", ".join(name for name, on in (("exact", c.exact),
                                                    ("witness-grade", c.witness_grade)) if on)
            extra = f" ({grade})" if grade else ""
            det = f" -- {c.detail}" if c.detail else ""
            lines.append(f"  {c.component}: {c.status}{extra} via {c.rule}{det}")
        lines.append("aspect rho:")
        lines += [f"  {comp}: {val}" for comp, val in self.aspect_rhos]
        a = self.additivity
        rel = "=" if a.equality else (">" if a.lhs > a.rhs else "<")
        lines.append(
            f"additivity: rho = {a.lhs} {rel} {a.rhs} = sum of aspect rho"
            + (" (equality, refined)" if a.equality else "")
        )
        lines.append(f"verdict: {self.verdict}")
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# topology analysis


class _Branch(NamedTuple):
    """The part of the curve behind one node of the pivot, as a flat tuple.

    parts holds (component, its point towards the pivot, its far node point or
    None): first the elliptic links, from the pivot outward, then the end.
    kind is the end's: "general" or "factsheet" (a one-noded leaf), "tail" (a
    one-noded elliptic curve) or "bridge" (a two-noded general curve, followed
    in parts by the tail at its far node).
    """

    kind: str
    parts: tuple[tuple[Component, str, str | None], ...]

    @property
    def links(self) -> tuple[tuple[Component, str, str | None], ...]:
        return self.parts[:len(self.parts) - 1 - (self.kind == "bridge")]

    @property
    def key(self) -> tuple:
        """What the branch's table depends on besides (r, d): the end's kind, genus and fact
        sheet, and the links' torsion orders from the pivot outward; no ids or points."""
        links = self.links
        end = self.parts[len(links)][0]
        return (self.kind, end.genus, end.facts,
                tuple(comp.torsion_between(point, far) for comp, point, far in links))

    @property
    def rule(self) -> str:
        """The rule key credited with a candidate that no aspect of the branch matches."""
        return f"{_BRANCH_RULES['link' if self.links else self.kind]}@{self.parts[0][0].id}"


_BRANCH_RULES = {KIND_GENERAL: RULE_GENERAL_POINTED, KIND_FACTSHEET: RULE_FACTSHEET_COUNT,
                 "tail": RULE_ELLIPTIC_SINGLE_POLE, "bridge": RULE_GENERAL_CUSP,
                 "link": RULE_ELLIPTIC_LINK}
_KIND_PRIORITY = {KIND_ELLIPTIC: 0, KIND_FACTSHEET: 1, KIND_GENERAL: 2}


def _node_map(curve: CompactCurve) -> tuple[dict[str, list[str]], dict[tuple[str, str], tuple[str, str]]]:
    """Each component's node points in marked-point order, and the end across each node end."""
    across = {end: other for node in curve.nodes for end, other in (node.ends, node.ends[::-1])}
    return {c.id: [p for p in c.points if (c.id, p) in across] for c in curve.components}, across


def _analyze(curve: CompactCurve) -> tuple[Component, tuple[_Branch, ...], list[str]]:
    """The pivot, the branch behind each of its nodes and its node points, in marked-point order."""
    if len(curve.components) < 2:
        raise UnsupportedCurveError("need at least two components joined at a node")
    node_points, across = _node_map(curve)
    by_id = {c.id: c for c in curve.components}
    # max keeps the first of equal keys, so ties go to the earliest component
    pivot = max(curve.components, key=lambda c: (len(node_points[c.id]), -_KIND_PRIORITY[c.kind]))

    def branch(comp_id: str, point: str) -> _Branch:
        parts = []
        while True:  # outward, to the first one-noded component
            far = [p for p in node_points[comp_id] if p != point]
            if len(far) > 1:
                raise UnsupportedCurveError(f"component {comp_id} off the pivot has more than two nodes")
            parts.append((by_id[comp_id], point, far[0] if far else None))
            if not far:
                break
            comp_id, point = across[comp_id, far[0]]
        *middle, (end, _, _) = parts
        kind = "tail" if end.kind == KIND_ELLIPTIC else end.kind
        if middle and middle[-1][0].kind == KIND_GENERAL and kind == "tail":
            kind, middle = "bridge", middle[:-1]
        for comp, _, _ in reversed(middle):  # the links; the farthest other curve is reported
            if comp.kind != KIND_ELLIPTIC:
                raise UnsupportedCurveError(
                    f"two-noded {comp.kind} component {comp.id} must be a general bridge"
                    " to a one-noded elliptic tail")
        return _Branch(kind, tuple(parts))

    branches = tuple(branch(*across[pivot.id, p]) for p in node_points[pivot.id])
    if pivot.kind == KIND_ELLIPTIC and len(branches) > 2:
        raise UnsupportedCurveError(f"elliptic component {pivot.id} has more than two nodes")
    for b in branches:
        if pivot.kind != KIND_ELLIPTIC and (b.kind != "tail" or b.links):
            raise UnsupportedCurveError(
                f"star around {pivot.id} requires one-noded elliptic tails, got {b.parts[0][0].id}")
    return pivot, branches, node_points[pivot.id]


# ---------------------------------------------------------------------------
# shared sequence helpers (hot paths work on bare tuples)


class _TableCache:
    """LRU store of the tables that refutations share, least recently used first.

    Each table is a tuple whose first field has one entry per sequence; a
    far branch table also holds good_in, and a branch table with links the
    tables beyond them.  The store drops old tables while all these entries
    exceed MAX_CACHED_SEQUENCES.  It also keeps the curve, series and plan
    that verify_witness last used (_verify_plan).
    """

    def __init__(self) -> None:
        self.tables: OrderedDict = OrderedDict()
        self.clear()

    def clear(self) -> None:
        self.tables.clear()
        self.held = 0
        self.plan = (None, None, None)

    def __call__(self, build):
        def lookup(*args):
            if (table := self.tables.get(key := (build, args))) is not None:
                self.tables.move_to_end(key)
                return table
            table = self.tables[key] = build(*args)
            self.held += _entries(table)
            while self.held > MAX_CACHED_SEQUENCES:
                self.held -= _entries(self.tables.popitem(last=False)[1])
            return table

        lookup.__wrapped__ = build
        lookup.cache_clear = self.clear
        return lookup


def _entries(table: tuple) -> int:
    return (len(table[0]) + len(getattr(table, "good_in", ()))
            + sum(len(t.live) for t in getattr(table, "beyond", ())))


_tables = _TableCache()


class _LatticeTables(NamedTuple):
    """The vanishing sequences of a g^r_d at one point in lexicographic order, as tables by
    position that hold positions or counts; a position is found by arithmetic (_rank)."""

    caps: tuple[int, ...]  # the pairwise bound's caps (d - s[r], ..., d - s[0]) = min_complement(s)
    cols: tuple[tuple[int, ...], ...]  # cols[i][k] = seqs[k][i]
    steps: tuple[tuple[int, ...], ...]  # per axis j: largest sequence below s - e_j, or -1
    pole_ok: tuple[bool, ...]  # passes the elliptic single-pole rule
    box: tuple[int, ...]  # down-set sizes, #{b <= s}
    pole_in: tuple[int, ...]  # #{b <= s failing the single-pole rule}
    ranks: tuple[tuple[int, ...], ...]  # per axis j, by v: the sum of C(d - 1 - u, r - j) over u < v


class _Lattice(_LatticeTables):
    """The sequences as tuples are built on first read, when a witness is listed."""

    seqs = cached_property(lambda self: tuple(zip(*self.cols)))


def _rank(seq: Sequence[int], d: int) -> int:
    """The position of seq: C(d+1, r+1) - 1 less the colex rank of caps(seq)."""
    r = len(seq) - 1
    return comb(d + 1, r + 1) - 1 - sum(comb(d - v, r + 1 - i) for i, v in enumerate(seq))


def _reader(positions: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """Reads a sequence at positions in one C call (itemgetter needs two to return a tuple)."""
    return itemgetter(*positions) if len(positions) > 1 else lambda s: tuple(s[p] for p in positions)


def _column_sums(r: int, d: int, tables: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """sum_i tables[i][s_i] for every sequence s, in order: as in _lattice, block v of the
    suffixes from s_{r-k} on adds tables[r - k][v] to the last C(d - v, k) from s_{r-k+1} on."""
    sums = tuple(tables[r][r:])
    for k in range(1, r + 1):
        sums = tuple(chain.from_iterable(map(add, sums[len(sums) - comb(d - v, k):], repeat(tables[r - k][v]))
                                         for v in range(r - k, d - k + 1)))
    return sums


@_tables
def _lattice(r: int, d: int) -> _Lattice:
    n = comb(d + 1, r + 1)
    if n > MAX_SEQUENCES:
        raise ValueError(f"{series_name(r, d)} has C({d + 1}, {r + 1}) = {n} vanishing sequences"
                         f" per point, above the engine's limit of {MAX_SEQUENCES}")
    ids, vals = tuple(range(n)), tuple(range(d + 1))  # ids: one int object per position
    # The suffixes (s_{r-k}, ..., s_r) for k = 0, ..., r, each from the one before: block v,
    # s_{r-k} = v, is v before the last m = C(d - v, k) suffixes, those with s_{r-k+1} > v.
    cols, steps, size = (vals[r:],), ((-1, *ids[:d - r]),), d - r + 1
    for k in range(1, r + 1):
        blocks = [(v, comb(d - v, k)) for v in range(r - k, d - k + 1)]
        starts = [*accumulate((m for _, m in blocks), initial=0)]
        cols = (tuple(chain.from_iterable(repeat(vals[v], m) for v, m in blocks)),
                *(tuple(chain.from_iterable(col[size - m:] for _, m in blocks)) for col in cols))
        # axis 0 lowers v: the same suffix, at the end of the block before (none in the first);
        # axis j steps the suffix on its axis j - 1 within the block, but the first
        # C(d - v - j, k - j) suffixes, v + 1, ..., v + j, ..., clamp v into the block before.
        # A suffix at p before is at b - (size - m) + p in block v, read from ids shifted so.
        rows = [[(-1,) * blocks[0][1], *(ids[b - m:b] for b, (_, m) in zip(starts[1:], blocks[1:]))]]
        shifted = [ids[b - size + m:b + m] for b, (_, m) in zip(starts, blocks)]
        for j, row in enumerate(steps, 1):
            parts = []
            for i, (v, m) in enumerate(blocks):
                o, run = size - m, comb(d - v - j, k - j)
                parts += (_reader(row[o:o + run])(shifted[i - 1]) if i else (-1,) * run,
                          _reader(row[o + run:])(shifted[i]))
            rows.append(parts)
        steps, size = tuple(tuple(chain.from_iterable(parts)) for parts in rows), starts[-1]
    box = _down_sums(steps, repeat(1, n))
    # caps(s), the complement of s reversed, is n - 1 less the colex rank sum_j C(s_j, j + 1)
    caps = _reader(_column_sums(r, d, [[comb(v, j + 1) for v in vals] for j in range(r + 1)]))(ids[::-1])
    # the rule fails when the orders d - 1 and d both occur, that is when s_{r-1} = d - 1
    fails = _reader(cols[-2])((0,) * (d - 1) + (1, 0)) if r else (0,) * n
    # so b <= s fails it iff b_{r-1} = d - 1 = s_{r-1}; the b <= s with b_{r-1} <= d - 2 are
    # the down-set of steps[r - 1][s] (index -1, none, reads the 0 past the end)
    pole_in = tuple(map(mul, fails, map(sub, box, _reader(steps[r - 1])((*box, 0)))))
    ranks = tuple(tuple(accumulate((comb(d - 1 - u, r - j) for u in range(d)), initial=0))
                  for j in range(r + 1))
    return _Lattice(caps, cols, steps, tuple(map(not_, fails)), box, pole_in, ranks)


class _BranchTable(NamedTuple):
    """A branch's admit bits (1: not failed) by the sequence across its node.

    What it admits passes, or abstains if the branch ends in a fact sheet.  A
    table read as the far node of a two-noded elliptic curve also holds the
    down-set counts of the good b, those that pass the single-pole rule and
    that the branch admits; a tail's table keeps its floor, the pointwise
    least sequence it admits (None if none); a branch with links keeps the
    table beyond each link, from the pivot out.
    """

    live: bytes
    good_in: tuple[int, ...] = ()
    floor: tuple[int, ...] | None = None
    beyond: tuple["_BranchTable", ...] = ()


@_tables
def _branch_table(key: tuple, r: int, d: int, prune: bool, far: bool = False) -> _BranchTable:
    """Admit bits of the branch named by key (see _Branch.key); far adds good_in.

    The end's own table, by the sequence s at its node, is the clamp
    criterion on a general leaf (a bridge adds the cusp its tail forces) and
    the single-pole rule on a tail.  Then _link_table puts the links in front
    of it one at a time, from the far end inward, each from the table before
    it, and the whole branch's table keeps those before it for the witnesses.
    Every rule asks for vanishing at least, so each own table passes a
    down-set, and pruned mode reads it at the least s compatible with a,
    caps(a).  Naive mode asks whether any compatible s passes instead: caps
    is an order-reversing involution, so the passing s >= caps(a) are counted
    by the down-set sum at a of the weights own(caps(x)).  The counting rule
    of a fact-sheet leaf is read at caps(a) in both modes.
    """
    lat = _lattice(r, d)
    kind, genus, facts, links = key
    if far:
        table = _branch_table(key, r, d, prune)
        return table._replace(good_in=_good_in(table.live, lat))
    if links:
        tables = [_branch_table((kind, genus, facts, ()), r, d, prune)]
        for torsion in reversed(links):
            tables.append(_link_table(tables[-1], torsion, lat, prune))
        return tables.pop()._replace(beyond=tuple(reversed(tables)))
    if kind == KIND_FACTSHEET:
        t = SeriesType(genus, r, d)
        return _BranchTable(bytes(
            not factsheet_check(facts, t, [vanishing_to_ramification(VanishingSeq(lat.seqs[c], d))]).failed
            for c in lat.caps))
    if kind != "tail":
        own = _clamp_columns(genus + 1 if kind == "bridge" else genus, d, r)
        return _status_table(own, lat, prune)
    table = _status_table(lat.pole_ok, lat, prune)
    return table._replace(floor=tuple(map(min, (compress(col, table.live) for col in lat.cols)))
                          if any(table.live) else None)


def _link_table(beyond: _BranchTable, torsion: int | None, lat: _Lattice,
                prune: bool) -> _BranchTable:
    """The table of an elliptic link, torsion apart at its nodes, in front of a branch.

    The link's own table at s is the pair scan's count of the good b <=
    caps(s) that the torsion rule leaves, read from the branch's table.
    """
    good_in = _good_in(beyond.live, lat)
    own = [ok and good_in[c] > _torsion_hits(i, c, lat, good_in, torsion)
           for i, (c, ok) in enumerate(zip(lat.caps, lat.pole_ok))]
    return _status_table(own, lat, prune)


def _status_table(own: Sequence[bool], lat: _Lattice, prune: bool) -> _BranchTable:
    """The admit bits of a branch whose own table is own, read at caps(a) or, naive, above it."""
    ok = _reader(lat.caps)(own)
    if not prune:
        ok = map(bool, _down_sums(lat.steps, ok))
    return _BranchTable(bytes(ok))


def _good_in(live: bytes, lat: _Lattice) -> tuple[int, ...]:
    """Down-set counts of the b that pass the single-pole rule and that live admits."""
    return _down_sums(lat.steps, map(and_, lat.pole_ok, live))


def _clamp_columns(genus: int, d: int, r: int) -> tuple[bool, ...]:
    """The clamp criterion of numerology.pointed_exists on every sequence c of a lattice:
    the terms max(c_i - i + genus - d + r, 0), summed by _column_sums, are at most genus.
    A bridge's forced cusp is one more genus, so it passes genus + 1."""
    shift = genus - d + r
    terms = [[max(v - i + shift, 0) for v in range(d + 1)] for i in range(r + 1)]
    return tuple(map(genus.__ge__, _column_sums(r, d, terms)))


# ---------------------------------------------------------------------------
# refutation engine


def refute(curve: CompactCurve, t: SeriesType, *, prune: bool = True,
           survivor_cap: int = 100) -> RefutationReport:
    """Exhaust aspect candidates for a limit g^r_d and apply the necessary rules.

    Returns verdict "refuted" only if every candidate was eliminated by a
    rule application; rule_hits records, per rule, how many candidates that
    rule eliminated first (rules are applied in a fixed order).  Unknown
    oracle answers never eliminate: such candidates survive flagged as
    unconfirmed.  The first survivor_cap survivors are listed, in candidate
    order, as positions in the lattice, one slot per node end laid out at the
    first survivor listed (_layout); a branch's witness is filled in once per
    aspect across its node, from the tables of its fold.  A listing builds each
    (point, sequence) pair, each component's aspects and each unconfirmed tuple
    once, shared by the survivors that repeat them.
    """
    if t.g != curve.genus:
        raise ValueError(f"series genus {t.g} does not match curve genus {curve.genus}")
    if survivor_cap < 0:
        raise ValueError(f"survivor cap must be nonnegative, got {survivor_cap}")
    pivot, branches, points = _analyze(curve)
    r, d = t.r, t.d
    lat = _lattice(r, d)
    caps, pole_ok = lat.caps, lat.pole_ok
    n = len(caps)
    tables = [_branch_table(branches[0].key, r, d, prune)] * len(branches)  # a star's tails share one
    layout: list = []  # slot, groups, at_pivot, filled and flags, once a survivor is listed
    walks: list = [None] * len(branches)

    def extend(i: int, ia: int) -> tuple[str, ...]:
        """Fill branch i's slots with its witness against ia at the pivot; a fact-sheet end's id."""
        if not layout:
            layout.extend(_layout(curve, pivot.id, points))
        slot, _, at_pivot, filled, _ = layout
        filled[at_pivot[i]] = ia
        if walks[i] is None:
            walks[i] = _walk(branches[i], tables[i], slot, lat, r, d, prune)
        steps, end_slot, flagged = walks[i]
        for near, far, beyond, torsion, floor in steps:  # a link's first partner, a bridge's floor
            filled[near] = ia = caps[ia]
            filled[far] = ia = next(_partners(ia, d, lat, beyond, torsion)) if floor is None else floor
        filled[end_slot] = caps[ia]
        return flagged

    def survivor(flagged: tuple[str, ...]) -> Survivor:
        _, groups, _, filled, flags = layout
        parts = []  # survivors repeat a component's aspects: each is built once per listing
        for comp_id, span, names, pairs, memo in groups:
            if (part := memo.get(key := tuple(filled[span]))) is None:  # its pairs, by point name
                part = memo[key] = comp_id, tuple(map(dict.setdefault, pairs, key,
                                                      zip(names, map(lat.seqs.__getitem__, key))))
            parts.append(part)
        if (unconfirmed := flags.get(flagged)) is None:
            unconfirmed = flags[flagged] = tuple(sorted(flagged))
        return Survivor(tuple(parts), unconfirmed)

    if pivot.kind != KIND_ELLIPTIC:
        # a star of lone tails (_analyze): the one candidate is their one floor at every hub node
        floor = tables[0].floor
        if floor is None:  # the tails admit no sequence at all
            return _finish(curve, t, 1, {branches[0].rule: 1}, [], 0, prune)
        result = _component_oracle(pivot, SeriesType(pivot.genus, r, d), points,
                                   [VanishingSeq(floor, d)] * len(points))
        notes = ["hub evaluated on the ramification floors forced by the tails"]
        if result.failed:
            return _finish(curve, t, 1, {f"{result.rule}@{pivot.id}": 1}, [], 0, prune, notes)
        listed = []
        if survivor_cap:
            flagged = (pivot.id,) if result.status == "unknown" else ()
            for i in range(len(branches)):
                flagged += extend(i, _rank(floor, d))
            listed.append(survivor(flagged))
        return _finish(curve, t, 1, {}, listed, 1, prune, notes + [
            "survivor lists the floor assignment; larger ramification may also survive"])

    # an elliptic pivot: a sequence a at its first node fails the single-pole rule or
    # the branch behind that node, or is open
    key_pole = f"{RULE_ELLIPTIC_SINGLE_POLE}@{pivot.id}"
    live_u = tables[0].live
    opened = list(compress(range(n), map(and_, pole_ok, live_u)))
    pole_fails = n - sum(pole_ok)
    if len(branches) == 1:
        hits = Counter({key_pole: pole_fails, branches[0].rule: n - pole_fails - len(opened)})
        survivors = [survivor(extend(0, i)) for i in opened[:survivor_cap]]
        return _finish(curve, t, n, +hits, survivors, len(opened), prune)

    # two nodes: count the pairs (a, b) box by box.  Over the open a, the rules on the
    # b in the box b <= caps(a) that the pairwise bound leaves are summed column-wise
    # from down-set counts; only an a with good b in its box has its torsion failures
    # counted and its survivors walked.
    branch_v = branches[1]
    torsion = pivot.torsion_between(*points)
    live_v, good_in, *_ = tables[1] = _branch_table(branch_v.key, r, d, prune, True)
    tops = _reader(opened)(caps)
    in_box, pole, goods = map(_reader(tops), (lat.box, lat.pole_in, good_in))
    in_box, pole, good = sum(in_box), sum(pole), sum(goods)
    hits = Counter({key_pole: n * pole_fails + pole,  # the keys name distinct components
                    branches[0].rule: n * (n - pole_fails - len(opened)),
                    f"{RULE_ELLIPTIC_PAIR_BOUND}@{pivot.id}": n * len(opened) - in_box,
                    branch_v.rule: in_box - pole - good})

    key_tor = f"{RULE_ELLIPTIC_TORSION}@{pivot.id}"
    survivors: list[Survivor] = []
    count = good
    for i, ic, g in compress(zip(opened, tops, goods), goods):
        tor = _torsion_hits(i, ic, lat, good_in, torsion)
        hits[key_tor] += tor
        count -= tor
        if g == tor or len(survivors) >= survivor_cap:
            continue
        flagged = extend(0, i)
        for ib in islice(_partners(i, d, lat, live_v, torsion), survivor_cap - len(survivors)):
            survivors.append(survivor(flagged + extend(1, ib)))
    return _finish(curve, t, n * n, +hits, survivors, count, prune)


def _layout(curve: CompactCurve, pivot_id: str, points: list[str]) -> tuple:
    """refute's survivor slots, one per node end in Survivor.assignment's order: the slot of
    each end; per component its id, its slots, its points, their (point, sequence) pairs as
    listed, by position, one dict per point name, and a dict of its aspects as listed, by
    positions; the pivot's slots; positions to fill; and the unconfirmed tuples, by flags."""
    ends = sorted(end for node in curve.nodes for end in node.ends)
    slot = {end: k for k, end in enumerate(ends)}
    pairs = defaultdict(dict)
    groups = [(comp_id, slice(slot[pts[0]], slot[pts[-1]] + 1), (names := tuple(map(itemgetter(1), pts))),
               tuple(map(pairs.__getitem__, names)), {})
              for comp_id, pts in ((c, [*g]) for c, g in groupby(ends, itemgetter(0)))]
    return slot, groups, [slot[pivot_id, p] for p in points], [0] * len(ends), {}


def _walk(branch: _Branch, table: _BranchTable, slot: Mapping[tuple[str, str], int], lat: _Lattice,
          r: int, d: int, prune: bool) -> tuple:
    """How refute fills a branch's slots from its table: per link or bridge, its near and
    far slots, the admit bits beyond it, its torsion and (a bridge) the position of its
    tail's floor; then the end's slot, and (its id,) if it is a fact sheet, else ()."""
    beyond = [*table.beyond]
    if branch.kind == "bridge":
        beyond.append(_branch_table(("tail", 1, None, ()), r, d, prune))
    steps = [(slot[comp.id, point], slot[comp.id, far], after.live,
              comp.torsion_between(point, far),
              _rank(after.floor, d) if comp.kind == KIND_GENERAL else None)
             for (comp, point, far), after in zip(branch.parts, beyond)]
    end, point, _ = branch.parts[-1]
    return steps, slot[end.id, point], (end.id,) if branch.kind == KIND_FACTSHEET else ()


def _finish(curve, t, candidates, hits, survivors, count, prune, extra_notes=()) -> RefutationReport:
    """The report, with its rule keys interned: the reports a caller keeps share them."""
    return RefutationReport(curve.id, (t.r, t.d), "survivors" if count else "refuted", candidates,
                            tuple(sorted(zip(map(intern, hits), hits.values()))), count, tuple(survivors),
                            count > len(survivors), prune, (*_NOTES[:2 + bool(count)], *extra_notes))


def _partners(ia: int, d: int, lat: _Lattice, live: Sequence[int],
              torsion: int | None) -> Iterator[int]:
    """Positions of the b <= c = caps(a), in order, that pass the single-pole rule,
    that live admits and, with a = seqs[ia], that pass the torsion rule.

    live admits an up-set (a branch's own table passes a down-set, read at
    the order-reversing caps(b)), so the b with a prefix (b_0, ..., b_j) are
    out if their largest, the prefix then c_{j+1}, ..., c_r, is; the b_j
    whose subtrees are admitted are a suffix of (b_{j-1}, c_j], found by
    bisection on ranks (raising b_j from v, with c after it, adds
    C(d - 1 - v, r - j); lat.ranks sums these).  In a run, b_r over
    (b_{r-1}, c_r], the single-pole rule is fixed and the admitted b are
    again a suffix.  Exact sums sit where b_j = c_j, so the torsion rule is
    asked only of a run with some b_j = c_j, for the run and for its last b,
    b_r = c_r.
    """
    a, c = lat.seqs[ia], lat.seqs[lat.caps[ia]]
    if not live[lat.caps[ia]]:
        return
    r = len(a) - 1
    pre = [0] * r  # the prefix
    tops = [*[0] * r, lat.caps[ia]]  # tops[j]: the largest b after b_0, ..., b_j as in pre; c at -1
    j = capped = 0  # capped: the j < r with pre[j] = c[j]
    while True:
        for i in range(j, r):  # each level from j on takes the first value whose subtree is admitted
            row = lat.ranks[i]
            base = tops[i - 1] - row[c[i]]  # c_i is admitted: its subtree is the one above
            lo = bisect_left(row, 1, pre[i - 1] + 1 if i else 0, c[i],
                             key=lambda x: live[base + x])
            pre[i], tops[i] = lo, base + row[lo]
            capped += lo == c[i]
        top = tops[r - 1]
        k = top - c[r] + (pre[-1] + 1 if r else 0)
        if capped:
            eq = [r - j for j, v in enumerate(pre) if v == c[j]]  # indices of a with exact sums
            if _torsion_fails(a, eq, torsion):  # then b_r = c_r fails as well
                top = k - 1
            elif _torsion_fails(a, [*eq, 0], torsion):
                top -= 1
        if lat.pole_ok[k] and k <= top:
            yield from range(bisect_left(live, 1, k, top + 1), top + 1)
        j = r - 1
        while j >= 0 and pre[j] == c[j]:
            j -= 1
        if j < 0:
            return
        tops[j] += comb(d - 1 - pre[j], r - j)
        pre[j] += 1
        capped += (pre[j] == c[j]) - (r - 1 - j)  # the coordinates after j were capped
        j += 1


def _torsion_hits(ia: int, ic: int, lat: _Lattice, good_in: tuple[int, ...],
                  torsion: int | None) -> int:
    """How many good b in the box b <= c = caps(a) the torsion rule eliminates, a = seqs[ia].

    With T(b) the axes j where b_j = c_j, the rule passes b iff T(b) lies in
    one class of axes with congruent a[r-j] (one axis per class without torsion).
    The good b with T(b) in K lie below c lowered on each axis outside K, in order
    (leaving the corner's walk, c lowered on every axis, at K's first axis); those
    below the corner, with T(b) empty, are in every class's count.
    """
    hits, i, classes, steps = good_in[ic], ic, 0, lat.steps
    res = (range(len(steps)) if torsion is None  # one class per axis
           else [col[ia] % torsion for col in reversed(lat.cols)])
    for j, row in enumerate(steps):  # i: c lowered on the axes before j
        if res.index(u := res[j]) == j:  # the class's first axis
            classes += 1
            w = i
            for k in range(j + 1, len(res)):
                if res[k] != u and (w := steps[k][w]) < 0:
                    break
            else:
                hits -= good_in[w]
        if (i := row[i]) < 0:  # no b below the corner, nor in a later class's walk
            return hits
    return hits + (classes - 1) * good_in[i]


def _down_sums(steps: Sequence[Sequence[int]], weights: Iterable) -> tuple[int, ...]:
    """The sums of the weights over the down-sets {b <= c} of increasing tuples.

    One lexicographic sweep per axis j adds the sum at the largest increasing
    tuple below c - e_j (c_j lowered by one, earlier coordinates clamped), or
    the 0 kept past the end of the table when there is none (index -1).
    """
    table = [*map(int, weights), 0]
    for axis in steps:
        for i, p in enumerate(axis):
            table[i] += table[p]
    return tuple(table[:-1])


# ---------------------------------------------------------------------------
# witness verification


def verify_witness(curve: CompactCurve, t: SeriesType,
                   assignment: Mapping[str, Mapping[str, Sequence[int]]]) -> WitnessReport:
    """Check an explicit aspect assignment against every local rule.

    Sequences are required vanishing orders: each component aspect must
    vanish at least that much, which is what the node matching consumes.
    Verdict "confirmed" needs every component oracle to be an exact pass and
    every node to match; passes by merely necessary rules (or unknowns on
    fact-sheet components) downgrade to "consistent".  Each sequence is
    checked once, as a VanishingSeq, and the oracles read it or the
    ramification derived from it.  A curve's survivors repeat aspects, so the
    plan keeps a memo of this function's own results: the sequences given as
    tuples of ints, and the node and component audits of a call whose
    sequences all are; a call that leaves more than MAX_VERIFY_MEMO entries
    drops the plan.  Every component is validated before any oracle runs.
    Nothing here reads refute's tables, so it checks refute's survivors independently.
    """
    if t.g != curve.genus:
        raise ValueError(f"series genus {t.g} does not match curve genus {curve.genus}")
    r, d = t.r, t.d
    last, last_t, plan = _tables.plan
    # the memo holds more than MAX_VERIFY_MEMO entries only after a call that raised
    if last is not curve or last_t != t or sum(map(len, plan[3])) > MAX_VERIFY_MEMO:
        plan = _verify_plan(curve, t)
    comps, nodes, node_points, memo = plan
    known, node_memo, comp_memo = memo
    seqs: dict[tuple[str, str], VanishingSeq] = {}
    for comp, need, names, _, _, _ in comps:
        given = assignment.get(comp.id, {})
        if type(given) is not dict:
            given = dict(given)
        odd = given.keys() != names  # then check the points one by one
        if odd and not all(map(given.__contains__, need)):
            raise ValueError(f"assignment incomplete: {comp.id} lacks {[p for p in need if p not in given]}")
        for pt, entries in given.items():
            if odd and pt not in need:
                if pt not in comp.points:
                    raise ValueError(f"assignment names unknown point {comp.id}.{pt}")
                raise ValueError(f"point {comp.id}.{pt} is not a node; only node points carry witness data")
            if (seq := known.get(id(entries))) is None:  # known holds its seq.entries, so ids are safe
                seq = VanishingSeq(entries, d)
                if len(seq.entries) != r + 1:
                    raise ValueError(f"sequence at {comp.id}.{pt} has length {len(seq.entries)}, need {r + 1}")
                if type(entries) is tuple and tuple(map(type, entries)) == (int,) * (r + 1):
                    known[id(entries)] = seq
                else:  # a list, or other entries than ints: no audit of this call is kept
                    node_memo, comp_memo = {}, {}
            seqs[comp.id, pt] = seq
    if unknown := [c for c in assignment if c not in node_points]:
        raise ValueError(f"assignment names unknown component {unknown[0]}")

    node_hits = []
    for end, other, name in nodes:
        key = name, seqs[end], seqs[other]
        if (hit := node_memo.get(key)) is None:
            sums = tuple(map(add, key[1].entries, reversed(key[2].entries)))
            cls = _node_class(sums, d)
            hit = node_memo[key] = (NodeAudit(name, sums, cls), cls,
                                    (name, sum(sums) - (r + 1) * d if cls != "incompatible" else 0))
        node_hits.append(hit)
    comp_hits = []
    for comp, pts, _, ends, t_comp, rho_comp in comps:
        key = comp.id, *map(seqs.__getitem__, ends)
        if (hit := comp_memo.get(key)) is None:
            status, rule, exact, grade, detail = _component_oracle(comp, t_comp, pts, key[1:])
            v = rho_comp - sum(map(sum, map(itemgetter(0), key[1:])))
            hit = comp_memo[key] = (ComponentAudit(comp.id, status, exact, grade, rule, detail), status,
                                    (comp.id, v), v, status != "pass" or not exact)
        comp_hits.append(hit)

    node_audits, node_classes, excess = zip(*node_hits) if node_hits else ((), (), ())
    comp_audits, statuses, aspect_rhos, rhos, asserts = zip(*comp_hits)
    classes = {*node_classes, *statuses}
    asserted = [*compress(map(itemgetter(0), aspect_rhos), asserts)]
    verdict = ("rejected" if "incompatible" in classes or "fail" in classes
               else "consistent" if asserted else "confirmed")
    notes = (("component existence asserted, not proven: " + ", ".join(sorted(asserted)),)
             if verdict == "consistent" else ()) + ((SMOOTHABILITY_NOTE,) if verdict != "rejected" else ())
    report = WitnessReport(curve.id, (r, d), verdict, node_audits, comp_audits, aspect_rhos, excess,
                           additivity_audit(t, rhos), {*node_classes} <= {"refined"}, notes)
    if sum(map(len, memo)) > MAX_VERIFY_MEMO:  # a large curve's audits are not kept
        _tables.plan = None, None, None
    return report


def _verify_plan(curve: CompactCurve, t: SeriesType) -> tuple:
    """What verify_witness reads of a curve: per component, its node points (a list, a set
    and as ends), the series on it and that series' rho plus r(r+1)/2 per point (a
    ramification weight is the vanishing sum less that); per node, its ends and its name;
    each component's node points by id; and an empty memo (sequences by id, node and
    component audits).  A curve's survivors are verified one after another, so
    verify_witness keeps the plan for the last curve (the same object) and series with the
    tables.
    """
    node_points, _ = _node_map(curve)
    on = [(c, node_points[c.id], SeriesType(c.genus, t.r, t.d)) for c in curve.components]
    comps = [(c, pts, {*pts}, [(c.id, p) for p in pts], t_c,
              rho(t_c) + t.r * (t.r + 1) // 2 * len(pts)) for c, pts, t_c in on]
    plan = comps, [(*node.ends, str(node)) for node in curve.nodes], node_points, ({}, {}, {})
    _tables.plan = curve, t, plan
    return plan


def _component_oracle(comp: Component, t: SeriesType, pts: list[str],
                      vans: Sequence[VanishingSeq]) -> CheckResult:
    """The rule of one component on its aspects; t is the series on that component."""
    if comp.kind != KIND_ELLIPTIC:
        rams = list(map(vanishing_to_ramification, vans))
        if comp.kind == KIND_GENERAL:
            return general_pointed_check(t, rams)
        return factsheet_check(comp.facts, t, rams)
    if not 0 < len(vans) < 3:
        raise UnsupportedCurveError(f"elliptic component {comp.id} has more than two nodes")
    for v in vans:  # the single-pole rule at each node point, then the pair's rules
        single = elliptic_single_point_check(t.d, v)
        if single.failed or len(vans) == 1:
            return single
    return elliptic_two_point_check(vans[0], vans[1], comp.torsion_between(*pts))
