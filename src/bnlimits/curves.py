"""Stable curves of compact type and the per-component feasibility oracles.

A curve is a tree of marked components: general pointed curves, elliptic
curves with optional torsion relations between marked points, and
fact-sheet curves carrying asserted dimensions of their series spaces.
Each kind has a local rule deciding (or refuting, or abstaining on) the
existence of a linear-series aspect with prescribed vanishing at the
marked points.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple, Sequence

from .numerology import (
    RamificationSeq,
    SeriesType,
    VanishingSeq,
    pointed_exists,
    two_point_exists,
    weight,
)

schubert = None  # the Schubert calculus module, imported by general_pointed_check for three or more points

KIND_GENERAL = "general"
KIND_ELLIPTIC = "elliptic"
KIND_FACTSHEET = "factsheet"
KINDS = (KIND_GENERAL, KIND_ELLIPTIC, KIND_FACTSHEET)

# Rule identifiers used in check results and refutation reports.
RULE_ELLIPTIC_PAIR_BOUND = "elliptic-pair-bound"
RULE_ELLIPTIC_TORSION = "elliptic-torsion-divisibility"
RULE_ELLIPTIC_SINGLE_POLE = "elliptic-single-pole"
# an elliptic link whose branch, beyond it from the pivot, matches none of its aspects
RULE_ELLIPTIC_LINK = "elliptic-link-branch"
RULE_GENERAL_POINTED = "general-pointed-clamp"
RULE_GENERAL_CUSP = "general-pointed-cusp-clamp"
RULE_SCHUBERT = "schubert-nonvanishing"
RULE_FACTSHEET_COUNT = "factsheet-ramification-count"


class SeriesDimFact(NamedTuple):
    """Asserted dimension of the space of g^r_d's on a fact-sheet curve."""

    r: int
    d: int
    dim: int


class FactSheet(NamedTuple):
    series_dims: tuple[SeriesDimFact, ...] = ()
    gonality: int | None = None
    points_general: bool = True

    def dim_for(self, r: int, d: int) -> int | None:
        for fact in self.series_dims:
            if (fact.r, fact.d) == (r, d):
                return fact.dim
        return None


class TorsionPair(NamedTuple("TorsionPair", [("points", tuple[str, str]), ("order", int)])):
    """The difference of two marked points is primitive torsion of this order."""

    __slots__ = ()

    def __new__(cls, points: tuple[str, str], order: int) -> "TorsionPair":
        p, q = points
        if p == q:
            raise ValueError("torsion pair needs two distinct points")
        if order < 2:
            raise ValueError(f"torsion order must be >= 2, got {order}")
        return tuple.__new__(cls, ((p, q) if p < q else (q, p), order))


class Component(NamedTuple("Component", [
    ("id", str), ("genus", int), ("kind", str), ("points", tuple[str, ...]),
    ("torsion", tuple[TorsionPair, ...]), ("facts", FactSheet | None),
])):
    __slots__ = ()

    def __new__(cls, id: str, genus: int, kind: str, points: tuple[str, ...],
                torsion: tuple[TorsionPair, ...] = (), facts: FactSheet | None = None) -> "Component":
        points, torsion = tuple(points), tuple(torsion)
        if kind not in KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        if len(points) > 1 and len(set(points)) != len(points):
            raise ValueError(f"duplicate marked points on {id}")
        if kind == KIND_ELLIPTIC and genus != 1:
            raise ValueError(f"elliptic component {id} must have genus 1")
        if torsion and kind != KIND_ELLIPTIC:
            raise ValueError(f"torsion data only allowed on elliptic components ({id})")
        if facts is not None and kind != KIND_FACTSHEET:
            raise ValueError(f"fact sheet only allowed on factsheet components ({id})")
        for pair in torsion:
            for p in pair.points:
                if p not in points:
                    raise ValueError(f"torsion point {p} is not marked on {id}")
        return tuple.__new__(cls, (id, genus, kind, points, torsion, facts))

    def torsion_between(self, p: str, q: str) -> int | None:
        key = tuple(sorted((p, q)))
        for pair in self.torsion:
            if pair.points == key:
                return pair.order
        return None


class Node(NamedTuple("Node", [
    ("ends", tuple[tuple[str, str], tuple[str, str]]),  # ((comp, point), (comp, point))
])):
    """Unordered pair of marked points, one on each of two components."""

    __slots__ = ()

    def __new__(cls, ends: tuple[tuple[str, str], tuple[str, str]]) -> "Node":
        a, b = map(tuple, ends)
        if a[0] == b[0]:
            raise ValueError(f"node joins component {a[0]} to itself")
        return tuple.__new__(cls, ((a, b) if a < b else (b, a),))

    def __str__(self) -> str:
        (c1, p1), (c2, p2) = self.ends
        return f"{c1}.{p1}~{c2}.{p2}"


class CompactCurve(NamedTuple("CompactCurve", [
    ("id", str), ("genus", int), ("components", tuple[Component, ...]), ("nodes", tuple[Node, ...]),
])):
    __slots__ = ()

    def __new__(cls, id: str, genus: int, components: tuple[Component, ...],
                nodes: tuple[Node, ...]) -> "CompactCurve":
        components, nodes = tuple(components), tuple(nodes)
        # each component's marked points as a set, so that checking a node end does not scan them
        marked = {c.id: {*c.points} for c in components}
        if len(marked) != len(components):
            raise ValueError("duplicate component ids")
        # one pass over the nodes: check the ends and join the components they meet,
        # union-find style; with one node fewer than components, a node that joins two
        # components already joined leaves the graph disconnected
        used, root, cycle = set(), {c: c for c in marked}, False
        for node in nodes:
            for end in node.ends:
                comp_id, point = end
                if comp_id not in marked:
                    raise ValueError(f"node references unknown component {comp_id}")
                if point not in marked[comp_id]:
                    raise ValueError(f"node references unknown point {comp_id}.{point}")
                if end in used:
                    raise ValueError(f"marked point {comp_id}.{point} appears in two nodes")
                used.add(end)
            (a, _), (b, _) = node.ends
            while root[a] != a:  # path halving
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            cycle |= a == b
            root[b] = a
        if len(nodes) != len(components) - 1:
            raise ValueError("dual graph is not a tree (wrong node count)")
        if cycle:
            raise ValueError("dual graph is not a tree (disconnected)")
        total = sum(c.genus for c in components)
        if total != genus:
            raise ValueError(f"component genera sum to {total}, declared genus is {genus}")
        return tuple.__new__(cls, (id, genus, components, nodes))

    def component(self, comp_id: str) -> Component:
        for c in self.components:
            if c.id == comp_id:
                return c
        raise KeyError(comp_id)

    def node_points(self, comp_id: str) -> list[str]:
        """Marked points of a component that sit in nodes, in marked-point order."""
        in_nodes = {end[1] for node in self.nodes for end in node.ends if end[0] == comp_id}
        return [p for p in self.component(comp_id).points if p in in_nodes]


class CheckResult(NamedTuple):
    """Outcome of a per-component feasibility oracle.

    status is one of "pass", "fail", "unknown".  exact means the rule is an
    if-and-only-if criterion, so a pass certifies existence.  witness_grade
    marks elliptic two-point passes where the uniqueness/existence
    hypotheses hold as well.
    """

    status: str
    rule: str
    exact: bool = False
    witness_grade: bool = False
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


# results without detail, shared by the calls that return them
_SINGLE_POLE_PASS = CheckResult("pass", RULE_ELLIPTIC_SINGLE_POLE, exact=True)
_PAIR_PASS = (CheckResult("pass", RULE_ELLIPTIC_PAIR_BOUND),  # by witness grade
              CheckResult("pass", RULE_ELLIPTIC_PAIR_BOUND, exact=True, witness_grade=True))
# by rule label (the clamp, the cusp clamp, Schubert), then by the answer
_LABELLED = tuple(tuple(CheckResult(status, rule, exact=True) for status in ("fail", "pass"))
                  for rule in (RULE_GENERAL_POINTED, RULE_GENERAL_CUSP, RULE_SCHUBERT))


def elliptic_single_point_check(d: int, a: VanishingSeq) -> CheckResult:
    """Existence of an elliptic aspect with vanishing at least a at one point.

    On an elliptic curve the achievable vanishing orders of a g^r_d at a
    point p are any r+1 of {0, ..., d-2, d} (line bundle O(dp)) or of
    {0, ..., d-1} (any other bundle): no function has a single simple pole,
    so orders d-1 and d cannot coexist.  This containment test is exact.
    """
    if a.d != d:
        raise ValueError(f"sequence bound {a.d} does not match degree {d}")
    if d - 1 in a.entries and d in a.entries:
        return CheckResult("fail", RULE_ELLIPTIC_SINGLE_POLE, exact=True,
                           detail=f"orders {d - 1} and {d} cannot both occur at one point")
    return _SINGLE_POLE_PASS


def elliptic_two_point_check(a: VanishingSeq, b: VanishingSeq,
                             torsion_order: int | None) -> CheckResult:
    """Necessary conditions for an elliptic aspect with vanishing a at p, b at q.

    Sections force a_i + b_{r-i} <= d for every i.  If equality holds at two
    or more indices, the difference p - q is torsion and its order must
    divide the differences of the a-entries at those indices.  A pass is
    witness-grade when additionally d-1 <= a_i + b_{r-i} for all i and the
    divisor pinned by the equalities admits the sequence, which upgrades the
    pass to an exact existence statement.
    """
    x = a.entries
    if a.d != b.d or len(x) != len(b.entries):
        raise ValueError(f"sequence bounds ({a.r}, {a.d}) and ({b.r}, {b.d}) differ")
    d, r = a.d, len(x) - 1
    sums = list(map(add, x, reversed(b.entries)))
    if max(sums) > d:
        return CheckResult("fail", RULE_ELLIPTIC_PAIR_BOUND,
                           detail=f"pairwise sums {sums} exceed degree {d}")
    eq = [i for i, s in enumerate(sums) if s == d]
    if _torsion_fails(x, eq, torsion_order):
        if torsion_order is None:
            return CheckResult("fail", RULE_ELLIPTIC_TORSION,
                               detail="two exact sums force torsion, but none is declared")
        base = x[eq[0]]
        bad = [x[i] - base for i in eq if (x[i] - base) % torsion_order]
        return CheckResult("fail", RULE_ELLIPTIC_TORSION,
                           detail=f"order {torsion_order} does not divide differences {bad}")
    witness = min(sums) >= d - 1
    if witness and eq:
        # existence needs the divisor conditions relative to the pinned class (with
        # no exact sum, a general divisor avoids the bad classes)
        base = x[eq[0]]
        for i in [i for i, s in enumerate(sums) if s == d - 1]:
            diff = x[i] + 1 - base
            triggered = diff == 0 or (torsion_order is not None and diff % torsion_order == 0)
            if triggered and not (i < r and x[i + 1] == x[i] + 1):
                witness = False
                break
    return _PAIR_PASS[witness]


def _torsion_fails(a: Sequence[int], eq: Sequence[int], torsion_order: int | None) -> bool:
    """The torsion-divisibility rule on bare tuples: exact sums a_i + b_{r-i} = d at two or
    more indices eq force p - q to be torsion whose order divides every a_i - a_j there."""
    return len(eq) >= 2 and (torsion_order is None or any((a[i] - a[eq[0]]) % torsion_order
                                                          for i in eq))


def general_pointed_check(t: SeriesType, rams: list[RamificationSeq] | tuple[RamificationSeq, ...],
                          extra_cusps: int = 0) -> CheckResult:
    """Exact existence test on a general pointed curve of genus t.g.

    Each extra cusp is one more power of the cusp class, as on a curve of
    genus one higher, so every criterion is asked at that shifted genus.
    At most two ramification conditions go through the closed forms, the
    one-point clamp and the Eisenbud-Harris two-point criterion (no
    condition is the zero sequence), and three or more through the Schubert
    nonvanishing criterion.  All are if-and-only-if statements, so both pass
    and fail are exact.  The rule label names the clamp for one condition or
    none without cusps, the cusp clamp for one condition with one cusp, and
    the Schubert criterion, which decides the same question, otherwise.
    """
    if extra_cusps < 0:
        raise ValueError(f"number of extra cusps must be nonnegative, got {extra_cusps}")
    shifted = SeriesType(t.g + extra_cusps, t.r, t.d)
    n = len(rams)
    if n > 2:
        global schubert
        if schubert is None:  # imported on first use: few checks reach it
            from . import schubert
        return _LABELLED[2][schubert.bn_condition(shifted, rams)]
    if n == 2:
        return _LABELLED[2][two_point_exists(shifted, *rams)]
    alpha = rams[0] if n else RamificationSeq((0,) * (t.r + 1), t.r, t.d)
    return _LABELLED[extra_cusps if extra_cusps <= n else 2][pointed_exists(shifted, alpha)]


def factsheet_check(facts: FactSheet | None, t: SeriesType,
                    rams: list[RamificationSeq] | tuple[RamificationSeq, ...]) -> CheckResult:
    """Counting refutation on a fact-sheet curve with general marked points.

    Ramification points of a fixed series are finite in number, so requiring
    positive weight at more general points than the asserted dimension of
    the series space is impossible.  The rule never certifies existence:
    anything not refuted is unknown, and so is everything when the fact
    sheet does not assert that the marked points are general.
    """
    if facts is not None and not facts.points_general:
        return CheckResult("unknown", RULE_FACTSHEET_COUNT,
                           detail="marked points not asserted general; counting rule does not apply")
    positive = sum(1 for a in rams if weight(a) > 0)
    dim = facts.dim_for(t.r, t.d) if facts is not None else None
    if dim is None:
        return CheckResult("unknown", RULE_FACTSHEET_COUNT,
                           detail=f"no dimension fact for r={t.r}, d={t.d}")
    if positive > dim:
        return CheckResult("fail", RULE_FACTSHEET_COUNT,
                           detail=f"{positive} general points with positive weight exceed dim {dim}")
    return CheckResult("unknown", RULE_FACTSHEET_COUNT,
                       detail=f"{positive} constrained points within dim {dim}; existence not decided")
