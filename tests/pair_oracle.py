"""Brute-force pair scan for cross-checking the refutation engine.

For a curve whose pivot is an elliptic component with two nodes, walk all
n^2 pairs (a, b) of vanishing sequences at its two node points and apply
the engine's rules in the engine's order: single pole at a, the branch
behind a's node, the pairwise bound, single pole at b, the branch behind
b's node, torsion divisibility.  box and torsion_fails walk one box and
test one pair, the oracles of the engine's box counts and partner walk.

The branch behind a node (a leaf, an elliptic tail, a general bridge ending
in a tail, or an elliptic link with a further branch beyond it) is judged
by a scan: its status at a is the best status of its component over every
sequence s that node_compatible accepts against a, and a link or bridge
tries every sequence at its far node as well.  Every rule is asked of the
public oracles in bnlimits.curves; a bridge asks the two-point Schubert
criterion at its far node's least admissible sequence.  Nothing here
touches the engine's box counting, its down-set sums or its clamp tables.
"""

from __future__ import annotations

from itertools import combinations

from bnlimits.curves import (
    CompactCurve,
    elliptic_single_point_check,
    elliptic_two_point_check,
    factsheet_check,
    general_pointed_check,
)
from bnlimits.limit_checker import Survivor, node_compatible
from bnlimits.numerology import SeriesType, VanishingSeq, vanishing_to_ramification

_RANK = {"fail": 0, "unknown": 1, "pass": 2}


def _best(statuses) -> str:
    return max(statuses, key=_RANK.__getitem__, default="fail")


def _neighbor(curve: CompactCurve, comp_id: str, point: str) -> tuple[str, str]:
    for node in curve.nodes:
        if (comp_id, point) in node.ends:
            return next(end for end in node.ends if end != (comp_id, point))
    raise KeyError((comp_id, point))


def _least(seqs) -> tuple[int, ...]:
    return tuple(map(min, zip(*seqs)))


class Side:
    """The branch behind one node: its rule key, status and witness aspects, by scans."""

    def __init__(self, curve: CompactCurve, comp_id: str, point: str, seqs, r: int, d: int):
        comp = curve.component(comp_id)
        self.comp, self.point, self.seqs, self.d = comp, point, seqs, d
        self.vans = {s: VanishingSeq(s, d) for s in seqs}
        self.t = SeriesType(comp.genus, r, d)
        far = [p for p in curve.node_points(comp_id) if p != point]
        self.far = far[0] if far else None
        self.beyond = Side(curve, *_neighbor(curve, comp_id, self.far), seqs, r, d) if far else None
        if comp.kind == "factsheet":
            rule = "factsheet-ramification-count"
        elif comp.kind == "elliptic":
            rule = "elliptic-link-branch" if far else "elliptic-single-pole"
        else:
            rule = "general-pointed-cusp-clamp" if far else "general-pointed-clamp"
        self.key = f"{rule}@{comp.id}"
        self.memo: dict = {}

    def _pole_ok(self, s) -> bool:
        return not elliptic_single_point_check(self.d, self.vans[s]).failed

    def compatible(self, a) -> list:
        """The sequences that node_compatible accepts against a across the node."""
        return [s for s in self.seqs if node_compatible(self.vans[s], self.vans[a], self.d)
                != "incompatible"]

    def far_options(self, s) -> list:
        """(b, status beyond b) for the b at the far node that the component allows with s."""
        beyond = [(b, self.beyond.status(b)) for b in self.seqs]
        if self.comp.kind == "general":  # a bridge: the tail's least admissible side
            admissible = [b for b, st in beyond if st != "fail"]
            if not admissible:
                return []
            least = _least(admissible)
            rams = [vanishing_to_ramification(self.vans[x]) for x in (s, least)]
            ok = general_pointed_check(self.t, rams).passed
            return [(least, "pass")] if ok else []
        if not self._pole_ok(s):
            return []
        torsion = self.comp.torsion_between(self.point, self.far)
        return [(b, st) for b, st in beyond if st != "fail" and self._pole_ok(b)
                and not elliptic_two_point_check(self.vans[s], self.vans[b], torsion).failed]

    def own(self, s) -> str:
        """Status of the component and everything beyond it with sequence s at its node."""
        if ("own", s) not in self.memo:
            ram = [vanishing_to_ramification(self.vans[s])]
            if self.beyond is not None:
                status = _best(st for _, st in self.far_options(s))
            elif self.comp.kind == "factsheet":
                status = factsheet_check(self.comp.facts, self.t, ram).status
            elif self.comp.kind == "elliptic":
                status = elliptic_single_point_check(self.d, self.vans[s]).status
            else:
                status = general_pointed_check(self.t, ram).status
            self.memo["own", s] = status
        return self.memo["own", s]

    def status(self, a) -> str:
        """Best status over every sequence compatible with a across the node."""
        if a not in self.memo:
            self.memo[a] = _best(map(self.own, self.compatible(a)))
        return self.memo[a]

    def aspects(self, a, out: dict, unconfirmed: list) -> None:
        """Witness: the least compatible sequence here, the first allowed one beyond."""
        s = _least(self.compatible(a))
        out[self.comp.id] = {self.point: s}
        if self.beyond is None:
            if self.status(a) == "unknown":
                unconfirmed.append(self.comp.id)
            return
        b = self.far_options(s)[0][0]
        out[self.comp.id][self.far] = b
        self.beyond.aspects(b, out, unconfirmed)


def survivor(assignment: dict, unconfirmed) -> Survivor:
    """The Survivor of an assignment {component: {point: sequence}}, sorted by id and point."""
    frozen = tuple((comp, tuple(sorted((pt, tuple(seq)) for pt, seq in pts.items())))
                   for comp, pts in sorted(assignment.items()))
    return Survivor(frozen, tuple(sorted(unconfirmed)))


def box(hi) -> list[tuple[int, ...]]:
    """Strictly increasing tuples b <= hi, in lexicographic order."""
    level = [(v,) for v in range(hi[0] + 1)]
    for top in hi[1:]:
        level = [b + (v,) for b in level for v in range(b[-1] + 1, top + 1)]
    return level


def torsion_fails(a, b, d: int, torsion: int | None) -> bool:
    """Torsion-divisibility rule for one pair (a, b) inside the pairwise bound."""
    eq = [i for i, x in enumerate(a) if x + b[-1 - i] == d]
    return len(eq) >= 2 and (torsion is None or any((a[i] - a[eq[0]]) % torsion for i in eq))


def pivot_sides(curve: CompactCurve, r: int, d: int):
    """The pivot, its two node points and the Side behind each."""
    pivot = next(c for c in curve.components
                 if c.kind == "elliptic" and len(curve.node_points(c.id)) == 2)
    u, v = curve.node_points(pivot.id)
    seqs = list(combinations(range(d + 1), r + 1))
    return pivot, (u, v), tuple(Side(curve, *_neighbor(curve, pivot.id, p), seqs, r, d)
                                for p in (u, v))


def brute_force_pairs(curve: CompactCurve, r: int, d: int, cap: int = 100) -> dict:
    """Verdict, candidates, rule hits, survivor count, listing and truncation."""
    pivot, (u, v), (side_u, side_v) = pivot_sides(curve, r, d)
    torsion = pivot.torsion_between(u, v)
    seqs = side_u.seqs
    key_pole = f"elliptic-single-pole@{pivot.id}"

    def pole_fails(s):
        return elliptic_single_point_check(d, VanishingSeq(s, d)).failed

    hits: dict[str, int] = {}
    survivors: list[Survivor] = []
    count = 0
    for a in seqs:
        a_pole = pole_fails(a)
        su = None if a_pole else side_u.status(a)
        for b in seqs:
            if a_pole:
                key = key_pole
            elif su == "fail":
                key = side_u.key
            else:
                pair = elliptic_two_point_check(VanishingSeq(a, d), VanishingSeq(b, d), torsion)
                if pair.failed and pair.rule == "elliptic-pair-bound":
                    key = f"{pair.rule}@{pivot.id}"
                elif pole_fails(b):
                    key = key_pole
                elif side_v.status(b) == "fail":
                    key = side_v.key
                elif pair.failed:
                    key = f"{pair.rule}@{pivot.id}"
                else:
                    key = None
            if key is not None:
                hits[key] = hits.get(key, 0) + 1
                continue
            count += 1
            if len(survivors) < cap:
                assignment = {pivot.id: {u: a, v: b}}
                unconfirmed: list = []
                side_u.aspects(a, assignment, unconfirmed)
                side_v.aspects(b, assignment, unconfirmed)
                survivors.append(survivor(assignment, unconfirmed))
    return {
        "verdict": "refuted" if count == 0 else "survivors",
        "candidates_examined": len(seqs) ** 2,
        "rule_hits": tuple(sorted(hits.items())),
        "survivor_count": count,
        "survivors": tuple(survivors),
        "truncated": count > len(survivors),
    }
