"""Brute-force pair scan for cross-checking the refutation engine.

For a curve whose pivot is an elliptic component with two nodes, walk all
n^2 pairs (a, b) of vanishing sequences at its two node points and apply
the engine's rules in the engine's order: single pole at a, the component
behind a's node, the pairwise bound, single pole at b, the component behind
b's node, torsion divisibility.  Every rule is asked of the public oracles
in bnlimits.curves, and the component behind a node is judged at the
pointwise smallest sequence compatible with the pivot side, found by
scanning all sequences.  Nothing here touches the engine's box counting,
its prefix sums or its clamp shortcut.
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
from bnlimits.limit_checker import Survivor
from bnlimits.numerology import SeriesType, VanishingSeq, vanishing_to_ramification


def _neighbor(curve: CompactCurve, comp_id: str, point: str) -> tuple[str, str]:
    for node in curve.nodes:
        if (comp_id, point) in node.ends:
            return next(end for end in node.ends if end != (comp_id, point))
    raise KeyError((comp_id, point))


def _smallest_compatible(seqs, a, d):
    r = len(a) - 1
    compatible = [s for s in seqs if all(s[i] + a[r - i] >= d for i in range(r + 1))]
    return tuple(min(s[i] for s in compatible) for i in range(r + 1))


class _Side:
    """What hangs off one node of the pivot: its rule key, status and aspects."""

    def __init__(self, curve: CompactCurve, pivot_id: str, point: str, seqs, r: int, d: int):
        nb_id, nb_point = _neighbor(curve, pivot_id, point)
        nb = curve.component(nb_id)
        self.seqs, self.r, self.d = seqs, r, d
        self.nb, self.nb_point = nb, nb_point
        self.t = SeriesType(nb.genus, r, d)
        self.cusps = 0
        self.tail = None
        if nb.kind == "factsheet":
            self.key = f"factsheet-ramification-count@{nb_id}"
        elif len(curve.node_points(nb_id)) == 1:
            self.key = f"general-pointed-clamp@{nb_id}"
        else:  # a general bridge to a one-noded elliptic tail
            self.key = f"general-pointed-cusp-clamp@{nb_id}"
            self.cusps = 1
            self.far = next(p for p in curve.node_points(nb_id) if p != nb_point)
            self.tail = _neighbor(curve, nb_id, self.far)
            admissible = [s for s in seqs
                          if not elliptic_single_point_check(d, VanishingSeq(s, d)).failed]
            self.tail_seq = tuple(max(s[i] for s in admissible) for i in range(r + 1))
            self.floor = _smallest_compatible(seqs, self.tail_seq, d)

    def status(self, a: tuple[int, ...]) -> str:
        ram = vanishing_to_ramification(VanishingSeq(_smallest_compatible(self.seqs, a, self.d), self.d))
        if self.nb.kind == "factsheet":
            return factsheet_check(self.nb.facts, self.t, [ram]).status
        return general_pointed_check(self.t, [ram], extra_cusps=self.cusps).status

    def aspects(self, a: tuple[int, ...]) -> dict:
        out = {self.nb.id: {self.nb_point: _smallest_compatible(self.seqs, a, self.d)}}
        if self.tail is not None:
            out[self.nb.id][self.far] = self.floor
            out[self.tail[0]] = {self.tail[1]: self.tail_seq}
        return out


def brute_force_pairs(curve: CompactCurve, r: int, d: int, cap: int = 100) -> dict:
    """Verdict, candidates, rule hits, survivor count, listing and truncation."""
    pivot = next(c for c in curve.components
                 if c.kind == "elliptic" and len(curve.node_points(c.id)) == 2)
    u, v = curve.node_points(pivot.id)
    torsion = pivot.torsion_between(u, v)
    seqs = list(combinations(range(d + 1), r + 1))
    side_u = _Side(curve, pivot.id, u, seqs, r, d)
    side_v = _Side(curve, pivot.id, v, seqs, r, d)
    status_v = {b: side_v.status(b) for b in seqs}
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
                elif status_v[b] == "fail":
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
                for side, s in ((side_u, a), (side_v, b)):
                    for comp, pts in side.aspects(s).items():
                        assignment.setdefault(comp, {}).update(pts)
                unconfirmed = [side.nb.id for side, st in ((side_u, su), (side_v, status_v[b]))
                               if st == "unknown"]
                survivors.append(Survivor.from_dict(assignment, unconfirmed))
    return {
        "verdict": "refuted" if count == 0 else "survivors",
        "candidates_examined": len(seqs) ** 2,
        "rule_hits": tuple(sorted(hits.items())),
        "survivor_count": count,
        "survivors": tuple(survivors),
        "truncated": count > len(survivors),
    }
