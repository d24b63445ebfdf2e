"""Feasibility engine for limit linear series on compact-type curves.

refute() decides whether a curve can carry a limit g^r_d by exhausting the
vanishing sequences at the nodes and applying only necessary local rules:
node compatibility (crude matchings included, so sums >= d), the elliptic
pairwise bound with its torsion-divisibility consequence, the elliptic
single-pole rule, the exact clamp criteria on general pointed components,
and the counting rule on fact-sheet components.  A verdict of "refuted"
therefore certifies nonexistence; surviving candidates are reported as
found, never confirmed (smoothability is not verified here).

Enumeration pivots on the component with the most nodes.  For a two-noded
elliptic pivot the engine accounts for all pairs of vanishing sequences at
its two points, counting whole boxes of them, torsion failures included,
from prefix sums and walking a box only to list survivors; adjacent
general components are tested only at the pointwise minimal sequence
compatible with the pivot side, which is sound because the clamp criteria
are downward closed in the ramification.  For a star around a fact-sheet or
general component, one-noded elliptic tails force a cusp on the hub side,
and the hub rule is evaluated once on those forced floors.  Setting
prune=False replaces the minimal-complement shortcut by a full scan (and
the forced floors by per-sequence minima), which is the reference mode the
pruning is validated against.

The sequences of each (r, d) with their index tables and down-set counts,
and the status table of the component behind a node (keyed by its kind,
genus, fact sheet, r, d and prune mode), are immutable tuples kept between
refutations in one LRU cache, bounded by the number of sequences its tables
index in all (MAX_CACHED_SEQUENCES).

Reports are deterministic: candidates are ordered lexicographically and
repeated runs produce identical output.  A series with more than
MAX_SEQUENCES vanishing sequences per point is refused.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from itertools import combinations, compress
from math import comb
from operator import add, and_, not_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .curves import (
    KIND_ELLIPTIC,
    KIND_FACTSHEET,
    KIND_GENERAL,
    RULE_ELLIPTIC_PAIR_BOUND,
    RULE_ELLIPTIC_SINGLE_POLE,
    RULE_ELLIPTIC_TORSION,
    CheckResult,
    CompactCurve,
    Component,
    FactSheet,
    elliptic_single_point_check,
    elliptic_two_point_check,
    factsheet_check,
    general_pointed_check,
)
from .numerology import (
    RamificationSeq,
    SeriesType,
    VanishingSeq,
    adjusted_rho,
    rho,
    vanishing_to_ramification,
)

SMOOTHABILITY_NOTE = "smoothability not verified"

# Largest number C(d+1, r+1) of vanishing sequences per point that a scan
# materialises.  The g23 audit needs 5,985; a g^5_24 would need 177,100.
MAX_SEQUENCES = 100_000
# Largest number of entries, one per sequence, that the lattices and status
# tables kept between refutations hold in all: four lattices at MAX_SEQUENCES,
# or the 190,000 entries of the 850 tables that 900 seeded curves of every
# supported shape visit (perfbench refute-sweep).
MAX_CACHED_SEQUENCES = 4 * MAX_SEQUENCES


class UnsupportedCurveError(ValueError):
    """The curve's dual tree is outside the engine's enumeration strategies."""


def series_name(r: int, d: int) -> str:
    return f"g^{r}_{d}"


def node_compatible(a_y: VanishingSeq, a_z: VanishingSeq, d: int) -> str:
    """Classify a node matching: "incompatible", "crude" or "refined".

    The two aspects match at a node when a_i + b_{r-i} >= d for all i;
    refined means equality everywhere.
    """
    if a_y.d != d or a_z.d != d or a_y.r != a_z.r:
        raise ValueError("sequence bounds do not match the node degree")
    return _node_class(_node_sums(a_y, a_z), d)


def _node_sums(a_y: VanishingSeq, a_z: VanishingSeq) -> tuple[int, ...]:
    return tuple(map(add, a_y.entries, reversed(a_z.entries)))


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
    return AdditivityAudit(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs, equality=lhs == rhs)


Assignment = dict[str, dict[str, tuple[int, ...]]]


class Survivor(NamedTuple):
    """A candidate aspect assignment that no necessary rule eliminated."""

    assignment: tuple[tuple[str, tuple[tuple[str, tuple[int, ...]], ...]], ...]
    unconfirmed: tuple[str, ...] = ()

    @staticmethod
    def from_dict(assignment: Assignment, unconfirmed: Sequence[str] = ()) -> "Survivor":
        frozen = tuple(
            (comp, tuple(sorted((pt, tuple(seq)) for pt, seq in pts.items())))
            for comp, pts in sorted(assignment.items())
        )
        return Survivor(frozen, tuple(sorted(unconfirmed)))

    def assignment_dict(self) -> Assignment:
        return {comp: {pt: seq for pt, seq in pts} for comp, pts in self.assignment}

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
        return {
            "curve": self.curve,
            "series": {"r": self.series[0], "d": self.series[1]},
            "verdict": self.verdict,
            "candidates_examined": self.candidates_examined,
            "rule_hits": {k: v for k, v in self.rule_hits},
            "survivor_count": self.survivor_count,
            "survivors": [s.to_json() for s in self.survivors],
            "survivors_truncated": self.truncated,
            "pruned": self.pruned,
            "notes": list(self.notes),
        }

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
            parts = []
            for comp, pts in s.assignment:
                for pt, seq in pts:
                    parts.append(f"{comp}.{pt}={tuple(seq)}")
            lines.append("  - " + " ".join(parts) + flag)
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
        return {
            "curve": self.curve,
            "series": {"r": self.series[0], "d": self.series[1]},
            "verdict": self.verdict,
            "nodes": [
                {"node": n.node, "sums": list(n.sums), "classification": n.classification}
                for n in self.nodes
            ],
            "components": [
                {
                    "component": c.component,
                    "status": c.status,
                    "exact": c.exact,
                    "witness_grade": c.witness_grade,
                    "rule": c.rule,
                    "detail": c.detail,
                }
                for c in self.components
            ],
            "aspect_rhos": {k: v for k, v in self.aspect_rhos},
            "node_excess": {k: v for k, v in self.node_excess},
            "additivity": {
                "lhs": self.additivity.lhs,
                "rhs": self.additivity.rhs,
                "satisfied": self.additivity.satisfied,
                "equality": self.additivity.equality,
            },
            "refined": self.refined,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        r, d = self.series
        lines = [f"witness report: curve {self.curve}, series {series_name(r, d)}", "nodes:"]
        for n in self.nodes:
            lines.append(f"  {n.node}: sums {n.sums} -> {n.classification}")
        lines.append("components:")
        for c in self.components:
            grade = []
            if c.exact:
                grade.append("exact")
            if c.witness_grade:
                grade.append("witness-grade")
            extra = f" ({', '.join(grade)})" if grade else ""
            det = f" -- {c.detail}" if c.detail else ""
            lines.append(f"  {c.component}: {c.status}{extra} via {c.rule}{det}")
        lines.append("aspect rho:")
        for comp, val in self.aspect_rhos:
            lines.append(f"  {comp}: {val}")
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


class _Slot(NamedTuple):
    """One node of the pivot: its point and what hangs off the other side."""

    point: str
    neighbor: Component
    neighbor_point: str
    kind: str  # "leaf-general" | "leaf-factsheet" | "bridge"
    far_point: str | None = None  # bridge: neighbor's point at the tail node
    tail: Component | None = None
    tail_point: str | None = None

    @property
    def key(self) -> tuple:
        """What the status of the component behind this slot depends on, besides (r, d)."""
        return self.kind, self.neighbor.genus, self.neighbor.facts


class _Plan(NamedTuple):
    mode: str  # "pair" | "single" | "floor"
    pivot: Component
    slots: tuple[_Slot, ...]


_KIND_PRIORITY = {KIND_ELLIPTIC: 0, KIND_FACTSHEET: 1, KIND_GENERAL: 2}


def _analyze(curve: CompactCurve) -> _Plan:
    if len(curve.components) < 2:
        raise UnsupportedCurveError("need at least two components joined at a node")
    node_count = {c.id: len(curve.node_points(c.id)) for c in curve.components}
    order = {c.id: i for i, c in enumerate(curve.components)}
    pivot = max(
        curve.components,
        key=lambda c: (node_count[c.id], -_KIND_PRIORITY[c.kind], -order[c.id]),
    )

    def node_at(comp_id: str, point: str):
        for node in curve.nodes:
            if (comp_id, point) in node.ends:
                return node
        raise KeyError((comp_id, point))

    def other_end(node, comp_id: str) -> tuple[str, str]:
        for end in node.ends:
            if end[0] != comp_id:
                return end
        raise KeyError(comp_id)

    slots = []
    for point in curve.node_points(pivot.id):
        nb_id, nb_point = other_end(node_at(pivot.id, point), pivot.id)
        nb = curve.component(nb_id)
        nb_nodes = curve.node_points(nb_id)
        if pivot.kind == KIND_ELLIPTIC:
            if nb.kind == KIND_GENERAL and len(nb_nodes) == 1:
                slots.append(_Slot(point, nb, nb_point, "leaf-general"))
            elif nb.kind == KIND_FACTSHEET and len(nb_nodes) == 1:
                slots.append(_Slot(point, nb, nb_point, "leaf-factsheet"))
            elif nb.kind == KIND_GENERAL and len(nb_nodes) == 2:
                far = next(p for p in nb_nodes if p != nb_point)
                tail_id, tail_point = other_end(node_at(nb_id, far), nb_id)
                tail = curve.component(tail_id)
                if tail.kind != KIND_ELLIPTIC or len(curve.node_points(tail_id)) != 1:
                    raise UnsupportedCurveError(
                        f"bridge {nb_id} must end in a one-noded elliptic tail"
                    )
                slots.append(_Slot(point, nb, nb_point, "bridge", far, tail, tail_point))
            else:
                raise UnsupportedCurveError(
                    f"component {nb_id} next to the elliptic pivot is not a supported leaf or bridge"
                )
        else:
            if nb.kind != KIND_ELLIPTIC or len(nb_nodes) != 1:
                raise UnsupportedCurveError(
                    f"star around {pivot.id} requires one-noded elliptic tails, got {nb_id}"
                )
            slots.append(_Slot(point, nb, nb_point, "tail"))

    if pivot.kind == KIND_ELLIPTIC:
        if len(slots) == 2:
            return _Plan("pair", pivot, tuple(slots))
        if len(slots) == 1:
            return _Plan("single", pivot, tuple(slots))
        raise UnsupportedCurveError("elliptic pivot supports at most two nodes")
    return _Plan("floor", pivot, tuple(slots))


# ---------------------------------------------------------------------------
# shared sequence helpers (hot paths work on bare tuples)


def _all_seqs(r: int, d: int) -> list[tuple[int, ...]]:
    size = comb(d + 1, r + 1)
    if size > MAX_SEQUENCES:
        raise ValueError(f"{series_name(r, d)} has C({d + 1}, {r + 1}) = {size} vanishing sequences"
                         f" per point, above the engine's limit of {MAX_SEQUENCES}")
    return list(combinations(range(d + 1), r + 1))


def _max_tail_seq(r: int, d: int) -> tuple[int, ...] | None:
    """Pointwise largest vanishing sequence passing the single-pole rule."""
    if 0 < r == d:
        return None  # the only candidate (0..d) has both d-1 and d
    return tuple(d - 1 - (r - i) for i in range(r)) + (d,)


def _clamp_feasible(c: tuple[int, ...], genus: int, d: int, r: int, cusps: int) -> bool:
    # clamp criterion on the ramification of c, with `cusps` extra cusp powers; the
    # per-sequence reference that the tests hold _clamp_columns to
    shift = genus + cusps - d + r
    bound = genus + cusps
    total = 0
    for i, ci in enumerate(c):
        v = ci - i + shift
        if v > 0:
            total += v
            if total > bound:
                return False
    return True


def _slot_rule_key(slot: _Slot) -> str:
    from .curves import RULE_FACTSHEET_COUNT, RULE_GENERAL_CUSP, RULE_GENERAL_POINTED

    if slot.kind == "leaf-general":
        return f"{RULE_GENERAL_POINTED}@{slot.neighbor.id}"
    if slot.kind == "bridge":
        return f"{RULE_GENERAL_CUSP}@{slot.neighbor.id}"
    return f"{RULE_FACTSHEET_COUNT}@{slot.neighbor.id}"


class _TableCache:
    """LRU store of the tables that refutations share, least recently used first.

    Each table is a tuple whose first field has one entry per sequence; the
    store drops old tables while their entries exceed MAX_CACHED_SEQUENCES.
    """

    def __init__(self) -> None:
        self.tables: OrderedDict = OrderedDict()
        self.held = 0

    def clear(self) -> None:
        self.tables.clear()
        self.held = 0

    def __call__(self, build):
        def lookup(*args):
            key = build, args
            table = self.tables.get(key)
            if table is not None:
                self.tables.move_to_end(key)
                return table
            table = self.tables[key] = build(*args)
            self.held += len(table[0])
            while self.held > MAX_CACHED_SEQUENCES:
                self.held -= len(self.tables.popitem(last=False)[1][0])
            return table

        lookup.__wrapped__ = build
        lookup.cache_clear = self.clear
        return lookup


_tables = _TableCache()


class _Lattice(NamedTuple):
    """The vanishing sequences of a g^r_d at one point, in lexicographic order.

    The tables are indexed by position in seqs and hold positions or counts.
    """

    seqs: tuple[tuple[int, ...], ...]
    index: Mapping[tuple[int, ...], int]
    cols: tuple[tuple[int, ...], ...]  # cols[i][k] = seqs[k][i]
    steps: tuple[tuple[int, ...], ...]  # per axis j: largest sequence below s - e_j, or -1
    caps: tuple[int, ...]  # the pairwise bound's caps (d - s[r], ..., d - s[0]) = min_complement(s)
    pole_ok: tuple[bool, ...]  # passes the elliptic single-pole rule
    box: tuple[int, ...]  # down-set sizes, #{b <= s}
    pole_in: tuple[int, ...]  # #{b <= s failing the single-pole rule}


@_tables
def _lattice(r: int, d: int) -> _Lattice:
    seqs = tuple(_all_seqs(r, d))
    ids = tuple(range(len(seqs)))  # one int object per position, shared by every table
    index = dict(zip(seqs, ids))
    cols = tuple(zip(*seqs))
    steps = []
    row = (-1,) * len(seqs)  # axis -1: every s_0 is above s_{-1} = -1, with no step
    for j, (above, col) in enumerate(zip((row,) + cols, cols)):
        # lowering s_j by one lowers the lex rank by C(d - s_j, r - j); if s_{j-1} = s_j - 1
        # that clamps s_{j-1}, so the step starts from the one on axis j - 1
        drop = [comb(d - v, r - j) for v in range(d + 1)]
        start = [i if u < v - 1 else p for i, u, v, p in zip(ids, above, col, row)]
        row = tuple(-1 if k < 0 else ids[k - drop[v]] for k, v in zip(start, col))
        steps.append(row)
    caps = tuple(map(index.__getitem__, zip(*[map(d.__sub__, col) for col in reversed(cols)])))
    # the rule fails when the orders d - 1 and d both occur, that is when s_{r-1} = d - 1
    pole_ok = tuple(map((d - 1).__ne__, cols[-2])) if r else (True,) * len(seqs)
    box, pole_in = _down_sums(steps, (1,) * len(seqs), map(not_, pole_ok))
    return _Lattice(seqs, MappingProxyType(index), cols, tuple(steps), caps, pole_ok, box, pole_in)


class _Neighbour(NamedTuple):
    """Status ("pass"/"fail"/"unknown") by sequence index of the component behind a slot.

    A second-node table also holds the down-set counts of the good b, those
    that pass the single-pole rule and whose slot does not fail.
    """

    status: tuple[str, ...]
    good_in: tuple[int, ...] = ()


@_tables
def _neighbour(kind: str, genus: int, facts: FactSheet | None, r: int, d: int, prune: bool,
               far: bool = False) -> _Neighbour:
    """Status table of the component behind a slot; far adds the good b's down-set counts.

    Pruned mode evaluates the exact clamp criterion on the pointwise minimal
    compatible sequence.  Naive mode asks whether any compatible sequence is
    clamp-feasible instead, which avoids the monotonicity lemma: caps is an
    order-reversing involution, so the feasible s >= caps(a) are counted by
    the down-set sum at a of the weights feasible(caps(x)).
    """
    lat = _lattice(r, d)
    if far:
        status = _neighbour(kind, genus, facts, r, d, prune).status
        return _Neighbour(status, *_down_sums(lat.steps, map(and_, lat.pole_ok,
                                                             map("fail".__ne__, status))))
    if kind == "leaf-factsheet":
        t = SeriesType(genus, r, d)
        return _Neighbour(tuple(
            factsheet_check(facts, t, [vanishing_to_ramification(VanishingSeq(lat.seqs[c], d))]).status
            for c in lat.caps))
    feasible = _clamp_columns(lat.cols, genus, d, r, 1 if kind == "bridge" else 0)
    ok = map(feasible.__getitem__, lat.caps)
    if not prune:
        ok = map(bool, _down_sums(lat.steps, ok)[0])
    return _Neighbour(tuple(map(("fail", "pass").__getitem__, ok)))


def _clamp_columns(cols: Sequence[Sequence[int]], genus: int, d: int, r: int,
                   cusps: int) -> list[bool]:
    """_clamp_feasible of every sequence of a lattice, summed column by column."""
    shift = genus + cusps - d + r
    terms = [map([max(v - i + shift, 0) for v in range(d + 1)].__getitem__, col)
             for i, col in enumerate(cols)]
    return list(map((genus + cusps).__ge__, map(sum, zip(*terms))))


def _survivor(pivot: Component, sides, d: int, r: int) -> Survivor:
    """Survivor with pivot sequence a at each slot, sides being (slot, a, slot status)."""
    out: Assignment = {pivot.id: {slot.point: a for slot, a, _ in sides}}
    for slot, a, _ in sides:
        out[slot.neighbor.id] = {slot.neighbor_point: min_complement(a, d)}
        if slot.kind == "bridge":
            # the floor forced across a node by any admissible elliptic tail
            out[slot.neighbor.id][slot.far_point] = (0,) + tuple(range(2, r + 2))
            out[slot.tail.id] = {slot.tail_point: _max_tail_seq(r, d)}
    return Survivor.from_dict(out, [slot.neighbor.id for slot, _, st in sides if st == "unknown"])


# ---------------------------------------------------------------------------
# refutation engine


def refute(curve: CompactCurve, t: SeriesType, *, prune: bool = True,
           survivor_cap: int = 100) -> RefutationReport:
    """Exhaust aspect candidates for a limit g^r_d and apply the necessary rules.

    Returns verdict "refuted" only if every candidate was eliminated by a
    rule application; rule_hits records, per rule, how many candidates that
    rule eliminated first (rules are applied in a fixed order).  Unknown
    oracle answers never eliminate: such candidates survive flagged as
    unconfirmed.
    """
    if t.g != curve.genus:
        raise ValueError(f"series genus {t.g} does not match curve genus {curve.genus}")
    if survivor_cap < 0:
        raise ValueError(f"survivor cap must be nonnegative, got {survivor_cap}")
    plan = _analyze(curve)
    if plan.mode == "floor":
        return _refute_floor(curve, t, plan, prune)
    if plan.mode == "single":
        return _refute_single(curve, t, plan, prune, survivor_cap)
    return _refute_pair(curve, t, plan, prune, survivor_cap)


def _finish(curve, t, candidates, hits, survivors, count, prune, extra_notes=()) -> RefutationReport:
    verdict = "refuted" if count == 0 else "survivors"
    notes = [
        "crude node matchings included (sums >= d)",
        "eliminations use necessary rules only",
    ]
    if count:
        notes.append(f"survivors satisfy the necessary rules; {SMOOTHABILITY_NOTE}")
    notes.extend(extra_notes)
    return RefutationReport(
        curve=curve.id,
        series=(t.r, t.d),
        verdict=verdict,
        candidates_examined=candidates,
        rule_hits=tuple(sorted(hits.items())),
        survivor_count=count,
        survivors=tuple(survivors),
        truncated=count > len(survivors),
        pruned=prune,
        notes=tuple(notes),
    )


def _refute_pair(curve, t, plan, prune, cap) -> RefutationReport:
    """Two-noded elliptic pivot: count the pairs (a, b) box by box.

    An a that fails the single-pole rule or its slot fails with every b.  Over
    the other, open a, the rules on the b in the box b <= caps(a) that the
    pairwise bound leaves are summed column-wise from down-set counts.  Only
    an a with good b in its box has its torsion failures counted and its
    survivors walked.
    """
    slot_u, slot_v = plan.slots
    r, d = t.r, t.d
    pivot = plan.pivot
    torsion = pivot.torsion_between(slot_u.point, slot_v.point)
    lat = _lattice(r, d)
    seqs, index, pole_ok = lat.seqs, lat.index, lat.pole_ok
    n = len(seqs)
    status_u = _neighbour(*slot_u.key, r, d, prune).status
    status_v, good_in = _neighbour(*slot_v.key, r, d, prune, True)

    key_tor = f"{RULE_ELLIPTIC_TORSION}@{pivot.id}"
    opened = list(compress(range(n), map(and_, pole_ok, map("fail".__ne__, status_u))))
    tops = list(map(lat.caps.__getitem__, opened))
    in_box, pole, good = (sum(map(table.__getitem__, tops))
                          for table in (lat.box, lat.pole_in, good_in))
    pole_fails = n - sum(pole_ok)
    hits: Counter[str] = Counter()
    for key, by in ((f"{RULE_ELLIPTIC_SINGLE_POLE}@{pivot.id}", n * pole_fails + pole),
                    (_slot_rule_key(slot_u), n * (n - pole_fails - len(opened))),
                    (f"{RULE_ELLIPTIC_PAIR_BOUND}@{pivot.id}", n * len(opened) - in_box),
                    (_slot_rule_key(slot_v), in_box - pole - good)):
        hits[key] += by

    survivors: list[Survivor] = []
    count = good
    for i, ic in zip(opened, tops):
        if not good_in[ic]:
            continue
        a = seqs[i]
        tor = _torsion_hits(a, ic, lat.steps, good_in, torsion)
        hits[key_tor] += tor
        count -= tor
        if good_in[ic] == tor or len(survivors) >= cap:
            continue
        for b in _box(seqs[ic]):
            ib = index[b]
            if not pole_ok[ib] or status_v[ib] == "fail" or _torsion_fails(a, b, d, torsion):
                continue
            sides = ((slot_u, a, status_u[i]), (slot_v, b, status_v[ib]))
            survivors.append(_survivor(pivot, sides, d, r))
            if len(survivors) == cap:
                break
    return _finish(curve, t, n * n, +hits, survivors, count, prune)


def _torsion_fails(a: tuple[int, ...], b: tuple[int, ...], d: int, torsion: int | None) -> bool:
    """Torsion-divisibility rule for a pair inside the pairwise bound."""
    eq = [i for i, x in enumerate(a) if x + b[-1 - i] == d]
    return len(eq) >= 2 and (torsion is None or any((a[i] - a[eq[0]]) % torsion for i in eq))


def _torsion_hits(a: tuple[int, ...], ic: int, steps: tuple[tuple[int, ...], ...],
                  good_in: tuple[int, ...], torsion: int | None) -> int:
    """How many good b in the box b <= c = caps(a) the torsion rule eliminates.

    With T(b) the axes j where b_j = c_j, the rule passes b iff T(b) lies in
    one class of axes with congruent a[r-j] (one axis per class without torsion).
    The good b with T(b) in K lie below c lowered on each axis outside K, in order.
    """
    r = len(a) - 1

    def within(axes) -> int:
        i = ic
        for j in range(r + 1):
            if j not in axes and i >= 0:
                i = steps[j][i]
        return good_in[i] if i >= 0 else 0

    classes: dict[int, list[int]] = {}
    for j in range(r + 1):
        classes.setdefault(j if torsion is None else a[r - j] % torsion, []).append(j)
    empty = within(())
    return good_in[ic] - empty - sum(within(k) - empty for k in classes.values())


def _down_sums(steps: Sequence[Sequence[int]], *weights: Iterable) -> tuple[tuple[int, ...], ...]:
    """For each weight list, its sums over the down-sets {b <= c} of increasing tuples.

    One lexicographic sweep per axis j adds the sum at the largest increasing
    tuple below c - e_j (c_j lowered by one, earlier coordinates clamped), or
    the 0 kept past the end of the table when there is none (index -1).
    """
    tables = [[*map(int, ws), 0] for ws in weights]
    for axis in steps:
        for table in tables:
            for i, p in enumerate(axis):
                table[i] += table[p]
    return tuple(tuple(table[:-1]) for table in tables)


def _box(hi: Sequence[int]) -> list[tuple[int, ...]]:
    """Strictly increasing tuples b <= hi, in lexicographic order."""
    level = [(v,) for v in range(hi[0] + 1)]
    for top in hi[1:]:
        level = [b + (v,) for b in level for v in range(b[-1] + 1, top + 1)]
    return level


def _refute_single(curve, t, plan, prune, cap) -> RefutationReport:
    (slot,) = plan.slots
    r, d = t.r, t.d
    pivot = plan.pivot
    lat = _lattice(r, d)
    status = _neighbour(*slot.key, r, d, prune).status
    key_pole = f"{RULE_ELLIPTIC_SINGLE_POLE}@{pivot.id}"
    key_nb = _slot_rule_key(slot)
    hits: Counter[str] = Counter()
    survivors: list[Survivor] = []
    count = 0
    for a, ok, st in zip(lat.seqs, lat.pole_ok, status):
        if not ok or st == "fail":
            hits[key_nb if ok else key_pole] += 1
            continue
        count += 1
        if len(survivors) < cap:
            survivors.append(_survivor(pivot, ((slot, a, st),), d, r))
    return _finish(curve, t, len(lat.seqs), hits, survivors, count, prune)


def _refute_floor(curve, t, plan, prune) -> RefutationReport:
    """Star around a fact-sheet or general hub: evaluate the forced floors."""
    r, d = t.r, t.d
    pivot = plan.pivot
    hits: dict[str, int] = {}

    floors: list[tuple[int, ...]] = []
    for slot in plan.slots:
        if prune:
            admissible = [s for s in (_max_tail_seq(r, d),) if s is not None]
        else:
            lat = _lattice(r, d)
            admissible = [s for s, ok in zip(lat.seqs, lat.pole_ok) if ok]
        if not admissible:
            hits[f"{RULE_ELLIPTIC_SINGLE_POLE}@{slot.neighbor.id}"] = 1
            return _finish(curve, t, 1, hits, [], 0, prune)
        comps = [min_complement(s, d) for s in admissible]
        floors.append(tuple(min(c[i] for c in comps) for i in range(r + 1)))

    t_pivot = SeriesType(pivot.genus, r, d)
    floor_rams = [vanishing_to_ramification(VanishingSeq(f, d)) for f in floors]
    if pivot.kind == KIND_FACTSHEET:
        result = factsheet_check(pivot.facts, t_pivot, floor_rams)
    else:
        result = general_pointed_check(t_pivot, floor_rams)
    key = f"{result.rule}@{pivot.id}"
    if result.failed:
        hits[key] = 1
        return _finish(curve, t, 1, hits, [], 0, prune,
                       extra_notes=["hub evaluated on the ramification floors forced by the tails"])
    assignment: Assignment = {pivot.id: {slot.point: floors[i] for i, slot in enumerate(plan.slots)}}
    for slot in plan.slots:
        assignment[slot.neighbor.id] = {slot.neighbor_point: _max_tail_seq(r, d)}
    unconfirmed = [pivot.id] if result.status == "unknown" else []
    survivor = Survivor.from_dict(assignment, unconfirmed)
    return _finish(curve, t, 1, hits, [survivor], 1, prune,
                   extra_notes=["hub evaluated on the ramification floors forced by the tails",
                                "survivor lists the floor assignment; larger ramification may also survive"])


# ---------------------------------------------------------------------------
# witness verification


def verify_witness(curve: CompactCurve, t: SeriesType,
                   assignment: Mapping[str, Mapping[str, Sequence[int]]]) -> WitnessReport:
    """Check an explicit aspect assignment against every local rule.

    Sequences are required vanishing orders: each component aspect must
    vanish at least that much, which is what the node matching consumes.
    Verdict "confirmed" needs every component oracle to be an exact pass and
    every node to match; passes by merely necessary rules (or unknowns on
    fact-sheet components) downgrade to "consistent".
    """
    if t.g != curve.genus:
        raise ValueError(f"series genus {t.g} does not match curve genus {curve.genus}")
    r, d = t.r, t.d

    in_nodes = {end for node in curve.nodes for end in node.ends}
    node_points = {comp.id: [p for p in comp.points if (comp.id, p) in in_nodes]
                   for comp in curve.components}
    seqs: dict[tuple[str, str], VanishingSeq] = {}
    for comp in curve.components:
        need = node_points[comp.id]
        given = dict(assignment.get(comp.id, {}))
        missing = [p for p in need if p not in given]
        if missing:
            raise ValueError(f"assignment incomplete: {comp.id} lacks {missing}")
        for pt, entries in given.items():
            if pt not in comp.points:
                raise ValueError(f"assignment names unknown point {comp.id}.{pt}")
            if pt not in need:
                raise ValueError(f"point {comp.id}.{pt} is not a node; only node points carry witness data")
            seq = VanishingSeq(tuple(entries), d)
            if seq.r != r:
                raise ValueError(f"sequence at {comp.id}.{pt} has length {seq.r + 1}, need {r + 1}")
            seqs[(comp.id, pt)] = seq
    for comp_id in assignment:
        curve.component(comp_id)  # KeyError on unknown id

    node_audits = []
    excess = []
    for node in curve.nodes:
        (c1, p1), (c2, p2) = node.ends
        sums = _node_sums(seqs[(c1, p1)], seqs[(c2, p2)])
        cls = _node_class(sums, d)
        node_audits.append(NodeAudit(str(node), sums, cls))
        excess.append((str(node), sum(sums) - (r + 1) * d if cls != "incompatible" else 0))

    comp_audits = []
    aspect_rhos = []
    for comp in curve.components:
        pts = node_points[comp.id]
        vans = [seqs[(comp.id, p)] for p in pts]
        rams = [vanishing_to_ramification(v) for v in vans]
        result = _component_oracle(comp, t, pts, vans, rams)
        comp_audits.append(ComponentAudit(comp.id, result.status, result.exact,
                                          result.witness_grade, result.rule, result.detail))
        aspect_rhos.append((comp.id, adjusted_rho(SeriesType(comp.genus, r, d), rams)))

    audit = additivity_audit(t, [v for _, v in aspect_rhos])
    refined = all(n.classification == "refined" for n in node_audits)

    if any(n.classification == "incompatible" for n in node_audits) or any(
        c.status == "fail" for c in comp_audits
    ):
        verdict = "rejected"
    elif all(c.status == "pass" and c.exact for c in comp_audits):
        verdict = "confirmed"
    else:
        verdict = "consistent"

    notes = []
    if verdict == "consistent":
        asserted = [c.component for c in comp_audits if c.status == "unknown" or not c.exact]
        notes.append("component existence asserted, not proven: " + ", ".join(sorted(asserted)))
    if verdict in ("confirmed", "consistent"):
        notes.append(SMOOTHABILITY_NOTE)
    return WitnessReport(
        curve=curve.id,
        series=(r, d),
        verdict=verdict,
        nodes=tuple(node_audits),
        components=tuple(comp_audits),
        aspect_rhos=tuple(aspect_rhos),
        node_excess=tuple(excess),
        additivity=audit,
        refined=refined,
        notes=tuple(notes),
    )


def _component_oracle(comp: Component, t: SeriesType, pts: list[str],
                      vans: list[VanishingSeq], rams: list[RamificationSeq]) -> CheckResult:
    d = t.d
    if comp.kind == KIND_GENERAL:
        return general_pointed_check(SeriesType(comp.genus, t.r, t.d), rams)
    if comp.kind == KIND_FACTSHEET:
        return factsheet_check(comp.facts, SeriesType(comp.genus, t.r, t.d), rams)
    # elliptic
    if len(vans) == 1:
        return elliptic_single_point_check(d, vans[0])
    if len(vans) == 2:
        for v in vans:
            single = elliptic_single_point_check(d, v)
            if single.failed:
                return single
        torsion = comp.torsion_between(pts[0], pts[1])
        return elliptic_two_point_check(vans[0], vans[1], torsion)
    raise UnsupportedCurveError(f"elliptic component {comp.id} has more than two nodes")
