"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and uses its own
``random.Random``, so one seed always yields byte-identical files.  The
program under test only ever sees the written files: curve descriptions in
the ``compact-curve/1`` format for ``refute-sweep`` and JSON lines of
existence queries for ``schubert-queries``.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb
from pathlib import Path

# Largest number of vanishing sequences C(d+1, r+1) at one node.  The pair
# space of a two-noded elliptic pivot is its square, so a sweep curve has at
# most 1000^2 = 1,000,000 candidate pairs.  The paper's g^3_20 audit
# (5985^2 pairs) and the unbudgeted residual series g^5_24 and g^11_32
# stay out of the sweep.
SEQ_CAP = 1000
RHO_SPAN = 1  # sweep series have |rho| <= RHO_SPAN
MIN_GENUS = 6
MAX_GENUS = 23

# Every shape is generated VARIANTS times for every series of sweep_series(),
# so the mix of shapes and series is the same for all seeds; the seed draws
# the genus split, torsion orders, fact sheets, hub kinds and the job order.
# Those draws are stratified per shape (see Draws), so every seed builds
# about the same mix of structures: with plain draws and one variant the
# median job of a seed's sweep moved by about 18% from seed to seed.  A
# pivot has no drawn structure, so its variants are the same curve.
VARIANTS = 3
SWEEP_SHAPES = (
    "chain",           # torsion-free elliptic chain, varied genus split
    "torsion-chain",   # chain whose node difference is torsion of order 2..13
    "bridge-tail",     # general bridge ending in a one-noded elliptic tail
    "factsheet-leaf",  # fact-sheet leaf next to the elliptic pivot
    "pivot",           # one-noded elliptic pivot on a general curve
    "star",            # elliptic tails around a general or fact-sheet hub
)

# Schubert query stream: a few rectangles (r, d) so that Littlewood-Richardson
# products recur, small ramification, genus chosen near the boundary.
QUERY_RECTS = ((1, 8), (1, 12), (2, 11), (2, 14), (2, 17), (3, 15), (3, 20))
QUERY_MAX_INDEX = 3
# The worker empties the Littlewood-Richardson cache before every SESSION
# queries, as a fresh process would, so the cache's size and hit ratio do
# not grow with the number of queries a run reaches.  A 30 s run reaches
# 8,000 to 14,000 queries on a 2-core 2.1 GHz Xeon, so it goes through the
# whole stream of QUERY_COUNT and round again: the peak RSS is the largest
# of the same sessions in every run.
SESSION = 800
QUERY_COUNT = 6 * SESSION
ONE_POINT_SHARE = 0.2


def rho(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def sweep_series() -> list[tuple[int, int, int]]:
    """Every (genus, r, d) of the sweep: d >= r + 2, small |rho|, capped pairs."""
    return [(g, r, d)
            for r in (1, 2, 3)
            for g in range(MIN_GENUS, MAX_GENUS + 1)
            for d in range(r + 2, 2 * g - 1)
            if abs(rho(g, r, d)) <= RHO_SPAN and comb(d + 1, r + 1) <= SEQ_CAP]


def _component(cid: str, kind: str, genus: int, points, **extra) -> dict:
    doc = {"id": cid, "kind": kind, "genus": genus, "points": list(points)}
    doc.update(extra)
    return doc


def _elliptic_pivot(torsion: int | None) -> dict:
    extra = {"torsion": [{"points": ["p1", "p2"], "order": torsion}]} if torsion else {}
    return _component("E", "elliptic", 1, ("p1", "p2"), **extra)


class Draws:
    """Stratified seeded draws for the curves of one shape.

    Each named stream hands out, in seeded order, one value from each of n
    equal strata of [0, 1); a curve draws each name at most once, so the n
    curves of a shape share one spread of values and the seed decides which
    curve gets which.
    """

    def __init__(self, rng: random.Random, n: int) -> None:
        self.rng, self.n = rng, n
        self.streams: dict = {}

    def uniform(self, name: str) -> float:
        if name not in self.streams:
            values = [(k + self.rng.random()) / self.n for k in range(self.n)]
            self.rng.shuffle(values)
            self.streams[name] = iter(values)
        return next(self.streams[name])

    def randint(self, name: str, lo: int, hi: int) -> int:
        return lo + int(self.uniform(name) * (hi - lo + 1))

    def chance(self, name: str, p: float) -> bool:
        return self.uniform(name) < p


def _facts(draw: Draws, r: int, d: int) -> dict:
    """A fact sheet that may or may not carry the dimension the rules need."""
    facts: dict = {"points_general": True}
    if draw.chance("has-dim", 0.8):
        facts["series_dims"] = [{"r": r, "d": d, "dim": draw.randint("dim", 0, 2)}]
    if draw.chance("has-gonality", 0.5):
        facts["gonality"] = draw.randint("gonality", 2, 8)
    return facts


def curve_doc(shape: str, genus: int, r: int, d: int, draw: Draws, cid: str) -> dict:
    """One curve of the given shape and genus; the seed draws its structure."""
    torsion = draw.randint("torsion", 2, 13)
    if shape in ("chain", "torsion-chain", "factsheet-leaf"):
        g1 = draw.randint("split", 1, genus - 2)
        if shape == "factsheet-leaf":
            torsion = None if draw.chance("torsion-free", 0.5) else torsion
            left = _component("F", "factsheet", g1, ("p1",), facts=_facts(draw, r, d))
        else:
            left = _component("C1", "general", g1, ("p1",))
        comps = [left, _elliptic_pivot(None if shape == "chain" else torsion),
                 _component("C2", "general", genus - 1 - g1, ("p2",))]
        nodes = [[f"{left['id']}.p1", "E.p1"], ["E.p2", "C2.p2"]]
    elif shape == "bridge-tail":
        g1 = draw.randint("split", 1, genus - 3)
        comps = [
            _component("C1", "general", g1, ("p1", "x")),
            _elliptic_pivot(None if draw.chance("torsion-free", 0.5) else torsion),
            _component("C2", "general", genus - 2 - g1, ("p2",)),
            _component("T", "elliptic", 1, ("x",)),
        ]
        nodes = [["C1.p1", "E.p1"], ["E.p2", "C2.p2"], ["C1.x", "T.x"]]
    elif shape == "pivot":
        comps = [_component("C", "general", genus - 1, ("p",)),
                 _component("E", "elliptic", 1, ("p",))]
        nodes = [["C.p", "E.p"]]
    elif shape == "star":
        points = [f"p{i}" for i in range(1, draw.randint("tails", 2, min(8, genus - 1)) + 1)]
        hub_genus = genus - len(points)
        if draw.chance("general-hub", 0.5):
            hub = _component("H", "general", hub_genus, points)
        else:
            hub = _component("H", "factsheet", hub_genus, points, facts=_facts(draw, r, d))
        comps = [hub] + [_component(f"E{i}", "elliptic", 1, (p,))
                         for i, p in enumerate(points, 1)]
        nodes = [[f"H.{p}", f"E{i}.{p}"] for i, p in enumerate(points, 1)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return {
        "schema": "compact-curve/1",
        "id": cid,
        "description": f"benchmark {shape} curve",
        "genus": genus,
        "components": comps,
        "nodes": nodes,
    }


def sweep_inputs(seed: int, out_dir: Path) -> list[dict]:
    """Write the refute-sweep curve files; return the job list in run order.

    Each job is {"file", "shape", "r", "d"}.  Files are written with sorted
    keys and a trailing newline so their bytes depend on the seed only.
    """
    rng = random.Random(f"refute-sweep:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    series = sweep_series()
    jobs = []
    for shape in SWEEP_SHAPES:
        draw = Draws(rng, VARIANTS * len(series))
        for (genus, r, d), k in itertools.product(series, range(VARIANTS)):
            cid = f"{shape}-g{genus}-r{r}-d{d}-{k}"
            doc = curve_doc(shape, genus, r, d, draw, cid)
            (out_dir / f"{cid}.json").write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            jobs.append({"file": f"{cid}.json", "shape": shape, "r": r, "d": d})
    rng.shuffle(jobs)
    return jobs


def _ramification(rng: random.Random, r: int, d: int) -> list[int]:
    top = min(d - r, QUERY_MAX_INDEX)
    return sorted(rng.randint(0, top) for _ in range(r + 1))


def query_stream(seed: int, count: int = QUERY_COUNT) -> list[dict]:
    """Existence queries {"g", "r", "d", "rams", "cusps"} on general pointed curves.

    One-point queries (with at most one cusp) make up ONE_POINT_SHARE of the
    stream; the rest have two to four marked points plus zero to two cusps.
    The genus is drawn where the adjusted rho is within 2 of zero, so both
    answers occur.
    """
    rng = random.Random(f"schubert-queries:{seed}")
    out = []
    while len(out) < count:
        r, d = rng.choice(QUERY_RECTS)
        if rng.random() < ONE_POINT_SHARE:
            points, cusps = 1, rng.randint(0, 1)
        else:
            points, cusps = rng.randint(2, 4), rng.randint(0, 2)
        rams = [_ramification(rng, r, d) for _ in range(points)]
        weight = sum(map(sum, rams)) + cusps * r
        genera = [g for g in range(1, MAX_GENUS + 1) if abs(rho(g, r, d) - weight) <= 2]
        if genera:
            out.append({"g": rng.choice(genera), "r": r, "d": d, "rams": rams, "cusps": cusps})
    return out


def write_queries(seed: int, path: Path, count: int = QUERY_COUNT) -> list[dict]:
    """Write the stream as JSON lines, one query per line, and return it."""
    queries = query_stream(seed, count)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(q, separators=(",", ":")) + "\n" for q in queries),
                    encoding="utf-8")
    return queries
