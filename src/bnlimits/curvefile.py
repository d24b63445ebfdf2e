"""Versioned JSON format for compact-type curve descriptions.

A curve file carries the marked components, the nodes of the dual tree, and
optionally named witness aspect assignments keyed by the series they are
meant for.  Parsing is strict: unknown keys are rejected everywhere, every
integer field must be a JSON integer (not a boolean, float or string),
points_general must be a JSON boolean, and the decoded curve re-validates
all structural invariants.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .curves import (
    CompactCurve,
    Component,
    FactSheet,
    Node,
    SeriesDimFact,
    TorsionPair,
)

SCHEMA = "compact-curve/1"


class Witness(NamedTuple):
    """Named aspect assignment for one series type on a curve."""

    name: str
    series: tuple[int, int]  # (r, d)
    aspects: tuple[tuple[str, tuple[tuple[str, tuple[int, ...]], ...]], ...]
    description: str = ""

    def aspects_dict(self) -> dict[str, dict[str, tuple[int, ...]]]:
        return {comp: {pt: seq for pt, seq in pts} for comp, pts in self.aspects}


class CurveDescription(NamedTuple):
    curve: CompactCurve
    witnesses: tuple[Witness, ...]
    description: str = ""

    def witness(self, name: str) -> Witness:
        for w in self.witnesses:
            if w.name == name:
                return w
        raise KeyError(f"no witness named {name!r}; have {[w.name for w in self.witnesses]}")


def _require_keys(doc: Mapping[str, Any], allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in {where}")


def _int(value: Any, where: str) -> int:
    # bool is a subclass of int, so test the exact type
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _ints(values: Any, where: str) -> tuple[int, ...]:
    return tuple(_int(x, where) for x in values)


def _parse_point_ref(ref: str) -> tuple[str, str]:
    if ref.count(".") != 1:
        raise ValueError(f"point reference {ref!r} must look like component.point")
    comp, pt = ref.split(".")
    return comp, pt


def _parse_component(doc: Mapping[str, Any]) -> Component:
    _require_keys(doc, {"id", "kind", "genus", "points", "torsion", "facts", "description"},
                  {"id", "kind", "genus", "points"}, f"component {doc.get('id', '?')}")
    torsion = []
    for item in doc.get("torsion", []):
        _require_keys(item, {"points", "order"}, {"points", "order"}, "torsion entry")
        p, q = item["points"]
        torsion.append(TorsionPair((p, q), _int(item["order"], "torsion order")))
    facts = None
    if "facts" in doc:
        fdoc = doc["facts"]
        _require_keys(fdoc, {"series_dims", "gonality", "points_general"}, set(), "facts")
        dims = []
        for item in fdoc.get("series_dims", []):
            _require_keys(item, {"r", "d", "dim"}, {"r", "d", "dim"}, "series dimension fact")
            dims.append(SeriesDimFact(*(_int(item[k], f"{k} of series dimension fact")
                                        for k in ("r", "d", "dim"))))
        gonality = fdoc.get("gonality")
        if gonality is not None:
            _int(gonality, "gonality")
        points_general = fdoc.get("points_general", True)
        if type(points_general) is not bool:
            raise ValueError(f"points_general must be true or false, got {json.dumps(points_general)}")
        facts = FactSheet(tuple(dims), gonality, points_general)
    return Component(
        id=str(doc["id"]),
        genus=_int(doc["genus"], f"genus of component {doc['id']}"),
        kind=str(doc["kind"]),
        points=tuple(str(p) for p in doc["points"]),
        torsion=tuple(torsion),
        facts=facts,
    )


def curve_from_json(doc: Mapping[str, Any]) -> CurveDescription:
    _require_keys(doc, {"schema", "id", "description", "genus", "components", "nodes", "witnesses"},
                  {"schema", "id", "genus", "components", "nodes"}, "curve document")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported schema {doc['schema']!r}, expected {SCHEMA!r}")
    components = tuple(_parse_component(c) for c in doc["components"])
    nodes = []
    for pair in doc["nodes"]:
        if len(pair) != 2:
            raise ValueError(f"node {pair} must join exactly two points")
        nodes.append(Node((_parse_point_ref(pair[0]), _parse_point_ref(pair[1]))))
    curve = CompactCurve(
        id=str(doc["id"]),
        genus=_int(doc["genus"], "curve genus"),
        components=components,
        nodes=tuple(nodes),
    )
    witnesses = []
    for name, wdoc in doc.get("witnesses", {}).items():
        _require_keys(wdoc, {"series", "aspects", "description"}, {"series", "aspects"},
                      f"witness {name}")
        r, d = _ints(wdoc["series"], f"series of witness {name}")
        aspects = tuple(
            (comp, tuple(sorted((pt, _ints(seq, f"aspect of witness {name} at {comp}.{pt}"))
                                for pt, seq in pts.items())))
            for comp, pts in sorted(wdoc["aspects"].items())
        )
        witnesses.append(Witness(name, (r, d), aspects, wdoc.get("description", "")))
    return CurveDescription(curve, tuple(witnesses), doc.get("description", ""))


def curve_to_json(desc: CurveDescription) -> dict[str, Any]:
    comps = []
    for c in desc.curve.components:
        cd: dict[str, Any] = {"id": c.id, "kind": c.kind, "genus": c.genus, "points": list(c.points)}
        if c.torsion:
            cd["torsion"] = [{"points": list(t.points), "order": t.order} for t in c.torsion]
        if c.facts is not None:
            fd: dict[str, Any] = {
                "series_dims": [{"r": f.r, "d": f.d, "dim": f.dim} for f in c.facts.series_dims]
            }
            if c.facts.gonality is not None:
                fd["gonality"] = c.facts.gonality
            fd["points_general"] = c.facts.points_general
            cd["facts"] = fd
        comps.append(cd)
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "id": desc.curve.id,
        "genus": desc.curve.genus,
        "components": comps,
        "nodes": [[f"{a[0]}.{a[1]}", f"{b[0]}.{b[1]}"] for (a, b) in
                  (node.ends for node in desc.curve.nodes)],
    }
    if desc.description:
        doc["description"] = desc.description
    if desc.witnesses:
        doc["witnesses"] = {
            w.name: {
                "series": list(w.series),
                "aspects": {c: {p: list(s) for p, s in pts} for c, pts in w.aspects},
                **({"description": w.description} if w.description else {}),
            }
            for w in desc.witnesses
        }
    return doc


def load_curve_file(path: str | Path) -> CurveDescription:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return curve_from_json(doc)


def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> CurveDescription:
    """Load a bundled curve by its file name (without .json, "-" for "_") or by its id."""
    path = fixture_dir() / f"{name.replace('-', '_')}.json"
    if path.exists():
        return load_curve_file(path)
    bundled = {p.stem: load_curve_file(p) for p in sorted(fixture_dir().glob("*.json"))}
    for desc in bundled.values():
        if desc.curve.id == name:
            return desc
    available = [f"{stem} (id {desc.curve.id})" for stem, desc in bundled.items()]
    raise ValueError(f"no bundled curve {name!r}; available: {available}")
