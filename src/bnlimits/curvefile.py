"""Versioned JSON format for compact-type curve descriptions.

A curve file carries the marked components, the nodes of the dual tree, and
optionally named witness aspect assignments keyed by the series they are
meant for.  Parsing is strict: every object and array must have its
documented JSON shape, unknown keys are rejected everywhere, every integer
field must be a JSON integer (not a boolean, float or string), every id,
kind, point name and description must be a JSON string, points_general
must be a JSON boolean, and the decoded curve re-validates all structural
invariants.
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


def _object(value: Any, where: str, allowed: set[str] | None = None,
            required: frozenset[str] | set[str] = frozenset()) -> Mapping[str, Any]:
    """A JSON object with keys from allowed (any names when None), the required ones included."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{where} must be an object, got {json.dumps(value)}")
    unknown = set(value) - allowed if allowed is not None else set()
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(value)
    if missing:
        raise ValueError(f"missing keys {sorted(missing)} in {where}")
    return value


def _array(value: Any, where: str, length: int | None = None) -> list | tuple:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        shape = "an array" if length is None else f"an array of {length}"
        raise ValueError(f"{where} must be {shape}, got {json.dumps(value)}")
    return value


def _int(value: Any, where: str) -> int:
    # bool is a subclass of int, so test the exact type
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {json.dumps(value)}")
    return value


def _str(value: Any, where: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{where} must be a string, got {json.dumps(value)}")
    return value


def _ints(values: Any, where: str, length: int | None = None) -> tuple[int, ...]:
    return tuple(_int(x, where) for x in _array(values, where, length))


def _parse_point_ref(ref: Any) -> tuple[str, str]:
    if type(ref) is not str or ref.count(".") != 1:
        raise ValueError(f"point reference {ref!r} must look like component.point")
    comp, pt = ref.split(".")
    return comp, pt


def _parse_component(doc: Any) -> Component:
    where = "component"
    if isinstance(doc, Mapping) and type(doc.get("id")) is str:
        where = f"component {doc['id']}"
    _object(doc, where, {"id", "kind", "genus", "points", "torsion", "facts", "description"},
            {"id", "kind", "genus", "points"})
    torsion = []
    for item in _array(doc.get("torsion", []), f"torsion of {where}"):
        _object(item, "torsion entry", {"points", "order"}, {"points", "order"})
        p, q = (_str(x, "point of torsion entry")
                for x in _array(item["points"], "points of torsion entry", 2))
        torsion.append(TorsionPair((p, q), _int(item["order"], "torsion order")))
    facts = None
    if "facts" in doc:
        fdoc = _object(doc["facts"], "facts", {"series_dims", "gonality", "points_general"})
        dims = []
        for item in _array(fdoc.get("series_dims", []), "series_dims"):
            _object(item, "series dimension fact", {"r", "d", "dim"}, {"r", "d", "dim"})
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
        id=_str(doc["id"], "component id"),
        genus=_int(doc["genus"], f"genus of {where}"),
        kind=_str(doc["kind"], f"kind of {where}"),
        points=tuple(_str(p, f"point of {where}")
                     for p in _array(doc["points"], f"points of {where}")),
        torsion=tuple(torsion),
        facts=facts,
    )


def curve_from_json(doc: Any) -> CurveDescription:
    _object(doc, "curve document",
            {"schema", "id", "description", "genus", "components", "nodes", "witnesses"},
            {"schema", "id", "genus", "components", "nodes"})
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported schema {doc['schema']!r}, expected {SCHEMA!r}")
    components = tuple(_parse_component(c) for c in _array(doc["components"], "components"))
    nodes = []
    for pair in _array(doc["nodes"], "nodes"):
        ends = _array(pair, "node", 2)
        nodes.append(Node((_parse_point_ref(ends[0]), _parse_point_ref(ends[1]))))
    curve = CompactCurve(
        id=_str(doc["id"], "curve id"),
        genus=_int(doc["genus"], "curve genus"),
        components=components,
        nodes=tuple(nodes),
    )
    witnesses = []
    for name, wdoc in _object(doc.get("witnesses", {}), "witnesses").items():
        _object(wdoc, f"witness {name}", {"series", "aspects", "description"},
                {"series", "aspects"})
        r, d = _ints(wdoc["series"], f"series of witness {name}", 2)
        aspects = []
        for comp, pts in sorted(_object(wdoc["aspects"], f"aspects of witness {name}").items()):
            pts = _object(pts, f"aspects of witness {name} at {comp}")
            aspects.append((comp, tuple(sorted(
                (pt, _ints(seq, f"aspect of witness {name} at {comp}.{pt}"))
                for pt, seq in pts.items()))))
        about = _str(wdoc.get("description", ""), f"description of witness {name}")
        witnesses.append(Witness(name, (r, d), tuple(aspects), about))
    about = _str(doc.get("description", ""), "curve description")
    return CurveDescription(curve, tuple(witnesses), about)


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
        except RecursionError as exc:
            raise ValueError(f"{path} is nested too deeply to be a curve file") from exc
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
