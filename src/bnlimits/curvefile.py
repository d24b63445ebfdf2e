"""Versioned JSON format for compact-type curve descriptions.

A curve file carries the marked components, the nodes of the dual tree, and
optionally named witness aspect assignments keyed by the series they are
meant for.  Parsing is strict: every object and array must have its
documented JSON shape, unknown keys are rejected everywhere, every integer
field must be a JSON integer (not a boolean, float or string), every id,
kind, point name and description must be a JSON string, points_general
must be a JSON boolean, and the decoded curve re-validates all structural
invariants.  curve_from_json checks each value where it reads it, in one
pass over each object: exact type tests (a decoded JSON object is a dict;
other mappings take the slower abstract test), key sets held by the module,
and messages formatted only when a check fails.  Component ids, point names
and node ends are interned, so the reports of many curves share them.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from sys import intern
from typing import Any, NamedTuple

from .curves import CompactCurve, Component, FactSheet, Node, SeriesDimFact, TorsionPair

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
        raise ValueError(f"no witness named {name!r}; have {[w.name for w in self.witnesses]}")


# the keys each kind of object allows, and those it requires
_CURVE = frozenset({"schema", "id", "description", "genus", "components", "nodes", "witnesses"})
_CURVE_NEEDS = frozenset({"schema", "id", "genus", "components", "nodes"})
_COMPONENT = frozenset({"id", "kind", "genus", "points", "torsion", "facts", "description"})
_COMPONENT_NEEDS = frozenset({"id", "kind", "genus", "points"})
_TORSION, _DIM, _NONE = frozenset({"points", "order"}), frozenset({"r", "d", "dim"}), frozenset()
_FACTS = frozenset({"series_dims", "gonality", "points_general"})
_WITNESS, _WITNESS_NEEDS = frozenset({"series", "aspects", "description"}), frozenset({"series", "aspects"})
_SHAPES = {int: "an integer", str: "a string", bool: "true or false"}


def _shown(value: Any) -> str:
    """value as JSON, other mappings as objects and other sequences as arrays."""
    return json.dumps(value, default=lambda v: dict(v) if isinstance(v, Mapping) else list(v))


def _bad(value: Any, where: str, shape: str) -> ValueError:
    """A wrong value's message, the value shown as JSON."""
    return ValueError(f"{where} must be {shape}, got {_shown(value)}")


def _is(value: Any, kind: type, where: str, *args: Any) -> Any:
    """value, if its type is exactly kind (so a bool is no integer); where.format(*args) names it."""
    if type(value) is not kind:
        raise _bad(value, where.format(*args), _SHAPES[kind])
    return value


def _array(value: Any, length: int | None, where: str, *args: Any) -> list | tuple:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise _bad(value, where.format(*args), "an array" if length is None else f"an array of {length}")
    return value


def _ints(values: Any, length: int | None, where: str, *args: Any) -> tuple[int, ...]:
    return tuple(_is(x, int, where, *args) for x in _array(values, length, where, *args))


def _object(value: Any, allowed: frozenset[str] | None, required: frozenset[str], where: str,
            *args: Any) -> Mapping[str, Any]:
    """A JSON object with keys from allowed (any names when None), the required ones included."""
    if type(value) is not dict and not isinstance(value, Mapping):
        raise _bad(value, where.format(*args), "an object")
    keys = value.keys()
    if allowed is not None and not keys <= allowed:
        raise ValueError(f"unknown keys {sorted(set(keys) - allowed)} in {where.format(*args)}")
    if not keys >= required:
        raise ValueError(f"missing keys {sorted(required - set(keys))} in {where.format(*args)}")
    return value


def _torsion_pair(item: Any) -> TorsionPair:
    _object(item, _TORSION, _TORSION, "torsion entry")
    for p in _array(item["points"], 2, "points of torsion entry"):
        _is(p, str, "point of torsion entry")
    return TorsionPair(item["points"], _is(item["order"], int, "torsion order"))


def _facts(doc: Any) -> FactSheet:
    doc = _object(doc, _FACTS, _NONE, "facts")
    dims = []
    for item in _array(doc.get("series_dims", ()), None, "series_dims"):
        _object(item, _DIM, _DIM, "series dimension fact")
        dims.append(SeriesDimFact(*(_is(item[k], int, "{} of series dimension fact", k)
                                    for k in ("r", "d", "dim"))))
    gonality = None if doc.get("gonality") is None else _is(doc["gonality"], int, "gonality")
    return FactSheet(tuple(dims), gonality, _is(doc.get("points_general", True), bool, "points_general"))


def _component(doc: Any) -> Component:
    cid = doc.get("id") if type(doc) is dict or isinstance(doc, Mapping) else None
    where = f"component {cid}" if type(cid) is str else "component"  # how messages name it
    _object(doc, _COMPONENT, _COMPONENT_NEEDS, "{}", where)
    torsion = (tuple(map(_torsion_pair, _array(doc["torsion"], None, "torsion of {}", where)))
               if "torsion" in doc else ())
    facts = _facts(doc["facts"]) if "facts" in doc else None
    cid = intern(_is(doc["id"], str, "component id"))
    genus = _is(doc["genus"], int, "genus of component {}", cid)
    kind = _is(doc["kind"], str, "kind of component {}", cid)
    points = _array(doc["points"], None, "points of component {}", cid)
    try:  # sys.intern takes exact strings only, as _is does
        points = tuple(map(intern, points))
    except TypeError:
        for p in points:
            _is(p, str, "point of component {}", cid)
    return Component(cid, genus, kind, points, torsion, facts)


def _node(pair: Any) -> Node:
    ends = []
    for ref in _array(pair, 2, "node"):
        if type(ref) is not str or ref.count(".") != 1:
            raise ValueError(f"point reference {_shown(ref)} must look like component.point")
        comp_id, _, point = ref.partition(".")
        ends.append((intern(comp_id), intern(point)))
    return Node(ends)


def _witness(name: str, doc: Any) -> Witness:
    _object(doc, _WITNESS, _WITNESS_NEEDS, "witness {}", name)
    series = _ints(doc["series"], 2, "series of witness {}", name)
    aspects = []
    for comp, pts in sorted(_object(doc["aspects"], None, _NONE, "aspects of witness {}", name).items()):
        pts = _object(pts, None, _NONE, "aspects of witness {} at {}", name, comp)
        aspects.append((comp, tuple(sorted(
            (pt, _ints(seq, None, "aspect of witness {} at {}.{}", name, comp, pt))
            for pt, seq in pts.items()))))
    about = _is(doc.get("description", ""), str, "description of witness {}", name)
    return Witness(name, series, tuple(aspects), about)


def curve_from_json(doc: Any) -> CurveDescription:
    """Decode and check a curve document; the checks run in a fixed order, and the
    first that fails raises ValueError."""
    _object(doc, _CURVE, _CURVE_NEEDS, "curve document")
    if doc["schema"] != SCHEMA:
        raise ValueError(f"unsupported schema {_shown(doc['schema'])}, expected {_shown(SCHEMA)}")
    comps = tuple(map(_component, _array(doc["components"], None, "components")))
    nodes = tuple(map(_node, _array(doc["nodes"], None, "nodes")))
    curve = CompactCurve(_is(doc["id"], str, "curve id"), _is(doc["genus"], int, "curve genus"),
                         comps, nodes)
    witnesses = _object(doc.get("witnesses", {}), None, _NONE, "witnesses").items()
    witnesses = tuple(_witness(name, w) for name, w in witnesses)
    return CurveDescription(curve, witnesses, _is(doc.get("description", ""), str, "curve description"))


def curve_to_json(desc: CurveDescription) -> dict[str, Any]:
    comps = []
    for c in desc.curve.components:
        cd: dict[str, Any] = {"id": c.id, "kind": c.kind, "genus": c.genus, "points": list(c.points)}
        if c.torsion:
            cd["torsion"] = [{"points": list(t.points), "order": t.order} for t in c.torsion]
        if c.facts is not None:
            fd: dict[str, Any] = {"series_dims": [f._asdict() for f in c.facts.series_dims]}
            if c.facts.gonality is not None:
                fd["gonality"] = c.facts.gonality
            fd["points_general"] = c.facts.points_general
            cd["facts"] = fd
        comps.append(cd)
    doc: dict[str, Any] = {
        "schema": SCHEMA, "id": desc.curve.id, "genus": desc.curve.genus, "components": comps,
        "nodes": [[".".join(a), ".".join(b)] for a, b in (node.ends for node in desc.curve.nodes)],
    }
    if desc.description:
        doc["description"] = desc.description
    if desc.witnesses:
        doc["witnesses"] = {w.name: {
            "series": list(w.series),
            "aspects": {c: {p: list(s) for p, s in pts} for c, pts in w.aspects},
            **({"description": w.description} if w.description else {}),
        } for w in desc.witnesses}
    return doc


def load_curve_file(path: str | Path) -> CurveDescription:
    with open(path, "rb", buffering=0) as handle:  # one read, cheaper than a text stream
        text = handle.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # newlines as in text mode
    try:
        doc = json.loads(text)
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
