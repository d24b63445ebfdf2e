"""Every loader error, pinned: a fixed list of mutations of every curve file.

Each bundled fixture and each tests/curves/*.json is read as raw JSON and
mutated one way at a time: every field (and the first and last item of every
array) set to each JSON type it does not have, every key dropped, one unknown
key added per object, nodes of the wrong length, malformed point references,
duplicate ids and points, and broken trees.  A rejected mutation records its
exception type and message; an accepted one records where the curve_to_json
round trip of what it loaded differs from that of the file as read, which is
recorded in full.  The lines are diffed against
tests/golden/curve_file_mutations.txt, written by

    PYTHONPATH=src python tests/test_curve_file_mutations.py > tests/golden/curve_file_mutations.txt
"""

from __future__ import annotations

import json
import operator
import sys
from pathlib import Path
from types import MappingProxyType

from bnlimits import curvefile

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "curve_file_mutations.txt"
# one value of each JSON type: null, boolean, integer, fraction, string, array, object
SAMPLES = (None, True, 7, 2.5, "x", [], {})


def _json_type(value) -> str:
    return "fraction" if type(value) is float else type(value).__name__


def _name(path: tuple) -> str:
    return "".join(f"[{p}]" if type(p) is int else f".{p}" for p in path) or "."


def _fields(value, path=()):
    """Every (path, value) of a document, arrays by their first and last items."""
    yield path, value
    if type(value) is dict:
        for key, item in value.items():
            yield from _fields(item, (*path, key))
    elif type(value) is list:
        for i in sorted({0, len(value) - 1} if value else ()):
            yield from _fields(value[i], (*path, i))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations(doc: dict):
    """(description, edit) pairs; each edit changes a fresh copy of doc in place."""

    def put(path, value):
        def edit(d):
            _at(d, path[:-1])[path[-1]] = value
        return edit

    for path, value in _fields(doc):
        if path:
            for sample in SAMPLES:
                if _json_type(sample) != _json_type(value):
                    yield f"set {_name(path)} to {json.dumps(sample)}", put(path, sample)
            if type(_at(doc, path[:-1])) is dict:
                yield f"drop {_name(path)}", lambda d, p=path: _at(d, p[:-1]).pop(p[-1])
        if type(value) is dict:
            yield f"add {_name((*path, 'mystery'))}", put((*path, "mystery"), 1)
            if value:
                yield f"empty {_name(path)}", lambda d, p=path: _at(d, p).clear()
    yield "add .mystery and .another", lambda d: d.update(mystery=1, another=2)

    comps, nodes = doc.get("components", []), doc.get("nodes", [])
    if nodes:
        node, (comp, point) = nodes[0], nodes[0][0].split(".")
        for label, value in (("1", node[:1]), ("3", [*node, node[0]]), ("0", [])):
            yield f"node of length {label}", put(("nodes", 0), value)
        for ref in (comp, f"{comp}.{point}.x", f".{point}", f"{comp}.", f"nosuch.{point}",
                    f"{comp}.nosuch", node[1].split(".")[0] + f".{point}", 5):
            yield f"point reference {json.dumps(ref)}", put(("nodes", 0, 0), ref)
        yield "node joining a point to itself", put(("nodes", 0, 1), node[0])
        if len(nodes) > 1:
            yield "point in two nodes", put(("nodes", 1, 0), node[0])
        yield "drop the last node", lambda d: d["nodes"].pop()
        yield "extra node", lambda d: d["nodes"].append(nodes[0])
    isolated = {"id": "Z", "kind": "general", "genus": 0, "points": ["z"]}
    yield "isolated component", lambda d: d["components"].append(dict(isolated))
    if nodes:
        def cycle(d):
            # a second node between the first node's components, and an isolated one: a
            # cycle and a lone component, with one node fewer than components
            (a, _), (b, _) = (end.split(".") for end in d["nodes"][0])
            for c in d["components"]:
                if c["id"] in (a, b):
                    c["points"].append("zz")
            d["components"].append(dict(isolated))
            d["nodes"].append([f"{a}.zz", f"{b}.zz"])
        yield "disconnected", cycle
    if len(comps) > 1:
        yield "duplicate component id", put(("components", 1, "id"), comps[0]["id"])
    for k in sorted({0, len(comps) - 1} if comps else ()):
        points = comps[k]["points"]
        yield f"duplicate point on components[{k}]", put(("components", k, "points"),
                                                          [*points, points[0]])
    for k in [k for k, c in enumerate(comps) if c.get("torsion")][:1]:  # the first with torsion
        at, p = ("components", k, "torsion", 0), comps[k]["torsion"][0]["points"][0]
        yield f"duplicate torsion point on components[{k}]", put((*at, "points"), [p, p])
        yield f"unmarked torsion point on components[{k}]", put((*at, "points"), [p, "nosuch"])
        yield f"torsion order 1 on components[{k}]", put((*at, "order"), 1)
        yield f"torsion on a general components[{k}]", put(("components", k, "kind"), "general")
    for label, path, value in (
        ("schema 2", ("schema",), "compact-curve/2"),
        ("genus one more", ("genus",), doc.get("genus", 0) + 1 if type(doc.get("genus")) is int else 0),
        ("negative component genus", ("components", 0, "genus"), -1),
        ("unknown kind", ("components", 0, "kind"), "mystery"),
        ("elliptic kind", ("components", 0, "kind"), "elliptic"),
        ("factsheet kind", ("components", 0, "kind"), "factsheet"),
        ("general kind", ("components", 0, "kind"), "general"),
        ("witness series of length 1", ("witnesses",), {"w": {"series": [1], "aspects": {}}}),
    ):
        if comps or path[0] != "components":
            yield label, put(path, value)


def _outcome(doc) -> str | dict:
    """The round trip of what doc loads to, or the error it raises as a line."""
    try:
        desc = curvefile.curve_from_json(doc)
    except Exception as exc:  # noqa: BLE001 - the type is part of the record
        return f"{type(exc).__name__}: {exc}"
    return curvefile.curve_to_json(desc)


def _delta(before, after, path=()):
    """The paths where after differs from before: -path if dropped, else path=value."""
    if type(before) is dict and type(after) is dict:
        for key in sorted({*before, *after}):
            if key not in after:
                yield f"-{_name((*path, key))}"
            else:
                yield from _delta(before.get(key), after[key], (*path, key))
    elif type(before) is list and type(after) is list and len(before) == len(after):
        for i, (b, a) in enumerate(zip(before, after)):
            yield from _delta(b, a, (*path, i))
    elif before != after:
        yield f"{_name(path)}={json.dumps(after, sort_keys=True)}"


def curve_files() -> list[Path]:
    return sorted(curvefile.fixture_dir().glob("*.json")) + sorted((HERE / "curves").glob("*.json"))


def mutation_lines() -> list[str]:
    lines = []
    for path in curve_files():
        text = path.read_text(encoding="utf-8")
        read = _outcome(json.loads(text))
        lines.append(f"== {path.name}, as read: {json.dumps(read, sort_keys=True)}")
        for label, edit in _mutations(json.loads(text)):
            doc = json.loads(text)
            edit(doc)
            out = _outcome(doc)
            if type(out) is dict:
                out = "ok " + (" ".join(_delta(read, out)) or "(the same)")
            lines.append(f"{label}: {out}")
    return lines


def test_mutations_match_golden():
    assert "\n".join(mutation_lines()) + "\n" == GOLDEN.read_text(encoding="utf-8")


def _frozen(value):
    if type(value) is dict:
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    return tuple(map(_frozen, value)) if type(value) is list else value


def test_read_only_mappings_and_tuples_load():
    # a document of mappingproxy objects and tuples loads as the plain JSON does
    for path in curve_files():
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert _outcome(_frozen(doc)) == _outcome(doc), path.name
        assert type(_outcome(doc)) is dict or path.name.startswith("malformed")



def test_frozen_mutations_report_as_the_plain_ones():
    # every mutation, read as mappingproxy objects and tuples, loads or fails as the decoded
    # JSON does, message for message: a wrong value is shown as JSON, other mappings as
    # objects and other sequences as arrays
    compared = 0
    for path in curve_files():
        text = path.read_text(encoding="utf-8")
        for label, edit in _mutations(json.loads(text)):
            doc = json.loads(text)
            edit(doc)
            plain = _outcome(doc)
            frozen = _outcome(_frozen(doc))
            if type(plain) is str and "must be" in plain:
                compared += 1
            assert frozen == plain, (path.name, label)
    assert compared > 1000
    doc = {"schema": "compact-curve/1", "id": "x", "genus": 0, "components": {}, "nodes": []}
    assert _outcome(_frozen(doc)) == "ValueError: components must be an array, got {}"

def _names(desc) -> list[str]:
    """The component ids, marked points and node ends of a loaded curve."""
    curve = desc.curve
    return [*(n for c in curve.components for n in (c.id, *c.points)),
            *(n for node in curve.nodes for end in node.ends for n in end)]


def test_loaded_names_are_interned():
    # ids, points and node ends are interned, read as plain JSON or as mappingproxy objects
    # and tuples, mutated or not, so two loads of one file hold the same string objects
    checked = 0
    for path in curve_files():
        text = path.read_text(encoding="utf-8")
        for label, edit in [("as read", lambda d: None), *_mutations(json.loads(text))]:
            doc = json.loads(text)
            edit(doc)
            for form in (doc, _frozen(doc)):
                try:
                    desc = curvefile.curve_from_json(form)
                except ValueError:
                    continue
                checked += 1
                for name in _names(desc):
                    assert name is sys.intern(name), (path.name, label, name)
        if not path.name.startswith("malformed"):
            first, second = (_names(curvefile.load_curve_file(path)) for _ in range(2))
            assert all(map(operator.is_, first, second)) and len(first) == len(second), path.name
    assert checked > 100


if __name__ == "__main__":
    print("\n".join(mutation_lines()))
