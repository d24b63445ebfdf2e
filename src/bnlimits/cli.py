"""Command-line interface.

Thin wrappers over the library plus the genus-23 audit report.  Each
command returns its JSON payload, its text and its exit code, and `main`
prints one of the two: the payload with --json, which every command takes,
the text otherwise.  Both are deterministic, so repeated runs are
byte-identical.  Exit codes: 0 on success (and on matching --expect), 1 when
a verdict differs from the expectation, 2 on input errors, and 141 without a
message when the reader closes stdout early, as for a process ended by
SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import curvefile, limit_checker, modspace
from .curvefile import CurveDescription
from .curves import RULE_GENERAL_CUSP, RULE_GENERAL_POINTED, RULE_SCHUBERT, general_pointed_check
from .limit_checker import series_name
from .numerology import RamificationSeq, SeriesType, bn_divisor_pairs, bn_divisor_triples, rho

REGENERATION_NOTE = "asserted per Regeneration Theorem, not verified"
# the criterion `exist` names for each rule of general_pointed_check
EXIST_CRITERIA = {RULE_GENERAL_POINTED: "clamp", RULE_GENERAL_CUSP: "cusp-clamp",
                  RULE_SCHUBERT: "schubert-nonvanishing"}
EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for a process ended by SIGPIPE


def _json_default(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _parse_seq(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer sequence, got {text!r}") from exc


def _resolve_curve(ref: str) -> CurveDescription:
    path = Path(ref)
    if path.exists():
        return curvefile.load_curve_file(path)
    return curvefile.load_fixture(ref)


# ---------------------------------------------------------------------------
# simple numerology / divisor-class commands


def cmd_rho(args) -> tuple[dict, str, int]:
    value = rho(SeriesType(args.g, args.r, args.d))
    return {"g": args.g, "r": args.r, "d": args.d, "rho": value}, str(value), 0


def cmd_triples(args) -> tuple[dict, str, int]:
    triples = bn_divisor_triples(args.g)
    pairs = bn_divisor_pairs(args.g)
    payload = {
        "g": args.g,
        "triples": [list(t) for t in triples],
        "residual_pairs": [[list(a), list(b)] for a, b in pairs],
    }
    if not triples:
        return payload, f"no divisorial triples for genus {args.g} (g+1 has no admissible factorization)", 0
    lines = [f"(r={r}, s={s}, d={d})  rho={rho(SeriesType(args.g, r, d))}" for r, s, d in triples]
    lines += [f"residual pair: {a} <-> {b}" for a, b in pairs]
    return payload, "\n".join(lines), 0


def cmd_exist(args) -> tuple[dict, str, int]:
    t = SeriesType(args.g, args.r, args.d)
    rams = [RamificationSeq(_parse_seq(s), args.r, args.d) for s in args.ram or []]
    result = general_pointed_check(t, rams, extra_cusps=args.cusps)
    exists, criterion = result.passed, EXIST_CRITERIA[result.rule]
    payload = {
        "g": args.g, "r": args.r, "d": args.d,
        "ramification": [list(r.entries) for r in rams],
        "cusps": args.cusps, "exists": exists, "criterion": criterion,
    }
    return payload, f"exists: {'yes' if exists else 'no'} (criterion: {criterion})", 0


def cmd_schubert(args) -> tuple[dict, str, int]:
    from . import schubert  # on first use: the other commands compile it only if a check asks

    rect = schubert.rect_for(args.r, args.d)
    acc = schubert.identity_class(rect)
    for s in args.index or []:
        ram = RamificationSeq(_parse_seq(s), args.r, args.d)
        acc = schubert.lr_product(acc, schubert.schubert_class(schubert.index_to_partition(ram), rect))
    acc = schubert.lr_product(acc, schubert.cusp_class_power(args.cusp_power, rect))
    payload = {
        "rect": list(rect),
        "terms": {",".join(map(str, p)): c for p, c in sorted(acc.terms.items())},
        "nonzero": not acc.is_zero(),
    }
    text = "\n".join([f"class in G({args.r + 1},{args.d + 1}): {acc}",
                      f"nonzero: {'yes' if not acc.is_zero() else 'no'}"])
    return payload, text, 0


def cmd_class(args) -> tuple[dict, str, int]:
    if args.canonical:
        cls = modspace.canonical_class(args.g)
        label = "canonical class"
    else:
        triples = bn_divisor_triples(args.g)
        if not triples:
            raise ValueError(f"genus {args.g} has no divisorial triple")
        r, _, d = triples[0]
        cls = modspace.bn_class(args.g, r, d)
        label = "divisorial class (up to positive scale)"
    payload = {"g": args.g, "label": label, "lambda": cls.lam,
               "delta": list(cls.delta), "text": str(cls)}
    return payload, f"{label}: {cls}", 0


def cmd_decompose(args) -> tuple[dict, str, int]:
    triples = bn_divisor_triples(args.g)
    if args.r is not None and args.d is not None:
        r, d = args.r, args.d
    elif triples:
        r, _, d = triples[0]
    else:
        raise ValueError(f"genus {args.g} has no divisorial triple; pass --r and --d")
    dec = modspace.decompose_canonical(args.g, r, d)
    payload = {"g": args.g, "r": r, "d": d, "a": dec.a, "b": dec.b,
               "c": list(dec.c), "boundary_nonnegative": dec.boundary_nonnegative}
    text = "\n".join([
        f"K = a*BN + b*lambda + sum c_i delta_i  (genus {args.g}, via g^{r}_{d})",
        f"a = {dec.a}",
        f"b = {dec.b}",
        "c = " + ", ".join(f"c{i}={v}" for i, v in enumerate(dec.c)),
    ])
    return payload, text, 0


def cmd_slope(args) -> tuple[dict, str, int]:
    payload: dict[str, Any]
    if args.which == "bound":
        val = modspace.slope_bound(args.g)
        payload = {"g": args.g, "slope_bound": val}
        text = [f"6 + 12/(g+1) = {val}"]
    elif args.which == "bn":
        triples = bn_divisor_triples(args.g)
        if not triples:
            raise ValueError(f"genus {args.g} has no divisorial triple")
        r, _, d = triples[0]
        val = modspace.slope_of_class(modspace.bn_class(args.g, r, d))
        payload = {"g": args.g, "slope": val}
        text = [f"slope of the divisorial class: {val}"]
    elif args.which == "canonical":
        val = modspace.slope_of_class(modspace.canonical_class(args.g))
        payload = {"g": args.g, "slope": val}
        text = [f"slope of the canonical class: {val}"]
    elif args.which == "gonal":
        val = modspace.gonal_family_slope(args.g, args.k)
        payload = {"g": args.g, "k": args.k, "slope": val,
                   "exceeds_13_2": val > modspace.SLOPE_THRESHOLD}
        text = [f"gonal family slope (k={args.k}): {val}"
                + ("  (> 13/2)" if val > modspace.SLOPE_THRESHOLD else "  (<= 13/2)")]
    elif args.which == "plane-pencil":
        pen = modspace.plane_pencil_slope(args.degree)
        payload = {"degree": pen.dd, "f": pen.f, "b": pen.b, "lambda": pen.lam,
                   "delta": pen.delta, "slope": pen.slope, "exceeds_13_2": pen.exceeds_13_2}
        text = [f"degree {pen.dd}: f={pen.f} b={pen.b} lambda={pen.lam} delta={pen.delta} "
                f"slope={pen.slope} exceeds_13_2={'yes' if pen.exceeds_13_2 else 'no'}"]
    else:  # boundary-table
        rows = modspace.boundary_multiplicity_table()
        payload = {"rows": [
            {"i": row.i, "decomposition_coeff": row.decomposition_coeff,
             "multiplicity": row.multiplicity, "cited_bound": row.cited_bound,
             "coincide": row.coincide}
            for row in rows
        ]}
        text = [
            f"i={row.i}: decomposition {row.decomposition_coeff} -> multiplicity {row.multiplicity}, "
            f"cited bound {row.cited_bound if row.cited_bound is not None else '-'}"
            + ("  (coincide)" if row.coincide else "")
            for row in rows
        ]
    return payload, "\n".join(text), 0


# ---------------------------------------------------------------------------
# limit-series commands


def _check(desc: CurveDescription, r: int, d: int, witness: str | None, **refute_options):
    """Refute a limit g^r_d on the curve, or verify its witness of that name."""
    t = SeriesType(desc.curve.genus, r, d)
    if witness is None:
        return limit_checker.refute(desc.curve, t, **refute_options)
    found = desc.witness(witness)
    if found.series != (r, d):
        raise ValueError(
            f"witness {witness!r} is for {series_name(*found.series)}, not {series_name(r, d)}"
        )
    return limit_checker.verify_witness(desc.curve, t, found.aspects_dict())


def cmd_limit(args) -> tuple[dict, str, int]:
    desc = _resolve_curve(args.curve)
    if args.action == "verify" and not args.witness:
        raise ValueError("verify needs --witness NAME")
    report = _check(desc, args.r, args.d, args.witness if args.action == "verify" else None,
                    prune=not args.naive, survivor_cap=args.cap)
    text, code = report.render(), 0
    if args.expect is not None and args.expect != report.verdict:
        text, code = f"{text}\nexpected verdict {args.expect!r}, got {report.verdict!r}", 1
    return report.to_json(), text, code


def cmd_fixtures(args) -> tuple[dict, str, int]:
    names = sorted(p.stem for p in curvefile.fixture_dir().glob("*.json"))
    text = "\n".join([f"bundled curve descriptions in {curvefile.fixture_dir()}:"]
                     + [f"  {name}" for name in names])
    return {"directory": str(curvefile.fixture_dir()), "fixtures": names}, text, 0


# ---------------------------------------------------------------------------
# the genus-23 report


# The audit's limit-series computations, in report order: (bundled curve, r, d,
# witness to verify or None to refute, expected verdict or None when survivors
# are only a finding).
G23_CHECKS = (
    ("chain_9torsion", 3, 20, None, "refuted"),
    ("chain_9torsion", 2, 17, "g2_17", "confirmed"),
    ("chain_12torsion", 1, 12, "g1_12", "confirmed"),
    ("chain_12torsion", 2, 17, None, "refuted"),
    ("chain_12torsion", 3, 20, None, "refuted"),
    ("septic_star", 1, 12, None, "refuted"),
    ("septic_star", 2, 15, "g2_15", "consistent"),
    ("septic_star", 3, 20, "g3_20", "consistent"),
)
G23_TAIL_CHECKS = (
    ("chain_9torsion_elltail", 3, 20, None, "refuted"),
    ("chain_9torsion_elltail", 2, 17, "g2_17", "confirmed"),
)
# (curve, series it carries, series it lacks): the curve tells the two divisors apart
G23_DISTINCT = (
    ("chain-9torsion", (2, 17), (3, 20)),
    ("chain-12torsion", (1, 12), (2, 17)),
    ("chain-12torsion", (1, 12), (3, 20)),
)


def _report_g23(include_tail_variant: bool) -> tuple[dict, str, int]:
    g = 23
    mismatches: list[str] = []
    findings: list[str] = []

    def expect(label: str, ok: bool) -> None:
        if not ok:
            mismatches.append(label)

    # (i) triples and residual pairing
    triples = bn_divisor_triples(g)
    pairs = bn_divisor_pairs(g)
    expect("six divisorial triples",
           triples == [(1, 13, 12), (2, 9, 17), (3, 7, 20), (5, 5, 24), (7, 4, 27), (11, 3, 32)])
    expect("all triples have rho = -1",
           all(rho(SeriesType(g, r, d)) == -1 for r, _, d in triples))
    expect("residual pairing has three classes", len(pairs) == 3)

    # (ii) classes and the pinned decomposition
    bn_cls = modspace.bn_class(g, 1, 12)
    kan = modspace.canonical_class(g)
    dec = modspace.decompose_canonical(g, 1, 12)
    expect("decomposition a = 1/2", dec.a == Fraction(1, 2))
    expect("decomposition b = 0", dec.b == 0)
    expect("decomposition c1 = 8", dec.c[1] == 8)
    expect("decomposition c_i = (i(23-i)-4)/2",
           all(dec.c[i] == Fraction(i * (23 - i) - 4, 2) for i in range(2, 12)))
    expect("boundary part nonnegative", dec.boundary_nonnegative)

    # (iii) limit-series checks
    checks = G23_CHECKS + (G23_TAIL_CHECKS if include_tail_variant else ())
    descs = {name: curvefile.load_fixture(name) for name in dict.fromkeys(row[0] for row in checks)}
    refutes: dict = {}
    verifies: dict = {}
    tail_results: dict = {}
    for row in checks:
        name, r, d, witness, expected = row
        cid, series = descs[name].curve.id, series_name(r, d)
        rep = _check(descs[name], r, d, witness)
        (verifies if witness else refutes)[(cid, (r, d))] = rep
        if row in G23_TAIL_CHECKS:
            tail_results[f"{'verify' if witness else 'refute'}_g{r}_{d}"] = rep.verdict
        if expected is None:
            if rep.verdict != "refuted":
                findings.append(
                    f"{cid} {series}: {rep.survivor_count} candidates survive the necessary rules; "
                    "refutation is cited to the literature, survivors listed as findings"
                )
        elif witness is None:
            expect(f"{cid} has no limit {series}", rep.verdict == expected)
        else:
            expect(f"{cid} limit {series} witness {expected}", rep.verdict == expected)

    net = verifies[("chain-9torsion", (2, 17))]
    expect("chain-9torsion g^2_17 witness refined with additivity equality",
           net.refined and net.additivity.equality)
    star_pencil = refutes[("septic-star", (1, 12))]
    expect("septic-star g^1_12 refuted by the counting rule",
           any(k.startswith("factsheet-ramification-count") for k, _ in star_pencil.rule_hits))
    for (r, d), aspect_rho, total in (((2, 15), -15, -7), ((3, 20), -9, -1)):
        ver = verifies[("septic-star", (r, d))]
        expect(f"septic-star {series_name(r, d)} additivity {aspect_rho} + 8 = {total} with equality",
               dict(ver.aspect_rhos)["G"] == aspect_rho and ver.additivity.equality
               and ver.additivity.lhs == total)

    # (iv) the membership audit
    distinctness = [
        {"pair": f"{series_name(*has)} vs {series_name(*lacks)}", "curve": cid,
         "reason": f"carries a limit {series_name(*has)} (confirmed) "
                   f"but no limit {series_name(*lacks)} (refuted)",
         "holds": (verifies[(cid, has)].verdict == "confirmed"
                   and refutes[(cid, lacks)].verdict == "refuted")}
        for cid, has, lacks in G23_DISTINCT
    ]
    for claim in distinctness:
        expect(f"distinctness {claim['pair']}", claim["holds"])
    beta_ok = (star_pencil.verdict == "refuted"
               and all(verifies[("septic-star", s)].verdict in ("confirmed", "consistent")
                       for s in ((2, 15), (3, 20))))
    expect("septic-star lies in exactly two of the three divisors", beta_ok)

    audit_pass = not mismatches

    # (v) slopes
    sb = modspace.slope_bound(g)
    slope_rows = []
    for dd in range(9, 14):
        try:
            pen = modspace.plane_pencil_slope(dd)
            slope_rows.append({"degree": dd, "feasible": True, "slope": pen.slope,
                               "exceeds_13_2": pen.exceeds_13_2})
        except ValueError:
            slope_rows.append({"degree": dd, "feasible": False})
    gonal = {k: modspace.gonal_family_slope(g, k) for k in (2, 3, 4)}
    boundary = modspace.boundary_multiplicity_table()

    payload = {
        "genus": g,
        "triples": [list(t) for t in triples],
        "residual_pairs": [[list(a), list(b)] for a, b in pairs],
        "classes": {
            "divisorial": str(bn_cls),
            "divisorial_note": "normalized up to a positive scale",
            "canonical": str(kan),
            "decomposition": {"a": dec.a, "b": dec.b, "c": list(dec.c)},
        },
        "limit_checks": {
            f"{cid} {series_name(*srd)}": rep.to_json() for (cid, srd), rep in refutes.items()
        },
        "witness_checks": {
            f"{cid} {series_name(*srd)}": rep.to_json() for (cid, srd), rep in verifies.items()
        },
        "tail_variant": tail_results,
        "membership_audit": {
            "distinctness": distinctness,
            "two_divisor_curve": {
                "curve": "septic-star",
                "in": ["g^2_17 (via the g^2_15 witness plus two base points)", "g^3_20"],
                "not_in": ["g^1_12"],
                "holds": beta_ok,
            },
            "equality_chain": [
                {
                    "statement": "supp(M^1_12) & supp(M^2_17) = supp(M^2_17) & supp(M^3_20)",
                    "contradicted": beta_ok,
                    "witness": "septic-star lies in the right-hand side but not in supp(M^1_12)",
                },
                {
                    "statement": "supp(M^2_17) & supp(M^3_20) = supp(M^3_20) & supp(M^1_12)",
                    "contradicted": beta_ok,
                    "witness": "septic-star lies in the left-hand side but not in supp(M^1_12)",
                },
            ],
            "conclusion": (
                "the three pairwise intersections cannot all coincide: septic-star lies in "
                "supp(M^2_17) and supp(M^3_20) but not in supp(M^1_12)"
            ),
        },
        "slopes": {
            "bound": sb,
            "divisorial_class": modspace.slope_of_class(bn_cls),
            "canonical_class": modspace.slope_of_class(kan),
            "gonal_families": gonal,
            "plane_pencils": slope_rows,
            "boundary_multiplicities": [
                {"i": row.i, "multiplicity": row.multiplicity,
                 "cited_bound": row.cited_bound, "coincide": row.coincide}
                for row in boundary
            ],
        },
        "findings": findings,
        "mismatches": mismatches,
        "pass": audit_pass,
    }

    return payload, _render_report(payload), 0 if audit_pass else 1


def _render_report(payload: dict) -> str:
    lines = ["=== genus-23 audit ===", "", "[1] divisorial triples (rho = -1)"]
    for t in payload["triples"]:
        lines.append(f"  (r={t[0]}, s={t[1]}, d={t[2]})")
    for a, b in payload["residual_pairs"]:
        lines.append(f"  residual pair: {tuple(a)} <-> {tuple(b)}")
    lines += [
        "",
        "[2] divisor classes",
        f"  divisorial class: {payload['classes']['divisorial']}  ({payload['classes']['divisorial_note']})",
        f"  canonical class:  {payload['classes']['canonical']}",
    ]
    dec = payload["classes"]["decomposition"]
    lines.append(f"  canonical over divisorial (delta_0 pinned): a = {dec['a']}, b = {dec['b']}")
    lines.append("  boundary part: " + ", ".join(f"c{i}={v}" for i, v in enumerate(dec["c"])))
    lines += ["", "[3] limit-series checks"]
    for rep in payload["limit_checks"].values():
        lines.append(f"  refute {series_name(**rep['series'])} on {rep['curve']}: {rep['verdict']}"
                     f" (candidates {rep['candidates_examined']}, survivors {rep['survivor_count']})")
    for rep in payload["witness_checks"].values():
        refined = ", refined" if rep["refined"] else ""
        eq = ", additivity equality" if rep["additivity"]["equality"] else ""
        lines.append(f"  verify {series_name(**rep['series'])} on {rep['curve']}: "
                     f"{rep['verdict']}{refined}{eq}")
        lines.append(f"    smoothability: {REGENERATION_NOTE}")
    lines += ["", "[4] membership audit"]
    for row in payload["membership_audit"]["distinctness"]:
        status = "OK" if row["holds"] else "FAILED"
        lines.append(f"  {status}: {row['pair']} distinct -- {row['curve']} {row['reason']}")
    beta = payload["membership_audit"]["two_divisor_curve"]
    status = "OK" if beta["holds"] else "FAILED"
    lines.append(f"  {status}: {beta['curve']} lies in {beta['in'][0]} and {beta['in'][1]}, "
                 f"but not in {beta['not_in'][0]}")
    lines.append(f"    (memberships through witnesses are {REGENERATION_NOTE})")
    for stmt in payload["membership_audit"]["equality_chain"]:
        tag = "CONTRADICTED" if stmt["contradicted"] else "NOT CONTRADICTED"
        lines.append(f"  {tag}: {stmt['statement']}")
        lines.append(f"    ({stmt['witness']})")
    lines.append(f"  conclusion: {payload['membership_audit']['conclusion']}")
    lines += ["", "[5] slopes"]
    s = payload["slopes"]
    lines.append(f"  slope bound 6+12/(g+1) = {s['bound']}")
    lines.append(f"  divisorial class slope = {s['divisorial_class']}, "
                 f"canonical class slope = {s['canonical_class']}")
    for k in (2, 3, 4):
        lines.append(f"  gonal family k={k}: slope {s['gonal_families'][k]} (> 13/2)")
    for row in s["plane_pencils"]:
        if row["feasible"]:
            lines.append(f"  plane pencil degree {row['degree']}: slope {row['slope']}, "
                         f"exceeds 13/2: {'yes' if row['exceeds_13_2'] else 'no'}")
        else:
            lines.append(f"  plane pencil degree {row['degree']}: infeasible")
    for row in s["boundary_multiplicities"]:
        bound = row["cited_bound"] if row["cited_bound"] is not None else "-"
        tag = "  (coincide)" if row["coincide"] else ""
        lines.append(f"  boundary i={row['i']}: multiplicity {row['multiplicity']}, "
                     f"cited bound {bound}{tag}")
    if payload["findings"]:
        lines += ["", "findings:"] + [f"  - {f}" for f in payload["findings"]]
    if payload["mismatches"]:
        lines += ["", "mismatches:"] + [f"  - {m}" for m in payload["mismatches"]]
    lines += [
        "",
        f"kappa(M_23) >= 2 audit: {'PASS' if payload['pass'] else 'FAIL'}",
        "(logical consequence banner over the mechanically checked inputs above; "
        f"witness smoothability {REGENERATION_NOTE})",
    ]
    return "\n".join(lines)


def cmd_report(args) -> tuple[dict, str, int]:
    if args.target != "g23":
        raise ValueError(f"unknown report target {args.target!r}; only 'g23' is available")
    return _report_g23(args.include_tail_variant)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnlimits",
        description="Exact Brill-Noether and limit-linear-series combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="Brill-Noether number g - (r+1)(g-d+r)")
    p.add_argument("g", type=int)
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("triples", help="divisorial (r, s, d) triples of a genus")
    p.add_argument("g", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("exist", help="existence of a series with prescribed ramification "
                                     "on a general pointed curve")
    p.add_argument("g", type=int)
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--ram", action="append", metavar="A0,A1,...",
                   help="ramification sequence; repeatable, one per marked point")
    p.add_argument("--cusps", type=int, default=0, help="number of additional cusped points")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exist)

    p = sub.add_parser("schubert", help="product of Schubert classes in G(r+1, d+1)")
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--index", action="append", metavar="A0,A1,...",
                   help="ramification index of a factor; repeatable")
    p.add_argument("--cusp-power", type=int, default=0, dest="cusp_power")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("class", help="divisorial or canonical class on moduli of curves")
    p.add_argument("g", type=int)
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("decompose", help="canonical class over the divisorial class")
    p.add_argument("g", type=int)
    p.add_argument("r", type=int, nargs="?", default=None)
    p.add_argument("d", type=int, nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("slope", help="slope computations")
    slope_sub = p.add_subparsers(dest="which", required=True)
    q = slope_sub.add_parser("bound")
    q.add_argument("g", type=int)
    q = slope_sub.add_parser("bn")
    q.add_argument("g", type=int)
    q = slope_sub.add_parser("canonical")
    q.add_argument("g", type=int)
    q = slope_sub.add_parser("gonal")
    q.add_argument("g", type=int)
    q.add_argument("k", type=int)
    q = slope_sub.add_parser("plane-pencil")
    q.add_argument("degree", type=int)
    slope_sub.add_parser("boundary-table")
    for q in slope_sub.choices.values():
        q.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("limit", help="refute or verify limit series on a curve file")
    p.add_argument("action", choices=("refute", "verify"))
    p.add_argument("curve", help="path to a curve JSON file or a bundled fixture name")
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--witness", help="witness name (verify)")
    p.add_argument("--expect", help="expected verdict; exit 1 on mismatch")
    p.add_argument("--naive", action="store_true", help="disable minimal-complement pruning")
    p.add_argument("--cap", type=int, default=100, help="survivor listing cap")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("fixtures", help="list bundled curve descriptions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("report", help="full verification report")
    p.add_argument("target", help="only 'g23'")
    p.add_argument("--include-tail-variant", action="store_true", dest="include_tail_variant",
                   help="also run the boundary chain with the elliptic tail")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, code = args.func(args)
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) if args.json else text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`bnlimits ... | head`): stop quietly,
        # and keep the interpreter's final flush from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
