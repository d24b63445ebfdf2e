"""Command-line interface.

Thin wrappers over the library plus the genus-23 audit report.  Each
command returns its exit code and two functions, one that builds its JSON
payload and one that builds its text, and `main` builds and prints one of
the two: the payload with --json, which every command takes, the text
otherwise.  Both are deterministic, so repeated runs are byte-identical.
Exit codes: 0 on success (and on matching --expect), 1 when a verdict
differs from the expectation, 2 on input errors, and 141 without a message
when the reader closes stdout early, as for a process ended by SIGPIPE.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import curvefile, limit_checker, modspace
from .curvefile import CurveDescription
from .curves import RULE_GENERAL_CUSP, RULE_GENERAL_POINTED, RULE_SCHUBERT, general_pointed_check
from .limit_checker import RefutationReport, series_name
from .numerology import MAX_GENUS, RamificationSeq, SeriesType, bn_divisor_pairs, bn_divisor_triples, rho

REGENERATION_NOTE = "asserted per Regeneration Theorem, not verified"
# the criterion `exist` names for each rule of general_pointed_check
EXIST_CRITERIA = {RULE_GENERAL_POINTED: "clamp", RULE_GENERAL_CUSP: "cusp-clamp",
                  RULE_SCHUBERT: "schubert-nonvanishing"}
EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for a process ended by SIGPIPE
# what a command returns: the builders of its JSON payload and of its text, and its exit code
Outputs = tuple[Callable[[], Any], Callable[[], str], int]


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


def cmd_rho(args) -> Outputs:
    value = rho(SeriesType(args.g, args.r, args.d))
    return (lambda: {"g": args.g, "r": args.r, "d": args.d, "rho": value},
            lambda: str(value), 0)


def cmd_triples(args) -> Outputs:
    triples = bn_divisor_triples(args.g)
    pairs = bn_divisor_pairs(args.g)

    def text() -> str:
        if not triples:
            return f"no divisorial triples for genus {args.g} (g+1 has no admissible factorization)"
        lines = [f"(r={r}, s={s}, d={d})  rho={rho(SeriesType(args.g, r, d))}" for r, s, d in triples]
        return "\n".join(lines + [f"residual pair: {a} <-> {b}" for a, b in pairs])

    return (lambda: {"g": args.g, "triples": [list(t) for t in triples],
                     "residual_pairs": [[list(a), list(b)] for a, b in pairs]},
            text, 0)


def _check_r(r: int) -> None:
    """Refuse a series dimension above MAX_GENUS before anything of r + 1 entries is built."""
    if r > MAX_GENUS:
        raise ValueError(f"series dimension r={r} is above the limit of {MAX_GENUS}")


def cmd_exist(args) -> Outputs:
    _check_r(args.r)
    t = SeriesType(args.g, args.r, args.d)
    rams = [RamificationSeq(_parse_seq(s), args.r, args.d) for s in args.ram or []]
    result = general_pointed_check(t, rams, extra_cusps=args.cusps)
    exists, criterion = result.passed, EXIST_CRITERIA[result.rule]
    return (lambda: {"g": args.g, "r": args.r, "d": args.d,
                     "ramification": [list(r.entries) for r in rams],
                     "cusps": args.cusps, "exists": exists, "criterion": criterion},
            lambda: f"exists: {'yes' if exists else 'no'} (criterion: {criterion})", 0)


def cmd_schubert(args) -> Outputs:
    _check_r(args.r)
    # a cusp power runs through the ring's C(d + 1, r + 1) Schubert classes; for d > r that
    # count is at least d + 1, so a larger d is refused without the binomial
    limit = limit_checker.MAX_SEQUENCES
    if args.cusp_power > 0 and (args.d >= limit or comb(args.d + 1, args.r + 1) > limit):
        raise ValueError(f"--cusp-power needs the C({args.d + 1}, {args.r + 1}) Schubert classes"
                         f" of G({args.r + 1},{args.d + 1}), more than the limit of {limit}")
    from . import schubert  # on first use: the other commands compile it only if a check asks

    rect = schubert.rect_for(args.r, args.d)
    acc = schubert.identity_class(rect)
    for s in args.index or []:
        ram = RamificationSeq(_parse_seq(s), args.r, args.d)
        acc = schubert.lr_product(acc, schubert.schubert_class(schubert.index_to_partition(ram), rect))
    acc = schubert.lr_product(acc, schubert.cusp_class_power(args.cusp_power, rect))
    nonzero = not acc.is_zero()
    return (lambda: {"rect": list(rect), "nonzero": nonzero,
                     "terms": {",".join(map(str, p)): c for p, c in sorted(acc.terms.items())}},
            lambda: f"class in G({args.r + 1},{args.d + 1}): {acc}\nnonzero: {'yes' if nonzero else 'no'}",
            0)


def _class(g: int, canonical: bool) -> modspace.DivisorClass:
    """The canonical class, or the divisorial class via the genus's first divisorial triple."""
    if canonical:
        return modspace.canonical_class(g)
    triples = bn_divisor_triples(g)
    if not triples:
        raise ValueError(f"genus {g} has no divisorial triple")
    r, _, d = triples[0]
    return modspace.bn_class(g, r, d)


def cmd_class(args) -> Outputs:
    cls = _class(args.g, args.canonical)
    label = "canonical class" if args.canonical else "divisorial class (up to positive scale)"
    return (lambda: {"g": args.g, "label": label, "lambda": cls.lam,
                     "delta": list(cls.delta), "text": str(cls)},
            lambda: f"{label}: {cls}", 0)


def cmd_decompose(args) -> Outputs:
    triples = bn_divisor_triples(args.g)
    if args.d is not None:
        r, d = args.r, args.d
    elif args.r is not None:  # d is the second optional positional, so r alone was given
        raise ValueError("pass both r and d, or neither")
    elif triples:
        r, _, d = triples[0]
    else:
        raise ValueError(f"genus {args.g} has no divisorial triple; pass r and d")
    dec = modspace.decompose_canonical(args.g, r, d)
    return (lambda: {"g": args.g, "r": r, "d": d, "a": dec.a, "b": dec.b,
                     "c": list(dec.c), "boundary_nonnegative": dec.boundary_nonnegative},
            lambda: "\n".join([
                f"K = a*BN + b*lambda + sum c_i delta_i  (genus {args.g}, via g^{r}_{d})",
                f"a = {dec.a}",
                f"b = {dec.b}",
                "c = " + ", ".join(f"c{i}={v}" for i, v in enumerate(dec.c)),
            ]), 0)


def cmd_slope(args) -> Outputs:
    if args.which == "bound":
        val = modspace.slope_bound(args.g)
        return (lambda: {"g": args.g, "slope_bound": val}, lambda: f"6 + 12/(g+1) = {val}", 0)
    if args.which in ("bn", "canonical"):
        val = modspace.slope_of_class(_class(args.g, args.which == "canonical"))
        name = "canonical" if args.which == "canonical" else "divisorial"
        return (lambda: {"g": args.g, "slope": val}, lambda: f"slope of the {name} class: {val}", 0)
    if args.which == "gonal":
        val = modspace.gonal_family_slope(args.g, args.k)
        exceeds = val > modspace.SLOPE_THRESHOLD
        return (lambda: {"g": args.g, "k": args.k, "slope": val, "exceeds_13_2": exceeds},
                lambda: f"gonal family slope (k={args.k}): {val}  ({'> 13/2' if exceeds else '<= 13/2'})",
                0)
    if args.which == "plane-pencil":
        pen = modspace.plane_pencil_slope(args.degree)
        return (lambda: {"degree": pen.dd, "f": pen.f, "b": pen.b, "lambda": pen.lam,
                         "delta": pen.delta, "slope": pen.slope, "exceeds_13_2": pen.exceeds_13_2},
                lambda: f"degree {pen.dd}: f={pen.f} b={pen.b} lambda={pen.lam} delta={pen.delta} "
                        f"slope={pen.slope} exceeds_13_2={'yes' if pen.exceeds_13_2 else 'no'}",
                0)
    rows = modspace.boundary_multiplicity_table()  # boundary-table
    return (lambda: {"rows": [row._asdict() for row in rows]},
            lambda: "\n".join(
                f"i={row.i}: decomposition {row.decomposition_coeff} -> multiplicity {row.multiplicity}, "
                f"cited bound {row.cited_bound if row.cited_bound is not None else '-'}"
                + ("  (coincide)" if row.coincide else "")
                for row in rows
            ), 0)


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


def cmd_limit(args) -> Outputs:
    desc = _resolve_curve(args.curve)
    if args.action == "verify" and not args.witness:
        raise ValueError("verify needs --witness NAME")
    report = _check(desc, args.r, args.d, args.witness if args.action == "verify" else None,
                    prune=not args.naive, survivor_cap=args.cap)
    if args.expect is None or args.expect == report.verdict:
        return report.to_json, report.render, 0
    return (report.to_json,
            lambda: f"{report.render()}\nexpected verdict {args.expect!r}, got {report.verdict!r}", 1)


def cmd_fixtures(args) -> Outputs:
    names = sorted(p.stem for p in curvefile.fixture_dir().glob("*.json"))
    return (lambda: {"directory": str(curvefile.fixture_dir()), "fixtures": names},
            lambda: "\n".join([f"bundled curve descriptions in {curvefile.fixture_dir()}:"]
                              + [f"  {name}" for name in names]), 0)


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


def _report_g23(include_tail_variant: bool) -> Outputs:
    g = 23

    # (i) triples and residual pairing, (ii) classes and the pinned decomposition
    triples = bn_divisor_triples(g)
    pairs = bn_divisor_pairs(g)
    bn_cls = modspace.bn_class(g, 1, 12)
    kan = modspace.canonical_class(g)
    dec = modspace.decompose_canonical(g, 1, 12)
    # the audit's claims as (label, holds), in report order
    claims = [
        ("six divisorial triples",
         triples == [(1, 13, 12), (2, 9, 17), (3, 7, 20), (5, 5, 24), (7, 4, 27), (11, 3, 32)]),
        ("all triples have rho = -1", all(rho(SeriesType(g, r, d)) == -1 for r, _, d in triples)),
        ("residual pairing has three classes", len(pairs) == 3),
        ("decomposition a = 1/2", dec.a == Fraction(1, 2)),
        ("decomposition b = 0", dec.b == 0),
        ("decomposition c1 = 8", dec.c[1] == 8),
        ("decomposition c_i = (i(23-i)-4)/2",
         all(dec.c[i] == Fraction(i * (23 - i) - 4, 2) for i in range(2, 12))),
        ("boundary part nonnegative", dec.boundary_nonnegative),
    ]

    # (iii) limit-series checks
    checks = G23_CHECKS + (G23_TAIL_CHECKS if include_tail_variant else ())
    descs = {name: curvefile.load_fixture(name) for name in dict.fromkeys(row[0] for row in checks)}
    reports = {}  # by (curve id, (r, d)), in row order
    findings = []
    for name, r, d, witness, expected in checks:
        cid, series = descs[name].curve.id, series_name(r, d)
        rep = reports[cid, (r, d)] = _check(descs[name], r, d, witness)
        if expected is not None:
            claims.append((f"{cid} has no limit {series}" if witness is None
                           else f"{cid} limit {series} witness {expected}", rep.verdict == expected))
        elif rep.verdict != "refuted":
            findings.append(
                f"{cid} {series}: {rep.survivor_count} candidates survive the necessary rules; "
                "refutation is cited to the literature, survivors listed as findings"
            )

    net = reports["chain-9torsion", (2, 17)]
    star_pencil = reports["septic-star", (1, 12)]
    star_nets = {s: reports["septic-star", s] for s in ((2, 15), (3, 20))}
    claims += [
        ("chain-9torsion g^2_17 witness refined with additivity equality",
         net.refined and net.additivity.equality),
        ("septic-star g^1_12 refuted by the counting rule",
         any(k.startswith("factsheet-ramification-count") for k, _ in star_pencil.rule_hits)),
        *((f"septic-star {series_name(*s)} additivity {aspect_rho} + 8 = {total} with equality",
           dict(star_nets[s].aspect_rhos)["G"] == aspect_rho and star_nets[s].additivity.equality
           and star_nets[s].additivity.lhs == total)
          for s, aspect_rho, total in (((2, 15), -15, -7), ((3, 20), -9, -1))),
    ]

    # (iv) the membership audit
    distinctness = [
        {"pair": f"{series_name(*has)} vs {series_name(*lacks)}", "curve": cid,
         "reason": f"carries a limit {series_name(*has)} (confirmed) "
                   f"but no limit {series_name(*lacks)} (refuted)",
         "holds": (reports[cid, has].verdict == "confirmed"
                   and reports[cid, lacks].verdict == "refuted")}
        for cid, has, lacks in G23_DISTINCT
    ]
    # the three pairwise intersections in chain order; septic-star lies in the middle one only
    meets = [f"supp(M^{a}) & supp(M^{b})"
             for a, b in (("1_12", "2_17"), ("2_17", "3_20"), ("3_20", "1_12"))]
    beta_ok = (star_pencil.verdict == "refuted"
               and all(v.verdict in ("confirmed", "consistent") for v in star_nets.values()))
    claims += [(f"distinctness {claim['pair']}", claim["holds"]) for claim in distinctness]
    claims.append(("septic-star lies in exactly two of the three divisors", beta_ok))
    mismatches = [label for label, holds in claims if not holds]

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
        "limit_checks": {f"{cid} {series_name(*srd)}": rep.to_json()
                         for (cid, srd), rep in reports.items() if isinstance(rep, RefutationReport)},
        "witness_checks": {f"{cid} {series_name(*srd)}": rep.to_json()
                           for (cid, srd), rep in reports.items() if not isinstance(rep, RefutationReport)},
        "tail_variant": {
            f"{'verify' if witness else 'refute'}_g{r}_{d}": reports[descs[name].curve.id, (r, d)].verdict
            for name, r, d, witness, _ in G23_TAIL_CHECKS if include_tail_variant},
        "membership_audit": {
            "distinctness": distinctness,
            "two_divisor_curve": {
                "curve": "septic-star",
                "in": ["g^2_17 (via the g^2_15 witness plus two base points)", "g^3_20"],
                "not_in": ["g^1_12"],
                "holds": beta_ok,
            },
            "equality_chain": [
                {"statement": f"{meets[i]} = {meets[i + 1]}", "contradicted": beta_ok,
                 "witness": f"septic-star lies in the {side}-hand side but not in supp(M^1_12)"}
                for i, side in enumerate(("right", "left"))
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
                {k: v for k, v in row._asdict().items() if k != "decomposition_coeff"}
                for row in modspace.boundary_multiplicity_table()
            ],
        },
        "findings": findings,
        "mismatches": mismatches,
        "pass": audit_pass,
    }

    return (lambda: payload, lambda: _render_report(payload), 0 if audit_pass else 1)


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
    for k, val in s["gonal_families"].items():
        lines.append(f"  gonal family k={k}: slope {val} "
                     f"({'> 13/2' if val > modspace.SLOPE_THRESHOLD else '<= 13/2'})")
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


def cmd_report(args) -> Outputs:
    if args.target != "g23":
        raise ValueError(f"unknown report target {args.target!r}; only 'g23' is available")
    return _report_g23(args.include_tail_variant)


# ---------------------------------------------------------------------------
# parser


def _exist_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ram", action="append", metavar="A0,A1,...",
                   help="ramification sequence; repeatable, one per marked point")
    p.add_argument("--cusps", type=int, default=0, help="number of additional cusped points")


def _schubert_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--index", action="append", metavar="A0,A1,...",
                   help="ramification index of a factor; repeatable")
    p.add_argument("--cusp-power", type=int, default=0, dest="cusp_power")


def _class_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--canonical", action="store_true")


def _decompose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("r", type=int, nargs="?", default=None)
    p.add_argument("d", type=int, nargs="?", default=None)


def _slope_arguments(p: argparse.ArgumentParser) -> Iterable[argparse.ArgumentParser]:
    slope_sub = p.add_subparsers(dest="which", required=True)
    for which in ("bound", "bn", "canonical", "gonal"):
        slope_sub.add_parser(which).add_argument("g", type=int)
    slope_sub.choices["gonal"].add_argument("k", type=int)
    slope_sub.add_parser("plane-pencil").add_argument("degree", type=int)
    slope_sub.add_parser("boundary-table")
    return slope_sub.choices.values()  # a run parses one of these, not slope's own parser


def _limit_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=("refute", "verify"))
    p.add_argument("curve", help="path to a curve JSON file or a bundled fixture name")
    p.add_argument("r", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--witness", help="witness name (verify)")
    p.add_argument("--expect", help="expected verdict; exit 1 on mismatch")
    p.add_argument("--naive", action="store_true", help="disable minimal-complement pruning")
    p.add_argument("--cap", type=int, default=100, help="survivor listing cap")


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", help="only 'g23'")
    p.add_argument("--include-tail-variant", action="store_true", dest="include_tail_variant",
                   help="also run the boundary chain with the elliptic tail")


# name: (help, command, leading integer positionals, None or the function adding the rest), in --help's order
SUBCOMMANDS = {
    "rho": ("Brill-Noether number g - (r+1)(g-d+r)", cmd_rho, ("g", "r", "d"), None),
    "triples": ("divisorial (r, s, d) triples of a genus", cmd_triples, ("g",), None),
    "exist": ("existence of a series with prescribed ramification on a general pointed curve",
              cmd_exist, ("g", "r", "d"), _exist_arguments),
    "schubert": ("product of Schubert classes in G(r+1, d+1)", cmd_schubert, ("r", "d"), _schubert_arguments),
    "class": ("divisorial or canonical class on moduli of curves", cmd_class, ("g",), _class_arguments),
    "decompose": ("canonical class over the divisorial class", cmd_decompose, ("g",), _decompose_arguments),
    "slope": ("slope computations", cmd_slope, (), _slope_arguments),
    "limit": ("refute or verify limit series on a curve file", cmd_limit, (), _limit_arguments),
    "fixtures": ("list bundled curve descriptions", cmd_fixtures, (), None),
    "report": ("full verification report", cmd_report, (), _report_arguments),
}


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser for argv.

    Every subcommand is registered with its help, so the usage line, --help
    and the invalid-choice error read the same whatever argv holds.  When
    argv starts with a subcommand's name, only that subcommand gets its
    arguments, since a run parses one; otherwise (--help, no argument, an
    unknown name) every subcommand gets them.
    """
    parser = argparse.ArgumentParser(
        prog="bnlimits",
        description="Exact Brill-Noether and limit-linear-series combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    for name, (help_text, command, positionals, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            for positional in positionals:
                p.add_argument(positional, type=int)
            leaves = add_arguments(p) if add_arguments else None
            for leaf in leaves or (p,):  # --json comes last in each parser a run parses
                leaf.add_argument("--json", action="store_true")
            p.set_defaults(func=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        as_json, as_text, code = args.func(args)
        print(json.dumps(as_json(), indent=2, sort_keys=True, default=_json_default)
              if args.json else as_text())
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`bnlimits ... | head`): stop quietly,
        # and keep the interpreter's final flush from failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = main()
    # The process ends here, and the interpreter's exit-time collections would
    # walk every object it built; frozen objects are not walked.  This cut the
    # exit of a cold `report g23 --include-tail-variant --json` from about 17 to
    # 6 ms (2-core x86, Python 3.11).  main() does not freeze: callers that run
    # it in process go on collecting.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
