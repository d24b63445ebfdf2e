"""Verdict oracles for the benchmark workloads.

Each check returns a list of problems, empty when the output is right.  The
checks run outside the timed region.

* ``audit-g23``: the paper's expected verdicts as a fixed table.
* ``refute-sweep``: rule hits partition the candidate space, listed
  survivors re-verify as not rejected, rho >= 0 is never refuted (every
  smoothable curve carries a limit of the series a smooth curve has), and on
  curves with general components and no elliptic torsion the verdict is the
  Eisenbud-Harris answer: refuted iff rho < 0 (Limit linear series: basic
  theory, Invent. Math. 85, 1986).  Series with at most NAIVE_SEQ_CAP
  sequences are also refuted with ``prune=False``, which must agree.
* ``schubert-queries``: one-point queries against the clamp criteria, two
  points without cusps against the Eisenbud-Harris two-point criterion, and
  every positive answer against the dimension count (adjusted rho >= 0).
"""

from __future__ import annotations

import json
from math import comb

C21_4_SQ = comb(21, 4) ** 2  # 35,820,225 pairs of vanishing sequences of g^3_20

AUDIT_REFUTATIONS = {
    "chain-9torsion g^3_20": ("refuted", C21_4_SQ),
    "chain-12torsion g^2_17": ("refuted", comb(18, 3) ** 2),
    "chain-12torsion g^3_20": ("refuted", C21_4_SQ),
    "septic-star g^1_12": ("refuted", 1),
    "chain-9torsion-elliptic-tail g^3_20": ("refuted", C21_4_SQ),
}
AUDIT_WITNESSES = {
    "chain-9torsion g^2_17": "confirmed",
    "chain-12torsion g^1_12": "confirmed",
    "septic-star g^2_15": "consistent",
    "septic-star g^3_20": "consistent",
    "chain-9torsion-elliptic-tail g^2_17": "confirmed",
}
AUDIT_TAIL_VARIANT = {"refute_g3_20": "refuted", "verify_g2_17": "confirmed"}

# prune=False costs about the square of the number C(d+1, r+1) of vanishing
# sequences at a node; only series with this many or fewer are re-run naive
NAIVE_SEQ_CAP = 120


def rho(g: int, r: int, d: int) -> int:
    return g - (r + 1) * (g - d + r)


def check_audit(stdout: bytes) -> list[str]:
    """Problems with one ``report g23 --include-tail-variant --json`` output."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if doc.get("pass") is not True:
        problems.append(f"pass is {doc.get('pass')!r}")
    if doc.get("mismatches"):
        problems.append(f"mismatches {doc['mismatches']}")
    if doc.get("tail_variant") != AUDIT_TAIL_VARIANT:
        problems.append(f"tail variant {doc.get('tail_variant')}")
    checks = doc.get("limit_checks", {})
    if set(checks) != set(AUDIT_REFUTATIONS):
        problems.append(f"refutations {sorted(checks)}")
    for key, (verdict, candidates) in AUDIT_REFUTATIONS.items():
        rep = checks.get(key, {})
        if rep.get("verdict") != verdict:
            problems.append(f"{key}: verdict {rep.get('verdict')!r}, expected {verdict!r}")
        if rep.get("candidates_examined") != candidates:
            problems.append(f"{key}: {rep.get('candidates_examined')} candidates, "
                            f"expected {candidates}")
        if sum(rep.get("rule_hits", {}).values()) + rep.get("survivor_count", 0) != candidates:
            problems.append(f"{key}: rule hits do not partition the candidates")
    found = doc.get("witness_checks", {})
    if set(found) != set(AUDIT_WITNESSES):
        problems.append(f"witnesses {sorted(found)}")
    for key, verdict in AUDIT_WITNESSES.items():
        got = found.get(key, {}).get("verdict")
        if got != verdict:
            problems.append(f"{key}: witness {got!r}, expected {verdict!r}")
    return problems


def check_sweep(job: dict, curve_doc: dict, out: dict) -> list[str]:
    """Problems with one refute-sweep output (naive agreement is separate)."""
    problems = []
    r, d, g = job["r"], job["d"], curve_doc["genus"]
    if sum(out["rule_hits"].values()) + out["survivors"] != out["candidates"]:
        problems.append("rule hits and survivors do not partition the candidates")
    if "rejected" in out["verify"]:
        problems.append(f"{out['verify'].count('rejected')} listed survivors re-verify as rejected")
    if len(out["verify"]) != len(out["listed"]):
        problems.append("not every listed survivor was verified")
    comps = curve_doc["components"]
    refuted = out["verdict"] == "refuted"
    if all(c["kind"] != "factsheet" for c in comps):
        if rho(g, r, d) >= 0 and refuted:
            problems.append(f"refuted although rho = {rho(g, r, d)} >= 0")
        if not any(c.get("torsion") for c in comps) and refuted != (rho(g, r, d) < 0):
            problems.append(f"verdict {out['verdict']!r} against Eisenbud-Harris "
                            f"(rho = {rho(g, r, d)})")
    return problems


def check_naive(out: dict, naive_report) -> list[str]:
    """The pruned output must match a prune=False refutation."""
    problems = []
    if naive_report.verdict != out["verdict"]:
        problems.append(f"naive verdict {naive_report.verdict!r} vs {out['verdict']!r}")
    if naive_report.survivor_count != out["survivors"]:
        problems.append(f"naive survivors {naive_report.survivor_count} vs {out['survivors']}")
    if [s.to_json() for s in naive_report.survivors] != out["listed"]:
        problems.append("naive survivor listing differs")
    return problems


def two_point_exists(g: int, r: int, d: int, a: list[int], b: list[int]) -> bool:
    """Eisenbud-Harris: a general 2-pointed curve of genus g has a g^r_d with
    ramification a at one point and b at the other iff
    sum_i max(a_i + b_(r-i) + g - d + r, 0) <= g."""
    shift = g - d + r
    return sum(max(a[i] + b[r - i] + shift, 0) for i in range(r + 1)) <= g


def query_expectation(q: dict) -> tuple[str, bool]:
    """("exact", answer) where an independent criterion decides the query,
    ("necessary", False) where only "no" is forced by the dimension count,
    and ("none", False) otherwise."""
    from bnlimits.numerology import RamificationSeq, SeriesType, cusp_pointed_exists, pointed_exists

    g, r, d, rams, cusps = q["g"], q["r"], q["d"], q["rams"], q["cusps"]
    if len(rams) == 1 and cusps <= 1:
        t = SeriesType(g, r, d)
        alpha = RamificationSeq(tuple(rams[0]), r, d)
        return "exact", (cusp_pointed_exists if cusps else pointed_exists)(t, alpha)
    if len(rams) == 2 and cusps == 0:
        return "exact", two_point_exists(g, r, d, rams[0], rams[1])
    if rho(g, r, d) - sum(map(sum, rams)) - cusps * r < 0:
        return "necessary", False
    return "none", False


def check_query(q: dict, got: bool) -> list[str]:
    kind, want = query_expectation(q)
    if kind == "exact" and got != want:
        return [f"answer {got} for {q}, criterion says {want}"]
    if kind == "necessary" and got:
        return [f"answer True for {q} although the adjusted rho is negative"]
    return []
