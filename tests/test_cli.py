import gc
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bnlimits import cli, curvefile, limit_checker, modspace, schubert
from bnlimits.cli import main
from bnlimits.curves import CompactCurve, Component, FactSheet, Node, SeriesDimFact, TorsionPair
from bnlimits.numerology import RamificationSeq, SeriesType

def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "23", "1", "12")
    assert code == 0 and out.strip() == "-1"


def test_rho_json(capsys):
    code, out, _ = run(capsys, "rho", "15", "1", "12", "--json")
    assert code == 0 and json.loads(out) == {"g": 15, "r": 1, "d": 12, "rho": 7}


def test_triples(capsys):
    code, out, _ = run(capsys, "triples", "23")
    assert code == 0
    assert "(r=7, s=4, d=27)" in out
    assert "residual pair: (2, 9, 17) <-> (7, 4, 27)" in out


def test_exist(capsys):
    code, out, _ = run(capsys, "exist", "11", "2", "17", "--ram", "4,8,11")
    assert code == 0 and "exists: yes" in out
    code, out, _ = run(capsys, "exist", "10", "2", "17", "--ram", "4,8,11", "--cusps", "1")
    assert code == 0 and "exists: yes" in out and "cusp-clamp" in out


def test_exist_cusps_on_a_rectangle_without_columns(capsys):
    # d = r leaves no room for a cusp index; the cusp class is zero there (three points,
    # so that the Schubert criterion answers)
    code, out, err = run(capsys, "exist", "3", "1", "1", *["--ram", "0,0"] * 3)
    assert (code, out, err) == (0, "exists: no (criterion: schubert-nonvanishing)\n", "")
    code, out, _ = run(capsys, "exist", "0", "1", "1", *["--ram", "0,0"] * 3)
    assert (code, out) == (0, "exists: yes (criterion: schubert-nonvanishing)\n")


def test_exist_rejects_negative_cusps(capsys):
    code, out, err = run(capsys, "exist", "5", "1", "4", "--cusps", "-3")
    assert code == 2 and out == "" and "cusps" in err and "-3" in err


def test_exist_cost_does_not_grow_with_cusps(capsys):
    # each extra cusp is one more power of the cusp class, not one more factor:
    # three marked points expand three Littlewood-Richardson products at most
    schubert.lr_coefficients.cache_clear()
    code, out, _ = run(capsys, "exist", "5", "0", "4", "--ram", "1", "--ram", "2", "--ram", "0",
                       "--cusps", "1000000")
    assert (code, out) == (0, "exists: yes (criterion: schubert-nonvanishing)\n")
    assert schubert.lr_coefficients.cache_info().misses <= 3
    code, out, _ = run(capsys, "exist", "5", "1", "4", "--cusps", "100000000")
    assert (code, out) == (0, "exists: no (criterion: schubert-nonvanishing)\n")
    assert schubert.lr_coefficients.cache_info().misses <= 3


def test_exist_with_many_points_needs_no_recursion(capsys):
    # one level of the search per marked point: 1,500 levels exceed Python's recursion limit
    t = SeriesType(3000, 1, 3000)
    assert schubert.bn_condition(t, [RamificationSeq((0, 1), 1, 3000)] * 1500)
    for args in (
        ("3000", "1", "3000", *["--ram", "0,1"] * 1500),
        # a Littlewood-Richardson expansion of 41 letters in 41 rows (a third, unramified
        # point sends two-point queries to the Schubert search)
        ("38", "40", "80", *["--ram", ",".join(["1"] * 41)] * 2, "--ram", ",".join(["0"] * 41)),
        # one box in a rectangle of 1,501 rows
        ("10", "1500", "1510", *["--ram", ",".join(["0"] * 1500 + ["1"])] * 2,
         "--ram", ",".join(["0"] * 1501)),
    ):
        code, out, err = run(capsys, "exist", *args)
        assert (code, out, err) == (0, "exists: yes (criterion: schubert-nonvanishing)\n", ""), args[:3]


def test_exist_without_conditions_uses_clamp(capsys):
    # no marked point and no cusp: the clamp at zero ramification, which agrees
    # with Schubert nonvanishing of the empty product
    for g, r, d in ((11, 2, 17), (11, 2, 10), (4, 1, 2), (4, 1, 3)):
        code, out, _ = run(capsys, "exist", str(g), str(r), str(d), "--json")
        payload = json.loads(out)
        assert code == 0 and payload["criterion"] == "clamp"
        assert payload["exists"] == schubert.bn_condition(SeriesType(g, r, d), [])
    code, out, _ = run(capsys, "exist", "4", "1", "2")
    assert out == "exists: no (criterion: clamp)\n"


def test_schubert_cmd(capsys):
    code, out, _ = run(capsys, "schubert", "1", "3", "--index", "0,1", "--index", "0,1")
    assert code == 0 and "s[1,1] + s[2]" in out
    code, out, _ = run(capsys, "schubert", "1", "12", "--cusp-power", "23")
    assert code == 0 and "nonzero: no" in out


def test_class_and_decompose(capsys):
    code, out, _ = run(capsys, "class", "23")
    assert code == 0 and out.startswith("divisorial class (up to positive scale): 26λ - 4δ0")
    code, out, _ = run(capsys, "class", "23", "--canonical")
    assert code == 0 and "13λ - 2δ0 - 3δ1" in out
    code, out, _ = run(capsys, "decompose", "23")
    assert code == 0 and "a = 1/2" in out and "b = 0" in out and "c1=8" in out


def test_slope_commands(capsys):
    code, out, _ = run(capsys, "slope", "bound", "23")
    assert code == 0 and "13/2" in out
    code, out, _ = run(capsys, "slope", "plane-pencil", "11")
    assert code == 0 and "slope=146/23" in out and "exceeds_13_2=no" in out
    code, out, _ = run(capsys, "slope", "gonal", "23", "4")
    assert code == 0 and "244/35" in out
    code, out, _ = run(capsys, "slope", "boundary-table")
    assert code == 0 and "i=1" in out and "(coincide)" in out
    code, _, err = run(capsys, "slope", "plane-pencil", "13")
    assert code == 2 and "error" in err


def test_limit_refute_expectations(capsys):
    code, out, _ = run(capsys, "limit", "refute", "chain-9torsion", "1", "12",
                       "--expect", "refuted")
    assert code == 0 and "verdict: refuted" in out
    # the 12-torsion chain carries the pencil, so expecting refutation fails
    code, out, _ = run(capsys, "limit", "refute", "chain-12torsion", "1", "12",
                       "--expect", "refuted")
    assert code == 1 and "verdict: survivors" in out
    # a bundled curve is found by its id as well as by its file name
    for ref in ("chain-9torsion-elliptic-tail", "chain_9torsion_elltail", "chain-9torsion-elltail"):
        code, out, _ = run(capsys, "limit", "refute", ref, "1", "12", "--expect", "refuted")
        assert code == 0 and "curve chain-9torsion-elliptic-tail" in out


def test_limit_refute_lists_only_rules_that_fire(capsys):
    # at r = d = 0 the pairwise bound eliminates no pair, so it has no line
    for mode in ((), ("--naive",)):
        code, out, _ = run(capsys, "limit", "refute", "chain-9torsion", "0", "0", *mode)
        assert code == 0 and "rule hits:\n  (none)\n" in out and "pair-bound" not in out
        code, out, _ = run(capsys, "limit", "refute", "chain-9torsion", "0", "0", "--json", *mode)
        assert code == 0 and json.loads(out)["rule_hits"] == {}


def test_limit_verify(capsys):
    code, out, _ = run(capsys, "limit", "verify", "chain-9torsion", "2", "17",
                       "--witness", "g2_17", "--expect", "confirmed")
    assert code == 0 and "verdict: confirmed" in out
    code, _, err = run(capsys, "limit", "verify", "chain-9torsion", "3", "20",
                       "--witness", "g2_17")
    assert code == 2 and "g^2_17" in err  # witness series mismatch


def test_limit_json_deterministic(capsys):
    code, first, _ = run(capsys, "limit", "refute", "chain-12torsion", "1", "12", "--json")
    assert code == 0
    code, second, _ = run(capsys, "limit", "refute", "chain-12torsion", "1", "12", "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "survivors" and payload["survivor_count"] == 1


def test_fixtures_cmd(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    for name in ("chain_9torsion", "chain_12torsion", "chain_9torsion_elltail", "septic_star"):
        assert name in out


# (path to a field of the chain_12torsion curve, a value that is not a string, the error)
STRING_CASES = [
    (("id",), {"x": 1}, 'curve id must be a string, got {"x": 1}'),
    (("description",), 5, "curve description must be a string, got 5"),
    (("components", 0, "id"), 7, "component id must be a string, got 7"),
    (("components", 0, "kind"), ["general"], 'kind of component C1 must be a string, got ["general"]'),
    (("components", 0, "points", 0), 1, "point of component C1 must be a string, got 1"),
    (("components", 1, "torsion", 0, "points", 1), None,
     "point of torsion entry must be a string, got null"),
    (("witnesses", "g1_12", "description"), False,
     "description of witness g1_12 must be a string, got false"),
]


def test_curve_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "limit", "refute", str(bad), "1", "12")
    assert code == 2 and "error" in err
    unknown_key = dict(curvefile.curve_to_json(curvefile.load_fixture("chain_12torsion")))
    unknown_key["mystery"] = 1
    p = tmp_path / "unknown.json"
    p.write_text(json.dumps(unknown_key))
    code, _, err = run(capsys, "limit", "refute", str(p), "1", "12")
    assert code == 2 and "unknown keys" in err
    code, _, err = run(capsys, "limit", "refute", "no-such-fixture", "1", "12")
    assert code == 2 and "chain_9torsion_elltail (id chain-9torsion-elliptic-tail)" in err
    # ids, kinds, point names and descriptions must be JSON strings, not any value
    for path, value, message in STRING_CASES:
        doc = curvefile.curve_to_json(curvefile.load_fixture("chain_12torsion"))
        _edit(doc, path, value)
        p.write_text(json.dumps(doc))
        code, out, err = run(capsys, "limit", "refute", str(p), "1", "12")
        assert (code, out, err) == (2, "", f"error: {message}\n"), path


def test_witness_naming_unknown_component(tmp_path, monkeypatch, capsys):
    # an input error exits 2 with its message; an internal KeyError is a fault, not an
    # input error, so main does not turn it into one
    doc = curvefile.curve_to_json(curvefile.load_fixture("chain_9torsion"))
    doc["witnesses"]["g2_17"]["aspects"]["Z"] = {"p1": [4, 9, 13]}
    p = tmp_path / "unknown_component.json"
    p.write_text(json.dumps(doc))
    args = ("limit", "verify", str(p), "2", "17", "--witness", "g2_17")
    code, out, err = run(capsys, *args)
    assert (code, out, err) == (2, "", "error: assignment names unknown component Z\n")

    def fault(*_args, **_kwargs):
        raise KeyError("Z")

    monkeypatch.setattr(limit_checker, "verify_witness", fault)
    with pytest.raises(KeyError):
        main(list(args))


def _edit(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


# (bundled curve, path to a field, a value the strict parser rejects, the error)
STRICT_CASES = [
    ("chain_12torsion", ("genus",), "23", 'curve genus must be an integer, got "23"'),
    ("chain_12torsion", ("components", 0, "genus"), 11.0,
     "genus of component C1 must be an integer, got 11.0"),
    ("chain_12torsion", ("components", 1, "torsion", 0, "order"), 9.7,
     "torsion order must be an integer, got 9.7"),
    ("septic_star", ("components", 0, "facts", "series_dims", 0, "r"), True,
     "r of series dimension fact must be an integer, got true"),
    ("septic_star", ("components", 0, "facts", "series_dims", 0, "d"), "12",
     'd of series dimension fact must be an integer, got "12"'),
    ("septic_star", ("components", 0, "facts", "series_dims", 0, "dim"), 7.5,
     "dim of series dimension fact must be an integer, got 7.5"),
    ("septic_star", ("components", 0, "facts", "gonality"), 6.0,
     "gonality must be an integer, got 6.0"),
    ("septic_star", ("components", 0, "facts", "points_general"), "false",
     'points_general must be true or false, got "false"'),
    ("septic_star", ("components", 0, "facts", "points_general"), 1,
     "points_general must be true or false, got 1"),
    ("chain_12torsion", ("witnesses", "g1_12", "series", 1), 12.5,
     "series of witness g1_12 must be an integer, got 12.5"),
    ("chain_12torsion", ("witnesses", "g1_12", "aspects", "E", "p1", 1), 3.5,
     "aspect of witness g1_12 at E.p1 must be an integer, got 3.5"),
    ("chain_12torsion", ("witnesses", "g1_12", "aspects", "C1", "p1", 0), False,
     "aspect of witness g1_12 at C1.p1 must be an integer, got false"),
]


@pytest.mark.parametrize("name,path,value,message", STRICT_CASES,
                         ids=["-".join(map(str, c[1])) + f"={c[2]!r}" for c in STRICT_CASES])
def test_curve_file_rejects_non_integers(tmp_path, capsys, name, path, value, message):
    doc = curvefile.curve_to_json(curvefile.load_fixture(name))
    _edit(doc, path, value)
    with pytest.raises(ValueError) as err:
        curvefile.curve_from_json(doc)
    assert str(err.value) == message
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "limit", "refute", str(p), "1", "12")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# (bundled curve, path to a field, a value of the wrong JSON shape, the error)
SHAPE_CASES = [
    ("chain_12torsion", ("nodes", 0), [1, "E.p1"],
     "point reference 1 must look like component.point"),
    ("chain_12torsion", ("witnesses", "g1_12", "series"), 12,
     "series of witness g1_12 must be an array of 2, got 12"),
    ("chain_12torsion", ("components",), "x", 'components must be an array, got "x"'),
    ("chain_12torsion", ("components", 0, "points"), 5,
     "points of component C1 must be an array, got 5"),
    ("chain_12torsion", ("components", 0), 3, "component must be an object, got 3"),
    ("chain_12torsion", ("components", 1, "torsion"), 5,
     "torsion of component E must be an array, got 5"),
    ("chain_12torsion", ("components", 1, "torsion", 0, "points"), 7,
     "points of torsion entry must be an array of 2, got 7"),
    ("septic_star", ("components", 0, "facts", "series_dims"), 3,
     "series_dims must be an array, got 3"),
    ("chain_12torsion", ("witnesses", "g1_12", "aspects", "E"), 4,
     "aspects of witness g1_12 at E must be an object, got 4"),
    ("chain_12torsion", ("witnesses", "g1_12", "aspects", "E", "p1"), 4,
     "aspect of witness g1_12 at E.p1 must be an array, got 4"),
]


@pytest.mark.parametrize("name,path,value,message", SHAPE_CASES,
                         ids=["-".join(map(str, c[1])) + f"={c[2]!r}" for c in SHAPE_CASES])
def test_curve_file_rejects_wrong_shapes(tmp_path, capsys, name, path, value, message):
    doc = curvefile.curve_to_json(curvefile.load_fixture(name))
    _edit(doc, path, value)
    with pytest.raises(ValueError) as err:
        curvefile.curve_from_json(doc)
    assert str(err.value) == message
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "limit", "refute", str(p), "1", "12")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_curve_file_must_be_an_object(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("5")
    code, out, err = run(capsys, "limit", "refute", str(p), "1", "12")
    assert (code, out, err) == (2, "", "error: curve document must be an object, got 5\n")


def test_deeply_nested_curve_file_exits_2(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "limit", "refute", str(p), "1", "12")
    assert (code, out, err) == (2, "", f"error: {p} is nested too deeply to be a curve file\n")


def test_curve_file_accepts_null_gonality_and_false_points_general():
    doc = curvefile.curve_to_json(curvefile.load_fixture("septic_star"))
    doc["components"][0]["facts"].update(gonality=None, points_general=False)
    facts = curvefile.curve_from_json(doc).curve.components[0].facts
    assert (facts.gonality, facts.points_general) == (None, False)


def test_schubert_cusp_power_in_one_row_is_the_identity(capsys):
    # in a one-row rectangle the cusp column 1^0 is the identity, so no power reaches zero
    code, out, _ = run(capsys, "schubert", "0", "5", "--cusp-power", str(10**9))
    assert (code, out) == (0, "class in G(1,6): s[]\nnonzero: yes\n")
    code, out, _ = run(capsys, "schubert", "0", "5", "--index", "2", "--cusp-power", str(10**9))
    assert (code, out) == (0, "class in G(1,6): s[2]\nnonzero: yes\n")


def test_bad_sizes_fail_fast(capsys):
    code, out, err = run(capsys, "limit", "refute", "chain-9torsion", "1", "12", "--cap", "-1")
    assert code == 2 and out == "" and "survivor cap must be nonnegative" in err
    code, out, err = run(capsys, "limit", "refute", "chain-9torsion", "11", "32")
    assert code == 2 and out == ""
    assert "C(33, 12) = 354817320 vanishing sequences per point" in err


def test_closed_stdout_exits_quietly(tmp_path):
    # a torsion-free chain with 5,148 surviving pencils prints about 270 kB
    curve = CompactCurve(
        "wide-chain", 23,
        (
            Component("A", 11, "general", ("p",)),
            Component("E", 1, "elliptic", ("p", "q")),
            Component("B", 11, "general", ("q",)),
        ),
        (Node((("A", "p"), ("E", "p"))), Node((("E", "q"), ("B", "q")))),
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(curvefile.curve_to_json(curvefile.CurveDescription(curve, ()))))
    src = str(Path(curvefile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bnlimits", "limit", "refute", str(path), "1", "20",
         "--cap", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"refutation report: curve wide-chain")
    proc.stdout.close()  # like `| head -1`
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_g23_reports_do_not_import_schubert():
    # neither audit makes a Schubert nonvanishing call: the tail variant's one general
    # two-point check is decided in closed form, so neither compiles nor holds the calculus
    src = str(Path(curvefile.__file__).resolve().parents[1])
    probe = ("import contextlib, io, sys\n"
             "from bnlimits import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(sys.argv[1:])\n"
             "print(code, 'bnlimits.schubert' in sys.modules)")
    for tail in ([], ["--include-tail-variant"]):
        out = subprocess.run([sys.executable, "-c", probe, "report", "g23", *tail], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert out.stdout == "0 False\n", tail


def test_main_leaves_the_heap_unfrozen(capsys):
    # callers that run main in process keep collecting their garbage
    frozen = gc.get_freeze_count()
    assert main(["report", "g23", "--json"]) == 0
    assert gc.get_freeze_count() == frozen


def test_fixture_round_trip(tmp_path):
    for name in ("chain_9torsion", "chain_12torsion", "chain_9torsion_elltail", "septic_star"):
        desc = curvefile.load_fixture(name)
        doc = curvefile.curve_to_json(desc)
        again = curvefile.curve_from_json(doc)
        assert again.curve == desc.curve
        assert again.witnesses == desc.witnesses
        # and the rewritten file parses identically
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        assert curvefile.load_curve_file(p).curve == desc.curve


def test_altered_torsion_breaks_pencil_witness(tmp_path, capsys):
    # changing the 12-torsion chain to 9-torsion must break its pencil witness
    doc = curvefile.curve_to_json(curvefile.load_fixture("chain_12torsion"))
    doc["components"][1]["torsion"][0]["order"] = 9
    doc["id"] = "chain-12torsion-altered"
    p = tmp_path / "altered.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "limit", "verify", str(p), "1", "12",
                       "--witness", "g1_12", "--expect", "confirmed")
    assert code == 1 and "verdict: rejected" in out
    assert "elliptic-torsion-divisibility" in out


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "g23", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["mismatches"] == []
    assert payload["classes"]["decomposition"]["a"] == "1/2"
    verdicts = {k: v["verdict"] for k, v in payload["limit_checks"].items()}
    assert verdicts == {
        "chain-9torsion g^3_20": "refuted",
        "chain-12torsion g^2_17": "refuted",
        "chain-12torsion g^3_20": "refuted",
        "septic-star g^1_12": "refuted",
    }


def _force_refutation(monkeypatch, curve_id, series, **changes):
    """Make limit_checker.refute report `changes` for one curve and series."""
    real = limit_checker.refute

    def refute(curve, t, **kwargs):
        report = real(curve, t, **kwargs)
        if (curve.id, (t.r, t.d)) == (curve_id, series):
            report = report._replace(**changes)
        return report

    monkeypatch.setattr(limit_checker, "refute", refute)


def test_report_fails_when_web_is_not_refuted(monkeypatch, capsys):
    _force_refutation(monkeypatch, "chain-9torsion", (3, 20), verdict="survivors",
                      survivor_count=1)
    code, out, _ = run(capsys, "report", "g23", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert payload["mismatches"] == ["chain-9torsion has no limit g^3_20",
                                     "distinctness g^2_17 vs g^3_20"]
    holds = {row["pair"]: row["holds"] for row in payload["membership_audit"]["distinctness"]}
    assert holds == {"g^2_17 vs g^3_20": False, "g^1_12 vs g^2_17": True,
                     "g^1_12 vs g^3_20": True}
    code, out, _ = run(capsys, "report", "g23")
    assert code == 1
    assert "  FAILED: g^2_17 vs g^3_20 distinct -- chain-9torsion carries" in out
    assert "\nmismatches:\n  - chain-9torsion has no limit g^3_20\n" in out
    assert "\nkappa(M_23) >= 2 audit: FAIL\n" in out


def test_report_fails_when_chain12_net_is_not_refuted(monkeypatch, capsys):
    # the distinctness of g^1_12 and g^2_17 rests on this refutation, so survivors fail both
    _force_refutation(monkeypatch, "chain-12torsion", (2, 17), verdict="survivors",
                      survivor_count=3)
    code, out, _ = run(capsys, "report", "g23", "--json")
    payload = json.loads(out)
    assert payload["findings"] == []
    assert payload["mismatches"] == ["chain-12torsion has no limit g^2_17",
                                     "distinctness g^1_12 vs g^2_17"]
    assert code == 1 and payload["pass"] is False


def test_rows_without_expectation_list_survivors_as_findings(monkeypatch, capsys):
    # a row expecting no verdict reports survivors as a finding, not a mismatch of its own;
    # only the distinctness row resting on it fails
    rows = tuple(row[:4] + (None,) if row[:3] == ("chain_12torsion", 2, 17) else row
                 for row in cli.G23_CHECKS)
    monkeypatch.setattr(cli, "G23_CHECKS", rows)
    _force_refutation(monkeypatch, "chain-12torsion", (2, 17), verdict="survivors",
                      survivor_count=3)
    code, out, _ = run(capsys, "report", "g23", "--json")
    payload = json.loads(out)
    assert payload["findings"] == [
        "chain-12torsion g^2_17: 3 candidates survive the necessary rules; refutation is "
        "cited to the literature, survivors listed as findings"
    ]
    assert payload["mismatches"] == ["distinctness g^1_12 vs g^2_17"]
    assert code == 1 and payload["pass"] is False
    code, out, _ = run(capsys, "report", "g23")
    assert code == 1 and "\nfindings:\n  - chain-12torsion g^2_17: 3 candidates" in out


def test_report_fails_when_septic_star_pencil_survives(monkeypatch, capsys):
    # the two-divisor curve rests on septic-star's g^1_12 refutation: survivors leave both
    # equalities of the chain uncontradicted
    _force_refutation(monkeypatch, "septic-star", (1, 12), verdict="survivors",
                      survivor_count=1)
    code, out, _ = run(capsys, "report", "g23", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert payload["mismatches"] == ["septic-star has no limit g^1_12",
                                     "septic-star lies in exactly two of the three divisors"]
    audit = payload["membership_audit"]
    assert audit["two_divisor_curve"]["holds"] is False
    assert [stmt["contradicted"] for stmt in audit["equality_chain"]] == [False, False]
    code, out, _ = run(capsys, "report", "g23")
    assert code == 1
    assert "\n  FAILED: septic-star lies in " in out
    assert out.count("\n  NOT CONTRADICTED: ") == 2 and "\n  CONTRADICTED: " not in out
    assert "\nkappa(M_23) >= 2 audit: FAIL\n" in out


def test_report_fails_when_tail_web_is_not_refuted(monkeypatch, capsys):
    _force_refutation(monkeypatch, "chain-9torsion-elliptic-tail", (3, 20), verdict="survivors",
                      survivor_count=1)
    code, out, _ = run(capsys, "report", "g23", "--include-tail-variant", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["pass"] is False
    assert payload["tail_variant"]["refute_g3_20"] == "survivors"
    assert payload["mismatches"] == ["chain-9torsion-elliptic-tail has no limit g^3_20"]


def test_report_states_the_gonal_comparison_it_makes(monkeypatch, capsys):
    # each gonal family's text compares its own slope with 13/2
    real = modspace.gonal_family_slope
    monkeypatch.setattr(modspace, "gonal_family_slope",
                        lambda g, k: Fraction(6) if k == 2 else real(g, k))
    code, out, _ = run(capsys, "report", "g23")
    assert code == 0
    assert "\n  gonal family k=2: slope 6 (<= 13/2)\n" in out
    assert "\n  gonal family k=3: slope 216/29 (> 13/2)\n" in out


@given(st.data())
def test_random_curve_round_trip(data):
    shape = data.draw(st.sampled_from(["star", "chain"]))
    if shape == "star":
        hub_genus = data.draw(st.integers(3, 20))
        ntails = data.draw(st.integers(1, 6))
        facts = None
        kind = "general"
        if data.draw(st.booleans()):
            kind = "factsheet"
            facts = FactSheet((SeriesDimFact(1, 12, data.draw(st.integers(0, 9))),),
                              gonality=data.draw(st.integers(2, 8)))
        hub = Component("H", hub_genus, kind, tuple(f"p{i}" for i in range(ntails)), facts=facts)
        tails = tuple(Component(f"T{i}", 1, "elliptic", (f"p{i}",)) for i in range(ntails))
        nodes = tuple(Node((("H", f"p{i}"), (f"T{i}", f"p{i}"))) for i in range(ntails))
        curve = CompactCurve("random-star", hub_genus + ntails, (hub,) + tails, nodes)
    else:
        ga = data.draw(st.integers(2, 15))
        gb = data.draw(st.integers(2, 15))
        order = data.draw(st.integers(2, 14))
        curve = CompactCurve(
            "random-chain", ga + gb + 1,
            (
                Component("A", ga, "general", ("p",)),
                Component("E", 1, "elliptic", ("p", "q"),
                          torsion=(TorsionPair(("p", "q"), order),)),
                Component("B", gb, "general", ("q",)),
            ),
            (Node((("A", "p"), ("E", "p"))), Node((("E", "q"), ("B", "q")))),
        )
    desc = curvefile.CurveDescription(curve, ())
    doc = curvefile.curve_to_json(desc)
    again = curvefile.curve_from_json(json.loads(json.dumps(doc)))
    assert again.curve == curve


def test_report_requires_known_target(capsys):
    code, _, err = run(capsys, "report", "g24")
    assert code == 2 and "unknown report target" in err
