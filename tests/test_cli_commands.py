"""The bytes of every CLI command: stdout, stderr and exit code, pinned in one golden.

Each invocation runs in process through `cli.main` with an 80-column
terminal, so `--help` wraps the same everywhere; the bundled fixture
directory is written as <fixtures>, and the curve files under tests/curves are
named relative to the repository root, where every invocation runs.  Run this
file as a script to rewrite tests/golden/cli_commands.json from the current code.

`_cold` runs one command line as `python -m bnlimits` in a new process instead:
the tests run three lines that way, and CI every line of the golden (README,
"Install and test", gives the command).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from bnlimits import curvefile
from bnlimits.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_commands.json"
# a fact-sheet leaf behind an elliptic link: its survivors are flagged unconfirmed
LINK_TO_FACTSHEET = "tests/curves/link_to_factsheet.json"
# the 9-torsion chain without its torsion: every torsion count walks one class per axis
NO_TORSION = "tests/curves/chain_no_torsion.json"
# eight elliptic curves with 3-torsion links: a trigonal limit, so 2 g^1_3 survives
CHAIN8 = "tests/curves/elliptic_chain_8_3torsion.json"
# the 12-torsion chain's pencil on 9-torsion: an incompatible node and a failing component
REJECTED = "tests/curves/chain_9torsion_pencil_rejected.json"
BUNDLED = ("chain-9torsion", "chain-12torsion", "chain-9torsion-elliptic-tail", "septic-star")
WITNESSES = (("chain-9torsion", "2", "17", "g2_17"), ("chain-9torsion-elliptic-tail", "2", "17", "g2_17"),
             ("septic-star", "2", "15", "g2_15"), ("septic-star", "3", "20", "g3_20"))
SLOPES = (("bound", "23"), ("bn", "23"), ("canonical", "23"), ("gonal", "23", "3"),
          ("plane-pencil", "10"), ("boundary-table",))
COMMANDS = [
    *[(*cmd, *fmt) for fmt in ((), ("--json",)) for cmd in (
        ("rho", "23", "1", "12"),
        ("triples", "23"),
        ("triples", "4"),  # 5 has no admissible factorization
        ("exist", "11", "2", "17", "--ram", "4,8,11"),  # clamp
        ("exist", "10", "2", "17", "--ram", "4,8,11", "--cusps", "1"),  # cusp clamp
        ("exist", "10", "2", "17", "--ram", "4,8,12", "--cusps", "1"),
        ("exist", "4", "1", "2"),  # no condition: clamp at zero ramification
        ("exist", "4", "1", "4", "--cusps", "1"),  # one cusp alone: Schubert
        ("exist", "9", "2", "17", "--ram", "4,8,11", "--cusps", "2"),
        ("exist", "2", "2", "7", "--ram", "0,0,4", "--ram", "0,0,3", "--cusps", "2"),
        # two points without cusps, yes and no: the two-point criterion, labelled Schubert
        ("exist", "10", "2", "17", "--ram", "4,8,11", "--ram", "0,1,1"),
        ("exist", "10", "2", "17", "--ram", "4,8,11", "--ram", "0,1,2"),
        ("schubert", "1", "12", "--cusp-power", "23"),
        ("schubert", "2", "6", "--index", "0,1,1", "--index", "1,1,2", "--cusp-power", "1"),
        ("class", "23"),
        ("class", "23", "--canonical"),
        ("decompose", "23"),
        ("decompose", "23", "2", "17"),
        *[("slope", *slope) for slope in SLOPES],
        ("limit", "refute", "chain-12torsion", "1", "12", "--expect", "refuted"),  # exit 1
        ("limit", "refute", "chain-9torsion", "2", "17", "--expect", "refuted"),
        ("limit", "verify", "chain-12torsion", "1", "12", "--witness", "g1_12"),
        ("limit", "refute", LINK_TO_FACTSHEET, "1", "4"),  # 16 survivors, each unconfirmed
        ("limit", "refute", CHAIN8, "2", "5"),  # refuted
        ("limit", "refute", CHAIN8, "2", "6"),  # survivors at rho = -4
        *[("limit", "verify", curve, r, d, "--witness", witness) for curve, r, d, witness in WITNESSES],
        ("limit", "verify", REJECTED, "1", "12", "--witness", "g1_12"),
        ("fixtures",),
        ("report", "g23"),
        ("report", "g23", "--include-tail-variant"),
    )],
    *[("limit", "refute", curve, *series) for curve in BUNDLED
      for series in (("0", "0"), ("1", "12"), ("2", "17"), ("3", "20"))],
    ("limit", "refute", "chain-9torsion", "3", "20", "--expect", "refuted"),
    ("exist", "5", "3", "15", "--ram", "0,1,2,3", "--ram", "0,1,3,3", "--ram", "0,1,2,3",
     "--ram", "1,2,3,3", "--cusps", "1"),
    # adjusted rho is 6 here, so the degree alone does not answer no: every branch is searched
    ("exist", "1", "3", "20", "--ram", "1,2,5,5", "--ram", "0,1,1,1", "--ram", "3,3,3,11",
     "--ram", "0,1,5,14", "--cusps", "1"),
    ("decompose", "23", "1", "12", "--json"),
    ("limit", "refute", LINK_TO_FACTSHEET, "1", "3"),  # refuted behind the link
    *[("limit", "refute", LINK_TO_FACTSHEET, "1", "4", "--naive", *fmt) for fmt in ((), ("--json",))],
    *[("limit", "refute", NO_TORSION, *series) for series in (
        ("1", "12"), ("2", "17"), ("3", "20"), ("3", "20", "--json"))],
    # input errors exit 2 with one line on stderr
    ("class", "4"),
    ("decompose", "4", "--json"),
    ("decompose", "23", "2"),  # r without d
    ("decompose", "2", "1", "3"),  # the genus check comes before the r and d checks
    ("decompose", "2", "1"),
    ("class", "2"),
    ("class", "2", "--canonical"),
    ("slope", "canonical", "3"),
    ("slope", "bn", "4"),
    # a genus above numerology.MAX_GENUS, refused before any work that grows with it
    ("triples", "1000000000"),
    ("class", "1000000"),
    ("class", "1000000", "--canonical"),
    ("slope", "bn", "1000000"),
    ("slope", "canonical", "1000000"),
    ("decompose", "1000000", "--json"),
    # and a series dimension above it, before tuples of r + 1 entries are built
    ("exist", "1", "1000000000", "1000000000"),
    ("schubert", "1000000000", "1000000000"),
    ("limit", "verify", "septic-star", "3", "20"),
    ("limit", "verify", "septic-star", "3", "20", "--witness", "g2_15", "--json"),
    ("limit", "verify", "chain-12torsion", "1", "12", "--witness", "nosuch"),
    ("report", "g24", "--json"),
    ("exist", "11", "2", "17", "--ram", "4,x,11"),
    ("limit", "refute", "tests/curves/malformed_component_genus.json", "1", "12"),
    # argparse: help exits 0 on stdout, a usage error exits 2 on stderr
    ("--help",),
    ("limit", "--help"),
    ("report", "--help"),
    ("slope", "--help"),
    ("slope", "gonal", "--help"),
    ("exist", "--help"),
    *[(name, "--help") for name in ("rho", "triples", "schubert", "class", "decompose",
                                    "fixtures")],
    *[("slope", which, "--help")
      for which in ("bound", "bn", "canonical", "plane-pencil", "boundary-table")],
    ("rho", "23", "1"),
    (),  # no subcommand
    ("nosuch",),  # an invalid choice
    ("report", "g23", "--bogus"),
    ("limit", "refute"),
]


def _case(args: str, code: int, out: str, err: str) -> dict:
    """One invocation's outcome in the form the golden stores."""
    return {"args": args, "exit": code,
            "stdout": out.replace(str(curvefile.fixture_dir()), "<fixtures>").split("\n"),
            "stderr": err.split("\n")}


def _run(args: tuple[str, ...]) -> dict:
    """stdout, stderr and exit code of one invocation through `cli.main`, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    return _case(" ".join(args), code, out.getvalue(), err.getvalue())


def _cold(line: str, timeout: float = 60) -> dict:
    """The same for a command line as the golden writes it, run as `python -m bnlimits` at the root."""
    done = subprocess.run([sys.executable, "-m", "bnlimits", *line.split()],
                          capture_output=True, cwd=ROOT, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80"))
    return _case(line, done.returncode, done.stdout.decode(), done.stderr.decode())


@cache
def _golden() -> dict:
    return {case["args"]: case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_lists_every_command_once():
    assert list(_golden()) == [" ".join(args) for args in COMMANDS]
    # _cold splits a line at its spaces, so no token may hold whitespace or be empty
    assert all(token.split() == [token] for args in COMMANDS for token in args)


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_command_bytes_match_golden(monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(ROOT)
    assert _run(args) == _golden()[" ".join(args)]


# `python -m bnlimits` ends in cli.entry, which freezes the heap before it exits:
# stdout, stderr and the exit code read as main leaves them
@pytest.mark.parametrize("line", ["report g23 --json",
                                  "limit refute chain-12torsion 1 12 --expect refuted",  # exit 1
                                  "class 4"])  # exit 2
def test_cold_process_matches_golden(line):
    assert _cold(line) == _golden()[line]


# the full scan must print every pinned text-mode refutation that exits 0 or 1 byte for byte
@pytest.mark.parametrize("args", [
    args for args in COMMANDS
    if args[:2] == ("limit", "refute") and not {"--json", "--naive"} & set(args)
    and _golden().get(" ".join(args), {}).get("exit") in (0, 1)], ids=" ".join)
def test_naive_scan_matches_golden(monkeypatch, args):
    monkeypatch.chdir(ROOT)
    naive, pruned = _run((*args, "--naive")), _golden()[" ".join(args)]
    assert (naive["stdout"], naive["exit"]) == (pruned["stdout"], pruned["exit"])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.chdir(ROOT)
    cases = [_run(args) for args in COMMANDS]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
