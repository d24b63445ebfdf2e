"""The bytes of every CLI command: stdout, stderr and exit code, pinned in one golden.

Each invocation runs in process through `cli.main` with an 80-column
terminal, so `--help` wraps the same everywhere; the bundled fixture
directory is written as <fixtures>.  Run this file as a script to rewrite
tests/golden/cli_commands.json from the current code.
"""

import contextlib
import io
import json
import os
from functools import cache
from pathlib import Path

import pytest

from bnlimits import curvefile
from bnlimits.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_commands.json"
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
        ("fixtures",),
        ("report", "g23"),
    )],
    # input errors exit 2 with one line on stderr
    ("class", "4"),
    ("decompose", "4", "--json"),
    ("slope", "bn", "4"),
    ("limit", "verify", "septic-star", "3", "20"),
    ("limit", "verify", "septic-star", "3", "20", "--witness", "g2_15", "--json"),
    ("report", "g24", "--json"),
    # argparse: help exits 0 on stdout, a usage error exits 2 on stderr
    ("--help",),
    ("limit", "--help"),
    ("rho", "23", "1"),
]


def _run(args: tuple[str, ...]) -> dict:
    """stdout, stderr and exit code of one invocation, in the form the golden stores."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    fixtures = str(curvefile.fixture_dir())
    return {"args": " ".join(args), "exit": code,
            "stdout": out.getvalue().replace(fixtures, "<fixtures>").split("\n"),
            "stderr": err.getvalue().split("\n")}


@cache
def _golden() -> dict:
    return {case["args"]: case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_lists_every_command_once():
    assert list(_golden()) == [" ".join(args) for args in COMMANDS]


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_command_bytes_match_golden(monkeypatch, args):
    monkeypatch.setenv("COLUMNS", "80")
    assert _run(args) == _golden()[" ".join(args)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    cases = [_run(args) for args in COMMANDS]
    GOLDEN.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
