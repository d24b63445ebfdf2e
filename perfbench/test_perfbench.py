"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_inputs  # noqa: E402
import bench_oracles  # noqa: E402
import bench_ref  # noqa: E402
import run  # noqa: E402


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic(tmp_path):
    jobs_a = bench_inputs.sweep_inputs(7, tmp_path / "a")
    jobs_b = bench_inputs.sweep_inputs(7, tmp_path / "b")
    jobs_c = bench_inputs.sweep_inputs(8, tmp_path / "c")
    assert jobs_a == jobs_b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")

    bench_inputs.write_queries(7, tmp_path / "q1.json", 300)
    bench_inputs.write_queries(7, tmp_path / "q2.json", 300)
    bench_inputs.write_queries(8, tmp_path / "q3.json", 300)
    assert (tmp_path / "q1.json").read_bytes() == (tmp_path / "q2.json").read_bytes()
    assert (tmp_path / "q1.json").read_bytes() != (tmp_path / "q3.json").read_bytes()


def test_sweep_covers_every_shape_within_the_cap(tmp_path):
    jobs = bench_inputs.sweep_inputs(3, tmp_path)
    assert {job["shape"] for job in jobs} == set(bench_inputs.SWEEP_SHAPES)
    for job in jobs:
        doc = json.loads((tmp_path / job["file"]).read_text(encoding="utf-8"))
        assert abs(bench_inputs.rho(doc["genus"], job["r"], job["d"])) <= bench_inputs.RHO_SPAN
        assert job["d"] >= job["r"] + 2


@pytest.fixture(scope="module")
def audit_output(tmp_path_factory):
    job = run.audit_job(tmp_path_factory.mktemp("audit"), traced=False)
    assert job["code"] == 0
    return job


def test_corrupted_audit_expectation_fails(audit_output, tmp_path, monkeypatch):
    checker = run.Checker("audit-g23", tmp_path, [])
    assert checker.audit(audit_output)
    monkeypatch.setitem(bench_oracles.AUDIT_WITNESSES, "septic-star g^3_20", "confirmed")
    assert not run.Checker("audit-g23", tmp_path, []).audit(audit_output)


def _tiny_queries(tmp_path: Path, count: int = 120) -> run.Checker:
    queries = bench_inputs.write_queries(5, tmp_path / "queries.jsonl", count)
    return run.Checker("schubert-queries", tmp_path, queries)


def test_corrupted_query_expectation_raises_fail_ratio(tmp_path, monkeypatch):
    result = run.run_untraced("schubert-queries", 0.3, tmp_path, _tiny_queries(tmp_path))
    assert result["failed"] == 0 and result["attempted"] > 0

    truth = bench_oracles.two_point_exists
    monkeypatch.setattr(bench_oracles, "two_point_exists", lambda *a: not truth(*a))
    result = run.run_untraced("schubert-queries", 0.3, tmp_path, _tiny_queries(tmp_path))
    assert result["failed"] / result["attempted"] > 0


def test_exact_counts_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    jobs = bench_inputs.sweep_inputs(11, tmp_path)[:12]
    (tmp_path / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    outputs, exact = [], []
    for traced in (True, True, False):
        checker = run.Checker("refute-sweep", tmp_path, jobs)
        payload = run.worker("refute-sweep", tmp_path, None, traced)
        assert checker.pass_failures(payload) == 0
        outputs.append(payload["outputs"])
        if traced:
            counts = run.refutation_counts(payload["outputs"].values())
            layers = run.layer_metrics(payload["trace"], counts)
            assert layers["limit_checker.refute_calls"] == len(jobs)
            assert layers["limit_checker.candidates"] > 0
            exact.append({m: layers[m] for m, unit in run.units("per_layer").items()
                          if unit == "count"})
    assert outputs[0] == outputs[1] == outputs[2]  # tracing changes no output
    assert exact[0] == exact[1]


def test_tail_needs_ten_jobs_beyond():
    assert run.tail([1.0] * 19) is None
    pct, value = run.tail([float(i) for i in range(1, 101)])
    assert pct == 90.0 and value == 90.0


def test_job_time_is_relative_to_the_bracketing_reference_passes():
    assert bench_ref.relative([1.0, 3.0, 0.5], [0, 1, 1], [0.5, 1.5, 0.5]) == [1.0, 3.0, 0.5]


def test_draws_take_one_value_from_each_stratum():
    draw = bench_inputs.Draws(random.Random(1), 10)
    values = sorted(draw.uniform("split") for _ in range(10))
    assert all(k / 10 <= v < (k + 1) / 10 for k, v in enumerate(values))
