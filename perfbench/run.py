"""bnlimits benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is not installed: every
child process gets ``PYTHONPATH=src``, as the test suite does.

Workloads (see BENCHMARK.json for why each was chosen):

* ``audit-g23`` runs ``bnlimits report g23 --include-tail-variant --json`` as
  a cold process, again and again.
* ``refute-sweep`` runs, in one worker process, load -> refute ->
  verify_witness on every listed survivor, over seeded curve files.
* ``schubert-queries`` runs, in one worker process, a seeded stream of
  existence queries on general pointed curves, in sessions of
  ``bench_inputs.SESSION`` queries that each start from an empty
  Littlewood-Richardson cache.

With ``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
and prints, not gated, the median job in seconds, jobs per second, CPU
seconds per job, the highest percentile with ten jobs beyond it and the fail
ratio.  The gated job time, ``job_rel.gmean``, is the geometric mean over
jobs of a job's seconds divided by the mean of the two fixed reference
timings just before and just after it (bench_ref.py): the host's speed
drifts too much for seconds alone to tell two commits apart.  A geometric
mean, not a median, because sweep jobs fall in clusters from 1 ms to 50 ms
and the median jumps between them: over repeated runs it moved two to three
times as much.  With ``--trace 1`` it
alternates untraced and traced passes over the inputs, each in a fresh
process, reports the per-layer metrics of the traced passes (mean per pass)
plus the tracing overhead, and writes the last traced pass's spans to
``.perfbench_out/spans-<workload>.csv.gz``.  Either way every output is
checked after the timed region; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import bench_inputs  # noqa: E402
import bench_oracles  # noqa: E402
from bench_ref import relative, timed_reference  # noqa: E402

WORKLOADS = ("audit-g23", "refute-sweep", "schubert-queries")
AUDIT_ARGS = ["report", "g23", "--include-tail-variant", "--json"]
AUDIT_REF_PASSES = 8  # reference passes between two cold audit runs
SETUP_RUNS = 5  # before and again after the timed loop, which spans host speed phases
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import bnlimits; "
                "print(time.perf_counter() - t0)")
CHILD_TIMEOUT = 150
RULE_FAMILIES = (
    "elliptic-pair-bound", "elliptic-torsion-divisibility", "elliptic-single-pole",
    "general-pointed-clamp", "general-pointed-cusp-clamp", "schubert-nonvanishing",
    "factsheet-ramification-count",
)
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
# printed with the end-to-end metrics; the host's speed drifts by up to a
# factor of two for minutes, so over ten runs these spread up to 0.33, beyond
# any bound BENCHMARK.json may set (job_rel.gmean divides that drift out)
UNGATED_UNITS = {"job_s.p50": "s", "jobs_per_s": "1/s", "cpu_s_per_job": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def python(args: list[str], **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT, **kw)


# ---------------------------------------------------------------------------
# set-up and the three job sources


def measure_setup(walls: list[float], imports: list[float]) -> None:
    """Append SETUP_RUNS wall times of a fresh interpreter importing bnlimits,
    and of the import alone as the child measures it."""
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = python(["-c", IMPORT_PROBE], check=True, text=True)
        walls.append(time.perf_counter() - t0)
        imports.append(float(done.stdout.split()[-1]))


def audit_job(workdir: Path, traced: bool) -> dict:
    """One cold CLI run; CPU time from the children's rusage difference."""
    args = ["-m", "bnlimits", *AUDIT_ARGS]
    summary = workdir / "trace-summary.json"
    if traced:
        args = [str(HERE / "bench_trace.py"), str(summary), str(OUT / "spans-audit-g23.csv.gz"),
                "--", *AUDIT_ARGS]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = python(args)
    seconds = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    job = {
        "seconds": seconds,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "code": done.returncode,
        "stdout": done.stdout,
    }
    if traced and done.returncode == 0:
        job["trace"] = json.loads(summary.read_text(encoding="utf-8"))
    return job


def worker(workload: str, workdir: Path, seconds: float | None, traced: bool) -> dict:
    args = [str(HERE / "bench_worker.py"), workload, str(workdir)]
    args += ["--once"] if seconds is None else ["--seconds", str(seconds)]
    if traced:
        args += ["--trace", str(OUT / f"spans-{workload}.csv.gz")]
    done = python(args)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker failed:\n{done.stderr.decode(errors='replace')}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# checking outputs (outside the timed region)


class Checker:
    """Counts failed jobs; problems are computed once per distinct input."""

    def __init__(self, workload: str, workdir: Path, inputs: list) -> None:
        self.workload = workload
        self.workdir = workdir
        self.inputs = inputs
        self.problems: dict = {}
        self.first: dict = {}  # first output per input, to compare later passes with
        self.audit_first: bytes | None = None

    def audit(self, job: dict) -> bool:
        if job["code"] != 0:
            return False
        if self.audit_first is None:
            self.audit_first = job["stdout"]
            self.problems["audit"] = bench_oracles.check_audit(job["stdout"])
        return not self.problems["audit"] and job["stdout"] == self.audit_first

    def input_ok(self, index: int, out) -> bool:
        if index not in self.first:
            self.first[index] = out
            if self.workload == "refute-sweep":
                self.problems[index] = self._sweep(index, out)
            else:
                self.problems[index] = bench_oracles.check_query(self.inputs[index], out)
        elif out != self.first[index] and not self.problems[index]:
            self.problems[index] = ["output differs between passes"]
        return not self.problems[index]

    def _sweep(self, index: int, out: dict) -> list[str]:
        job = self.inputs[index]
        doc = json.loads((self.workdir / job["file"]).read_text(encoding="utf-8"))
        problems = bench_oracles.check_sweep(job, doc, out)
        if comb(job["d"] + 1, job["r"] + 1) <= bench_oracles.NAIVE_SEQ_CAP:
            from bnlimits import curvefile, limit_checker
            from bnlimits.numerology import SeriesType

            curve = curvefile.curve_from_json(doc).curve
            naive = limit_checker.refute(curve, SeriesType(curve.genus, job["r"], job["d"]),
                                         prune=False)
            problems += bench_oracles.check_naive(out, naive)
        return problems

    def pass_failures(self, payload: dict) -> int:
        """Failed jobs of one worker pass: wrong output, or an output that
        differs between jobs on the same input."""
        bad = set(payload["mismatched"])
        for key, out in payload["outputs"].items():
            if not self.input_ok(int(key), out):
                bad.add(int(key))
        return sum(1 for job in payload["jobs"] if job[0] in bad)

    def report(self) -> list[str]:
        return [f"{key}: {p}" for key, problems in self.problems.items() for p in problems]


# ---------------------------------------------------------------------------
# metrics


def tail(seconds: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile on TAIL_LADDER with at
    least ten jobs beyond it, by nearest rank; None for too few jobs."""
    ordered = sorted(seconds)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-int(pct * n) // 100))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def layer_metrics(trace: dict, counts: dict) -> dict:
    names, modules = trace["names"], trace["modules"]

    def name(n: str, field: int) -> float:
        return names.get(n, [0, 0.0, 0.0])[field]

    def module(m: str, field: int) -> float:
        return modules.get(m, [0, 0.0, 0.0])[field]

    hits, misses = trace["lr_cache"]
    refute_s = name("limit_checker.refute", 1)
    out = {
        "limit_checker.refute_calls": name("limit_checker.refute", 0),
        "limit_checker.refute_self_s": name("limit_checker.refute", 2),
        "limit_checker.candidates_per_s": counts["candidates"] / refute_s if refute_s else 0.0,
        "limit_checker.verify_calls": name("limit_checker.verify_witness", 0),
        "limit_checker.verify_self_s": name("limit_checker.verify_witness", 2),
        "limit_checker.candidates": counts["candidates"],
        "limit_checker.survivors": counts["survivors"],
    }
    for family in RULE_FAMILIES:
        out[f"limit_checker.hits.{family}"] = counts["hits"].get(family, 0)
    out.update({
        "curvefile.calls": module("curvefile", 0),
        "curvefile.self_s": module("curvefile", 2),
        "curves.oracle_calls": module("curves", 0),
        "curves.oracle_s": module("curves", 1),
        "schubert.bn_condition_calls": name("schubert.bn_condition", 0),
        "schubert.bn_condition_self_s": name("schubert.bn_condition", 2),
        "schubert.lr_product_calls": name("schubert.lr_product", 0),
        "schubert.lr_product_s": name("schubert.lr_product", 1),
        "schubert.column_mult_calls": name("schubert.multiply_by_column", 0),
        "schubert.column_mult_s": name("schubert.multiply_by_column", 1),
        "schubert.lr_cache_hits": hits,
        "schubert.lr_cache_misses": misses,
        "schubert.lr_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "numerology.clamp_calls": (name("numerology.pointed_exists", 0)
                                   + name("numerology.cusp_pointed_exists", 0)),
        "numerology.clamp_s": (name("numerology.pointed_exists", 1)
                               + name("numerology.cusp_pointed_exists", 1)),
        "modspace.calls": module("modspace", 0),
        "modspace.s": module("modspace", 1),
        "cli.self_s": module("cli", 2),
    })
    return out


def refutation_counts(reports) -> dict:
    """Exact candidate, survivor and per-rule-family counts over reports."""
    counts = {"candidates": 0, "survivors": 0, "hits": {}}
    for rep in reports:
        counts["candidates"] += rep["candidates"]
        counts["survivors"] += rep["survivors"]
        for key, value in rep["rule_hits"].items():
            family = key.split("@")[0]
            counts["hits"][family] = counts["hits"].get(family, 0) + value
    return counts


def audit_counts(stdout: bytes) -> dict:
    doc = json.loads(stdout)
    return refutation_counts(
        {"candidates": rep["candidates_examined"], "survivors": rep["survivor_count"],
         "rule_hits": rep["rule_hits"]}
        for rep in doc["limit_checks"].values())


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# the run


def prepare(workload: str, seed: int, workdir: Path, traced: bool) -> list:
    if workload == "refute-sweep":
        jobs = bench_inputs.sweep_inputs(seed, workdir)
        (workdir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
        return jobs
    if workload == "schubert-queries":
        # a traced pass is the first session of the stream
        count = bench_inputs.SESSION if traced else bench_inputs.QUERY_COUNT
        return bench_inputs.write_queries(seed, workdir / "queries.jsonl", count)
    workdir.mkdir(parents=True, exist_ok=True)
    return []


def run_untraced(workload: str, seconds: float, workdir: Path, checker: Checker) -> dict:
    if workload == "audit-g23":
        # reference passes bracket every job: ref, job, ref, job, ..., ref
        jobs, refs = [], []
        began = time.perf_counter()
        refs.append(timed_reference(AUDIT_REF_PASSES))
        while not jobs or time.perf_counter() - began < seconds:
            jobs.append(audit_job(workdir, traced=False))
            refs.append(timed_reference(AUDIT_REF_PASSES))
        elapsed = time.perf_counter() - began - AUDIT_REF_PASSES * sum(refs)
        failed = sum(1 for job in jobs if not checker.audit(job))
        times = [job["seconds"] for job in jobs]
        rel = relative(times, list(range(len(jobs))), refs)
        cpu = sum(job["cpu_s"] for job in jobs)
        # children inherit this process's peak across fork and exec, which is
        # below a report's (about 15 MB against 22 MB)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        payload = worker(workload, workdir, seconds, traced=False)
        failed = checker.pass_failures(payload)
        times = [job[1] for job in payload["jobs"]]
        rel = relative(times, [job[2] for job in payload["jobs"]], payload["refs"])
        elapsed, cpu, rss_kb = payload["elapsed_s"], payload["cpu_s"], payload["peak_rss_kb"]
    return {
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "job_rel.gmean": statistics.geometric_mean(rel),
            "job_s.p50": statistics.median(times),
            "jobs_per_s": len(times) / elapsed,
            "cpu_s_per_job": cpu / len(times),
            "peak_rss_mb": rss_kb / 1024,
        },
        "tail": tail(times),
    }


def run_traced(workload: str, seconds: float, workdir: Path, checker: Checker) -> dict:
    """Alternate untraced and traced passes, each in a fresh process, until
    the time is up; per-layer numbers are means over the traced passes."""
    attempted = failed = 0
    ratios, layers = [], []
    began = time.perf_counter()
    while not ratios or time.perf_counter() - began < seconds:
        p50 = []
        for traced in (False, True):
            if workload == "audit-g23":
                job = audit_job(workdir, traced)
                attempted += 1
                failed += not checker.audit(job)
                p50.append(job["seconds"])
                if traced and job["code"] == 0:
                    counts = audit_counts(job["stdout"])
                    layers.append(layer_metrics(job["trace"], counts))
            else:
                payload = worker(workload, workdir, None, traced)
                attempted += len(payload["jobs"])
                failed += checker.pass_failures(payload)
                p50.append(statistics.median(job[1] for job in payload["jobs"]))
                if traced:
                    reports = payload["outputs"].values() if workload == "refute-sweep" else []
                    layers.append(layer_metrics(payload["trace"], refutation_counts(reports)))
        ratios.append(p50[1] / p50[0])
    if not layers:
        raise RuntimeError("no traced pass completed")
    exact = [m for m, unit in units("per_layer").items() if unit == "count"]
    if any(len({layer[m] for layer in layers}) > 1 for m in exact):
        failed += 1  # identical passes must repeat every count exactly
    metrics = {m: statistics.fmean(layer[m] for layer in layers) for m in layers[0]}
    metrics["tracing.overhead_ratio"] = statistics.median(ratios)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bnlimits" / "__init__.py").is_file():
        print(f"error: no bnlimits sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        walls: list[float] = []
        imports: list[float] = []
        measure_setup(walls, imports)
        inputs = prepare(args.workload, args.seed, workdir, bool(args.trace))
        checker = Checker(args.workload, workdir, inputs)
        if args.trace:
            result = run_traced(args.workload, args.seconds, workdir, checker)
        else:
            result = run_untraced(args.workload, args.seconds, workdir, checker)
        measure_setup(walls, imports)
        if args.trace:
            result["metrics"]["setup.import_s"] = statistics.median(imports)
        else:
            result["metrics"]["setup_s"] = statistics.median(walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {result['attempted']} jobs, {result['failed']} failed "
          f"(fail_ratio {result['failed'] / result['attempted']:.4f})")
    for problem in checker.report()[:20]:
        print(f"  wrong: {problem}")
    metrics = {}
    for m, unit in units("per_layer" if args.trace else "end_to_end").items():
        value = result["metrics"].pop(m)
        metrics[m] = {"value": value, "unit": unit}
        print(f"  {m:48s} {value:.6g} {unit}")
    for m, value in result["metrics"].items():
        print(f"  {m + ' (not gated)':48s} {value:.6g} {UNGATED_UNITS[m]}")
    if result.get("tail"):
        pct, value = result["tail"]
        print(f"  {f'job_s.p{pct:g} (tail, not gated)':48s} {value:.6g} s")
    elif not args.trace:
        print("  job_s.tail: too few jobs for ten beyond any percentile, omitted")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
