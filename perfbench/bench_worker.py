"""One client in a closed loop over the in-process workloads.

    python perfbench/bench_worker.py WORKLOAD WORKDIR (--seconds S | --once) [--trace SPANS]

WORKDIR holds the generated inputs (``jobs.json`` and the curve files for
``refute-sweep``, ``queries.jsonl`` for ``schubert-queries``).  With
``--seconds`` the worker runs jobs in input order, wrapping around, until S
seconds have passed; with ``--once`` it runs every input exactly once.
``--trace`` records spans during the jobs and writes them to SPANS.  With
``--seconds`` a reference pass (bench_ref.py) runs first and then after
every REF_EVERY seconds of jobs and at the end, outside the job timings.
The result, one JSON document on stdout, lists each job's input index, wall
time and the number of reference passes before it, the reference passes'
seconds, the first output seen for each input, and whether every later
output for that input was identical to it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from contextlib import ExitStack
from pathlib import Path

from bench_inputs import SESSION
from bench_ref import timed_reference

# Seconds of jobs between reference passes.  The host's speed flips within a
# second, so the passes must be frequent for their mean to track it.
REF_EVERY = 0.2


def sweep_runner(workdir: Path, stack: ExitStack):
    from bnlimits import curvefile, limit_checker
    from bnlimits.numerology import SeriesType

    jobs = json.loads((workdir / "jobs.json").read_text(encoding="utf-8"))
    for job in jobs:
        job["path"] = workdir / job["file"]

    def run(job: dict):
        desc = curvefile.load_curve_file(job["path"])
        t = SeriesType(desc.curve.genus, job["r"], job["d"])
        report = limit_checker.refute(desc.curve, t)
        verdicts = [limit_checker.verify_witness(desc.curve, t, s.assignment_dict()).verdict
                    for s in report.survivors]
        return report, verdicts

    def output(result) -> dict:
        report, verdicts = result
        return {
            "verdict": report.verdict,
            "candidates": report.candidates_examined,
            "survivors": report.survivor_count,
            "listed": [s.to_json() for s in report.survivors],
            "rule_hits": dict(report.rule_hits),
            "verify": verdicts,
        }

    return len(jobs), jobs.__getitem__, run, output


def query_runner(workdir: Path, stack: ExitStack):
    from bnlimits import curves, schubert
    from bnlimits.numerology import RamificationSeq, SeriesType

    # read one line per job, so that the stream does not add to the peak RSS
    stream = stack.enter_context(open(workdir / "queries.jsonl", encoding="utf-8"))
    count = sum(1 for _ in stream)

    sessions = 0

    def load(i: int) -> tuple[int, dict]:
        nonlocal sessions
        if i == 0:
            stream.seek(0)
        if i % SESSION == 0:
            if sessions:  # a fresh worker starts with an empty cache
                schubert.lr_coefficients.cache_clear()
            sessions += 1
        return i, json.loads(stream.readline())

    def run(item: tuple[int, dict]) -> bool:
        i, q = item
        r, d = q["r"], q["d"]
        t = SeriesType(q["g"], r, d)
        rams = [RamificationSeq(tuple(a), r, d) for a in q["rams"]]
        if len(rams) == 1 and i % 2:
            # odd one-point queries take the Schubert side of the clamp
            # criteria, which the oracle checks against the clamp afterwards
            cusp = RamificationSeq((0,) + (1,) * r, r, d)
            return schubert.bn_condition(t, rams + [cusp] * q["cusps"])
        return curves.general_pointed_check(t, rams, q["cusps"]).passed

    return count, load, run, lambda result: result


RUNNERS = {"refute-sweep": sweep_runner, "schubert-queries": query_runner}


def peak_rss_kb() -> int:
    """Peak resident set of this process image.

    ru_maxrss would also count the parent's peak, which the child inherits
    across fork and exec; VmHWM starts afresh with the new image.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(RUNNERS))
    parser.add_argument("workdir", type=Path)
    length = parser.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float)
    length.add_argument("--once", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    # Per-job records live in flat arrays and the first outputs in a list
    # sized up front, so that the worker's own bookkeeping does not make the
    # peak RSS grow with the number of jobs a run reaches.
    job_index, job_seconds, job_segment = array("i"), array("d"), array("i")
    refs: list[float] = []
    mismatched: set[int] = set()
    with ExitStack() as stack:
        count, load, run, output = RUNNERS[args.workload](args.workdir, stack)
        first: list = [None] * count  # no job returns None
        ref_wall = ref_cpu = 0.0

        def reference() -> None:
            nonlocal ref_wall, ref_cpu
            c0 = time.process_time()
            refs.append(timed_reference())
            ref_wall += refs[-1]
            ref_cpu += time.process_time() - c0

        cpu0 = time.process_time()
        began = time.perf_counter()
        if not args.once:
            reference()
        last_ref = time.perf_counter()
        i = 0
        while True:
            index = i % count
            item = load(index)
            if tracer is not None:
                tracer.job = i
            t0 = time.perf_counter()
            result = run(item)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.job = -1
            job_index.append(index)
            job_seconds.append(t1 - t0)
            job_segment.append(len(refs) - 1)
            if first[index] is None:
                first[index] = result
            elif result != first[index]:
                mismatched.add(index)
            i += 1
            if args.once and i == count:
                break
            if not args.once and t1 - began >= args.seconds:
                reference()
                break
            if not args.once and t1 - last_ref >= REF_EVERY:
                reference()
                last_ref = time.perf_counter()
        elapsed = time.perf_counter() - began - ref_wall
        cpu = time.process_time() - cpu0 - ref_cpu

    peak_kb = peak_rss_kb()
    payload = {
        "jobs": [list(job) for job in zip(job_index, job_seconds, job_segment)],
        "refs": refs,
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "peak_rss_kb": peak_kb,
        "outputs": {str(k): output(v) for k, v in enumerate(first) if v is not None},
        "mismatched": sorted(mismatched),
    }
    if tracer is not None:
        payload["trace"] = tracer.summary()
        tracer.write(args.trace)
    json.dump(payload, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
