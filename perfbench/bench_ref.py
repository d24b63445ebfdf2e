"""A fixed pure-Python reference pass, timed next to the jobs.

On a shared 2-core host the interpreter's speed flips between a fast and a
slow mode, up to a factor of two apart, within a second, and the share of
slow time drifts for minutes (another tenant on the sibling hardware
thread); job wall time and CPU time move alike.  No statistic over one run
removes a slow phase that lasts the whole run.  So the gated job time is
relative: each job's seconds divided by the mean of the two reference
timings that bracket it.  The pass is a small pair scan over vanishing-sequence-like
tuples, the same kind of interpreter work as the bnlimits hot loops, and it
calls no bnlimits code, so no change to the program moves it.
"""

from __future__ import annotations

from itertools import combinations
from time import perf_counter

N, K, D = 10, 3, 9  # 120^2 = 14,400 pairs: about 18 ms on an idle core


def reference() -> int:
    seqs = list(combinations(range(N), K))
    index = {s: i for i, s in enumerate(seqs)}
    hits: dict[str, int] = {}
    total = 0
    for a in seqs:
        caps = tuple(D - a[K - 1 - j] for j in range(K))
        for b in seqs:
            if any(b[j] > caps[j] for j in range(K)):
                key = "over"
            elif all(a[i] + b[K - 1 - i] == D for i in range(K)):
                key = "exact"
            else:
                key = "under"
            hits[key] = hits.get(key, 0) + 1
            total += index[b] & 3
    return total + hits["exact"]


def timed_reference(passes: int = 1) -> float:
    """Mean seconds of one pass over `passes` consecutive passes."""
    t0 = perf_counter()
    for _ in range(passes):
        reference()
    return (perf_counter() - t0) / passes


def relative(seconds: list[float], segment: list[int], refs: list[float]) -> list[float]:
    """Each job's seconds over the mean of the reference passes around it:
    job i ran between refs[segment[i]] and refs[segment[i] + 1]."""
    return [s / ((refs[k] + refs[k + 1]) / 2) for s, k in zip(seconds, segment)]
