"""Span tracing of the bnlimits layers, installed from outside the package.

install() wraps every public function of the seven modules and rebinds
each wrapper wherever the original is bound, including names imported into
other modules (``limit_checker.general_pointed_check`` is
``curves.general_pointed_check``).  Nothing under ``src/`` changes.

A call records a span (name, start, end, parent, job) when it crosses a
layer boundary: the innermost open span belongs to another module, or there
is none.  Calls inside a module are part of the open span, except for the
functions in INNER, which are the steps of ``bn_condition``.  Spans are
recorded only while a job is running, kept in flat arrays in memory and
written out when the run ends.

Run as a script, this file is the traced CLI: it installs the tracer, runs
``bnlimits.cli.main`` on the remaining arguments as job 0, and writes the
span summary to the given file.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from time import perf_counter

MODULES = ("cli", "curvefile", "curves", "limit_checker", "schubert", "numerology", "modspace")
INNER = frozenset({"schubert.lr_product", "schubert.multiply_by_column"})


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_job = array("i")
        self.open: list[int] = []  # span ids of the open spans, innermost last
        self.open_module: list[str] = []
        self.job = -1  # no span is recorded outside a job
        self.originals: dict[str, object] = {}

    def wrap(self, module: str, name: str, fn):
        full = f"{module}.{name}"
        name_id = self.name_ids.setdefault(full, len(self.names))
        if name_id == len(self.names):
            self.names.append(full)
        inner = full in INNER
        open_ids, open_module = self.open, self.open_module

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job < 0 or (open_module and open_module[-1] == module and not inner):
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(open_ids[-1] if open_ids else -1)
            self.span_job.append(self.job)
            self.end.append(0.0)
            open_ids.append(sid)
            open_module.append(module)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                open_ids.pop()
                open_module.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every module and rebind the wrappers."""
        import bnlimits

        modules = {m: importlib.import_module(f"bnlimits.{m}") for m in MODULES}
        replace: dict[int, object] = {}
        for mname, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                self.originals[f"{mname}.{name}"] = obj
                replace[id(obj)] = self.wrap(mname, name, obj)
        for namespace in [bnlimits, *modules.values()]:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in replace:
                    setattr(namespace, name, replace[id(obj)])

    def lr_cache(self) -> tuple[int, int]:
        info = self.originals["schubert.lr_coefficients"].cache_info()
        return info.hits, info.misses

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name, and per module.

        A span's self time is its duration minus the durations of its child
        spans.  A module's inclusive time counts only its outermost spans,
        those whose parent span belongs to another module.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        module_of = [name.split(".")[0] for name in self.names]
        per_name: dict[str, list] = {}
        per_module: dict[str, list] = {}
        for i in range(n):
            nid = self.span_name[i]
            row = per_name.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            mod = module_of[nid]
            mrow = per_module.setdefault(mod, [0, 0.0, 0.0])
            mrow[0] += 1
            mrow[2] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or module_of[self.span_name[p]] != mod:
                mrow[1] += dur[i]
        hits, misses = self.lr_cache()
        return {"spans": n, "names": per_name, "modules": per_module,
                "lr_cache": [hits, misses]}

    def write(self, path: str) -> None:
        """Write every span as CSV: job, name, start, end, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("job,name,start,end,parent\n")
            for i in range(len(self.start)):
                out.write(f"{self.span_job[i]},{self.names[self.span_name[i]]},"
                          f"{self.start[i]:.9f},{self.end[i]:.9f},{self.parent[i]}\n")


def main(argv: list[str]) -> int:
    """traced CLI: bench_trace.py SUMMARY_JSON SPANS_CSV_GZ -- bnlimits arguments"""
    summary_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: bench_trace.py SUMMARY_JSON SPANS_CSV_GZ -- ARGS...")
    tracer = Tracer()
    tracer.install()
    from bnlimits import cli

    tracer.job = 0
    try:
        code = cli.main(cli_args)
    finally:
        tracer.job = -1
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as out:
            json.dump(tracer.summary(), out)
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
