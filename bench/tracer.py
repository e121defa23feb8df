"""Per-layer tracing of povmlab from outside the package.

Each traced function is replaced, under the name its caller looks it up
by (``povmlab.cli.solve``, ``povmlab.fileio.load_ensemble``, ...), with a
wrapper that records a span: name, start, end, parent and process id.
``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped to count calls, and
each span notes how many of them ran inside it. Spans stay in memory and
are written out when the traced program ends.

Pool workers inherit the wrappers through ``fork``. A worker clears the
state it inherited from the parent, and after each task it appends its
spans to ``<out>.<pid>.jsonl``; the parent merges those files in
:meth:`Tracer.finish`. Under a ``spawn`` pool the workers would run
untraced and the worker-side numbers would read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

# (module, attribute the caller looks up, span name)
TARGETS = [
    ("povmlab.cli", "_run_jobs", "cli.run_jobs"),
    ("povmlab.cli", "_sweep_point_file", "cli.task"),
    ("povmlab.cli", "_sweep_point_symmetric", "cli.task"),
    ("povmlab.cli", "_sweep_row", "cli.point"),
    ("povmlab.cli", "solve", "solver.solve"),
    ("povmlab.cli", "validate_ensemble", "ensemble.validate"),
    ("povmlab.ensemble", "validate", "ensemble.validate"),
    ("povmlab.fileio", "load_ensemble", "fileio.load_ensemble"),
    ("povmlab.fileio", "load_povm", "fileio.load_povm"),
    ("povmlab.fileio", "dumps_json", "fileio.dumps_json"),
    ("povmlab.certificate", "check", "certificate.check"),
    ("povmlab.bounds", "max_relative_success", "bounds.max_relative_success"),
]

COUNTERS = ("linalg.eigh.calls", "linalg.eigvalsh.calls", "solver.sweeps",
            "fileio.bytes_read", "fileio.bytes_written")


class Tracer:
    """Collects spans and counters for one process and its forked workers."""

    def __init__(self, out: str):
        self.out = out
        self.main_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: list[tuple] = []       # (name, start, end, parent, pid, eigh, eigvalsh)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name))
        self._count(np.linalg, "eigh", "linalg.eigh.calls")
        self._count(np.linalg, "eigvalsh", "linalg.eigvalsh.calls")

    def _count(self, mod, attr: str, key: str) -> None:
        fn = getattr(mod, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        setattr(mod, attr, counted)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.counts  # replaced wholesale in a forked worker
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            eigh0 = counts["linalg.eigh.calls"]
            eigvalsh0 = counts["linalg.eigvalsh.calls"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (
                    name, start, end, parent, os.getpid(),
                    counts["linalg.eigh.calls"] - eigh0,
                    counts["linalg.eigvalsh.calls"] - eigvalsh0)
            if name == "solver.solve":
                counts["solver.sweeps"] += result.iterations
            elif name in ("fileio.load_ensemble", "fileio.load_povm"):
                counts["fileio.bytes_read"] += os.path.getsize(args[0])
            elif name == "fileio.dumps_json":
                counts["fileio.bytes_written"] += len(result.encode())
            elif name == "cli.task" and os.getpid() != self.main_pid:
                self._flush_worker()
            return result

        return traced

    # -- output ------------------------------------------------------------

    def _flush_worker(self) -> None:
        with open(f"{self.out}.{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self._reset()

    def finish(self) -> None:
        """Merge worker spans and write the summary and all spans to ``out``."""
        spans = [tuple(s) for s in self.spans]
        counts = dict(self.counts)
        prefix = os.path.basename(self.out) + "."
        folder = os.path.dirname(self.out) or "."
        for fname in sorted(os.listdir(folder)):
            if fname.startswith(prefix) and fname.endswith(".jsonl"):
                path = os.path.join(folder, fname)
                with open(path) as fh:
                    for line in fh:
                        part = json.loads(line)
                        base = len(spans)
                        spans += [(n, s, e, p + base if p >= 0 else -1, pid, h, v)
                                  for n, s, e, p, pid, h, v in part["spans"]]
                        for key, value in part["counts"].items():
                            counts[key] += value
                os.remove(path)
        with open(self.out, "w") as fh:
            json.dump({"main_pid": self.main_pid, "summary": summarize(spans),
                       "pool": pool_summary(spans, self.main_pid),
                       "counts": counts, "spans": spans}, fh)


def summarize(spans: list[tuple]) -> dict:
    """Calls, inclusive and self seconds, and linalg calls inside, per span name."""
    out: dict[str, dict] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _pid, _h, _v in spans:
        if parent >= 0:
            child[parent] += end - start
    for k, (name, start, end, _parent, _pid, eigh, eigvalsh) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "eigh": 0, "eigvalsh": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[k]
        row["eigh"] += eigh
        row["eigvalsh"] += eigvalsh
    return out


def pool_summary(spans: list[tuple], main_pid: int) -> dict:
    """Start-up, busy and idle worker time of the process pool.

    startup_s runs from the pool phase's start to the first task a worker
    begins; busy_s sums the workers' task spans; idle_s is the rest of the
    workers' time from that first task to the end of the pool phase.
    Tasks run in the main process (``--jobs 1``) are no pool work.
    """
    phases = [s for s in spans if s[0] == "cli.run_jobs" and s[4] == main_pid]
    tasks = [s for s in spans if s[0] == "cli.task" and s[4] != main_pid]
    if not phases or not tasks:
        return {"workers": 0, "startup_s": 0.0, "busy_s": 0.0, "idle_s": 0.0}
    begin, end = phases[0][1], phases[0][2]
    first = min(s[1] for s in tasks)
    workers = len({s[4] for s in tasks})
    busy = sum(s[2] - s[1] for s in tasks)
    return {"workers": workers, "startup_s": first - begin, "busy_s": busy,
            "idle_s": workers * (end - first) - busy}
