"""One run of one povmlab benchmark workload.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each was chosen):

- ``fig1-serial``: ``povmlab fig1 --jobs 1``, the paper's figure, 100 points.
- ``onset-pool``: ``povmlab tradeoff --jobs 2`` on the 33-point window
  around the plateau onset of the eta=0.9, theta=pi/4 pair.
- ``certify-batch``: a closed loop of validate, bound and certify
  requests through the library, one client, files at dims 2 to 16.

The benchmark builds its inputs from the seed, sets up three times and
reports the median set-up time, then repeats whole rounds of its
workload for about S seconds and checks every output against the
closed forms in ``oracle.py``. Every time it reports is the measured
time scaled by the speed of the core it ran on, which ``probe.py``
measures beside the workload (see README.md). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. Work files go
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# One BLAS/OpenMP thread per process, for this process and every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

import oracle  # noqa: E402

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
PY = sys.executable
MARGIN_S = 130.0          # set-up and the last round may run this far past --seconds
SETUPS = 3
ENVELOPE_TOL = 1e-6
PROBE_REF_S = 1.0e-3      # probe kernel time on an unloaded core of the tuning machine
PLATEAU_TOL = 1e-9


class BenchError(RuntimeError):
    """The run cannot produce a result."""


class Clock:
    def __init__(self, deadline_s: float):
        self.start = time.perf_counter()
        self.deadline_s = deadline_s

    def remaining(self) -> float:
        left = self.deadline_s - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)


def kill(proc: subprocess.Popen) -> None:
    """Kill ``proc`` with its process group (pool workers included) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish(proc: subprocess.Popen, clock: Clock, stdin: str | None = None) -> tuple[str, str]:
    """Wait for ``proc``, killing it at the deadline."""
    try:
        out, err = proc.communicate(stdin, timeout=clock.remaining())
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BenchError(f"{proc.args[:4]} did not finish in time") from None
    return out, err


def start_ready(cmd: list[str], clock: Clock, **kwargs) -> subprocess.Popen:
    """Start a helper that prints ``ready`` once it has set itself up."""
    proc = spawn(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                 **kwargs)
    ready, _, _ = select.select([proc.stdout], [], [], clock.remaining())
    if not ready or proc.stdout.readline().strip() != "ready":
        kill(proc)
        raise BenchError(f"{cmd[1]} did not start")
    return proc


class Probes:
    """Core-speed probes (probe.py) on the CPUs the workload runs on.

    ``speed(start, end)`` is PROBE_REF_S over the probe kernel's mean time
    in that interval: 1 on a core with nothing else on it, about 0.6 when
    the host's load slows the core down. Times the benchmark reports are
    measured times multiplied by the speed over the same interval.
    """

    def __init__(self, cpus: list[int], clock: Clock):
        self.procs: list[subprocess.Popen] = []
        self.samples: list[tuple[float, float]] = []
        for cpu in cpus:
            self.procs.append(start_ready([PY, os.path.join(BENCH, "probe.py"), str(cpu)], clock))

    def stop(self, clock: Clock) -> None:
        for proc in self.procs:
            out, _ = finish(proc, clock, "")
            self.samples += [tuple(s) for s in json.loads(out)]
        if not self.samples:
            raise BenchError("the core-speed probes took no samples")

    def kill(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                kill(proc)

    def speed(self, start: float, end: float) -> float:
        """Speed in [start, end]; over the whole run if no sample falls inside."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return PROBE_REF_S / statistics.fmean(inside or [d for _, d in self.samples])


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def pairs(m: np.ndarray) -> list:
    """A complex matrix in the file format: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def write_ensemble(path: str, states: list[np.ndarray]) -> None:
    n = len(states)
    write_json(path, {"dim": states[0].shape[0], "priors": [1.0 / n] * n,
                      "states": [pairs(s) for s in states]})


def write_povm(path: str, elements: list[np.ndarray]) -> None:
    write_json(path, {"dim": elements[0].shape[0], "elements": [pairs(m) for m in elements]})


# ---------------------------------------------------------------------------
# command-line workloads: one round is one povmlab command in a fresh process

@dataclass
class Round:
    """A measured stretch of work: when it ran, its cost, its ops, the
    failed ones, any wrong output, its request latencies, and how many
    rounds of the workload it holds."""

    start: float
    wall: float
    cpu: float
    ops: int
    failed: int
    problems: list[str]
    latencies_ms: list[float]
    rounds: int = 1


class CliWorkload:
    """A povmlab sweep command whose CSV rows are checked against the envelope."""

    theta = math.pi / 4
    cap = 500
    cpus = 1
    onset_row: int | None = None   # the one row allowed to fail

    def argv(self) -> list[str]:
        raise NotImplementedError

    def expected(self) -> list[tuple[float, float | None]]:
        """(eta, pi) of every row, in order; pi None where the grid is the program's."""
        raise NotImplementedError

    def setup(self, work: str, seed: int, clock: Clock) -> None:
        self.work = work
        self.prepare(seed)
        importer = spawn([PY, "-c", "import povmlab.cli"])
        finish(importer, clock)
        if importer.returncode != 0:
            raise BenchError("povmlab does not import")

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def stop(self, clock: Clock) -> None:
        """Nothing outlives a round."""

    def round(self, clock: Clock, trace_out: str | None = None) -> Round:
        if trace_out is None:
            cmd = [PY, "-m", "povmlab.cli", *self.argv()]
        else:
            cmd = [PY, os.path.join(BENCH, "traced_cli.py"), trace_out, *self.argv()]
        cpu0 = children_cpu()
        t0 = time.perf_counter()
        proc = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=self.work)
        out, err = finish(proc, clock)
        wall = time.perf_counter() - t0
        cpu = children_cpu() - cpu0
        expected = self.expected()
        if proc.returncode != 0:
            failed, problems = len(expected), [f"exit code {proc.returncode}: {err.strip()[-300:]}"]
        else:
            failed, problems = self.check(out, expected)
        return Round(t0, wall, cpu, len(expected), failed, problems, [1e3 * wall])

    def check(self, out: str, expected: list) -> tuple[int, list[str]]:
        """Count failed rows; list failed rows other than ``onset_row`` and
        rows whose P_RS is off the envelope.

        A row fails when its solve hit the sweep cap, was not certified, or
        has a status other than ok. Rows that did not fail must lie on the
        closed-form envelope.
        """
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != len(expected):
            return len(expected), [f"{len(rows)} rows, expected {len(expected)}"]
        failed, problems = 0, []
        for i, (row, (eta, pi)) in enumerate(zip(rows, expected)):
            got_pi = float(row["pi"])
            if float(row.get("eta", eta)) != eta or (pi is not None and abs(got_pi - pi) > 1e-12):
                problems.append(f"row {row} is not the requested point ({eta}, {pi})")
                continue
            if (row["status"] != "ok" or row["certified"] != "true"
                    or int(row["iterations"]) >= self.cap):
                failed += 1
                if i != self.onset_row:
                    problems.append(f"eta={eta} pi={got_pi}: failed ({row['iterations']} sweeps, "
                                    f"certified={row['certified']}, status={row['status']})")
                continue
            want = oracle.envelope(eta, self.theta, got_pi)
            if abs(float(row["prs"]) - want) > ENVELOPE_TOL:
                problems.append(f"eta={eta} pi={got_pi}: prs {row['prs']} vs envelope {want!r}")
        return failed, problems


class Fig1Serial(CliWorkload):
    """The paper's figure: four curves of 25 certified points, one process."""

    etas = (0.7, 0.8, 0.9, 1.0)
    points = 25

    def prepare(self, seed: int) -> None:
        # The seed orders the curves; each point is solved on its own.
        rng = np.random.default_rng(seed)
        self.order = [self.etas[k] for k in rng.permutation(len(self.etas))]

    def argv(self) -> list[str]:
        return ["fig1", "--jobs", "1", "--etas", ",".join(map(repr, self.order)),
                "--max-iter", str(self.cap)]

    def expected(self) -> list[tuple[float, float | None]]:
        return [(eta, None) for eta in self.order for _ in range(self.points)]


class OnsetPool(CliWorkload):
    """tradeoff on the window around the plateau onset, two workers.

    The grid steps by 0.005 across onset +- 0.08, so the points need from
    about 70 to about 800 sweeps; the onset itself stays in and runs into
    the raised cap.
    """

    eta = 0.9
    cap = 1000
    cpus = 2
    steps = 33
    half_width = 0.08
    onset_row = steps // 2   # the middle of the grid is the onset

    def prepare(self, seed: int) -> None:
        states = oracle.pair_states(self.eta, self.theta)
        # The seed picks the order of the two states in the file; with two
        # equal priors every sum in the solver is then bitwise the same.
        if np.random.default_rng(seed).integers(2):
            states.reverse()
        self.path = os.path.join(self.work, "pair.json")
        write_ensemble(self.path, states)
        onset = oracle.onset(self.eta, self.theta)
        self.lo, self.hi = onset - self.half_width, onset + self.half_width

    def argv(self) -> list[str]:
        return ["tradeoff", self.path, "--pi-grid", f"{self.lo!r}:{self.hi!r}:{self.steps}",
                "--max-iter", str(self.cap), "--jobs", "2"]

    def expected(self) -> list[tuple[float, float]]:
        return [(self.eta, float(p)) for p in np.linspace(self.lo, self.hi, self.steps)]


# ---------------------------------------------------------------------------
# certify-batch: a library client in one fresh process

class CertifyBatch:
    """Closed loop of validate, bound and certify requests, one client."""

    cpus = 1
    dims = (2, 4, 6, 8, 10, 12, 14, 16)
    broken_kinds = ("priors", "negative", "trace", "hermitian")
    broken_dims = (4, 12)

    def setup(self, work: str, seed: int, clock: Clock) -> None:
        self.work = work
        self.prepare(seed)
        self.client = self.start_client(clock)

    def prepare(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        requests, expect = [], []

        def add(kind: str, want, **files) -> None:
            requests.append({"id": len(requests), "kind": kind, **files})
            expect.append(want)

        for dim in self.dims:
            k = dim // 2
            eta, theta = rng.uniform(0.55, 0.95), rng.uniform(0.3, 1.2)
            u = oracle.random_unitary(dim, rng)
            states = oracle.embedded_pair(eta, theta, k, u)
            ens = os.path.join(self.work, f"pair-{dim}.json")
            write_ensemble(ens, states)
            add("bound", oracle.plateau(eta, theta), ensemble=ens)
            add("validate", True, ensemble=ens)
            for j in range(2):
                pi_target = rng.uniform(0.1, 0.9) * oracle.onset(eta, theta)
                povm = oracle.embedded_povm(oracle.phi_at(eta, theta, pi_target), k, u)
                path = os.path.join(self.work, f"opt-{dim}-{j}.json")
                write_povm(path, povm)
                add("certify", True, ensemble=ens, povm=path)
            povm = oracle.random_povm(dim, 3, rng)
            p_s, p_i = oracle.rates(states, povm)
            if not p_s / (1.0 - p_i) < oracle.envelope(eta, theta, p_i):
                raise BenchError(f"random POVM at dim {dim} is not below the envelope")
            path = os.path.join(self.work, f"rand-{dim}.json")
            write_povm(path, povm)
            add("certify", False, ensemble=ens, povm=path)
            if dim in self.broken_dims:
                for kind in self.broken_kinds:
                    path = os.path.join(self.work, f"broken-{kind}-{dim}.json")
                    write_json(path, broken(kind, states))
                    add("validate", False, ensemble=path)
        order = rng.permutation(len(requests))
        self.manifest = os.path.join(self.work, "manifest.json")
        write_json(self.manifest, {"records": os.path.join(self.work, "records.jsonl"),
                                   "requests": [requests[i] for i in order]})
        self.expect = [expect[i] for i in order]

    def start_client(self, clock: Clock, trace_out: str | None = None) -> subprocess.Popen:
        cmd = [PY, os.path.join(BENCH, "client.py"), self.manifest]
        if trace_out is not None:
            cmd.append(trace_out)
        return start_ready(cmd, clock, cwd=self.work)

    def stop(self, clock: Clock) -> None:
        finish(self.client, clock, "quit\n")

    def session(self, proc: subprocess.Popen, seconds: float, clock: Clock) -> Round:
        out, err = finish(proc, clock, f"go {seconds!r}\n")
        if proc.returncode != 0:
            raise BenchError(f"client exited with {proc.returncode}: {err.strip()[-300:]}")
        result = json.loads(out.strip().splitlines()[-1])
        failed, problems = 0, []
        if not result["consistent"]:
            problems.append("rounds gave different outcomes")
        for rid, (outcome, want) in enumerate(zip(result["outcomes"], self.expect)):
            if isinstance(outcome, str) and outcome.startswith("error"):
                failed += 1
                problems.append(f"request {rid}: {outcome}")
            elif isinstance(want, float):
                if abs(outcome - want) > PLATEAU_TOL:
                    problems.append(f"request {rid}: prs_max {outcome!r} vs plateau {want!r}")
            elif outcome is not want:
                problems.append(f"request {rid}: got {outcome!r}, expected {want!r}")
        n = result["rounds"]
        return Round(result["t0"], result["loop_s"], result["cpu_s"], len(self.expect) * n,
                     failed * n, problems, result["latencies_ms"], n)


def broken(kind: str, states: list[np.ndarray]) -> dict:
    """A well-formed ensemble file that breaks one physical invariant."""
    states = [s.copy() for s in states]
    priors = [0.5, 0.5]
    if kind == "priors":
        priors = [0.6, 0.5]
    elif kind == "negative":
        w, v = np.linalg.eigh(states[0])
        w[0] -= 0.05
        w[-1] += 0.05
        w[0] = min(w[0], -0.01)
        w[-1] = 1.0 - (w.sum() - w[-1])
        states[0] = (v * w) @ v.conj().T
    elif kind == "trace":
        states[1] = 1.1 * states[1]
    elif kind == "hermitian":
        states[0][0, 1] += 1e-3j
    return {"dim": states[0].shape[0], "priors": priors, "states": [pairs(s) for s in states]}


WORKLOADS = {"fig1-serial": Fig1Serial, "onset-pool": OnsetPool, "certify-batch": CertifyBatch}


# ---------------------------------------------------------------------------
# per-layer metrics from traced rounds

LAYER_UNITS = {
    "solver.solve.calls": "count", "solver.solve.s": "s", "solver.sweeps": "count",
    "solver.sweeps_per_solve": "count", "solver.eigh_per_sweep": "count",
    "solver.sweep_us": "us", "cli.points": "count", "cli.pool.startup_s": "s",
    "cli.pool.busy_s": "s", "cli.pool.idle_s": "s",
    "fileio.load_ensemble.calls": "count", "fileio.load_ensemble.s": "s",
    "fileio.load_povm.s": "s", "fileio.dumps_json.s": "s", "fileio.bytes_read": "B",
    "fileio.bytes_written": "B", "ensemble.validate.calls": "count",
    "ensemble.validate.s": "s", "certificate.check.calls": "count",
    "certificate.check.s": "s", "bounds.max_relative_success.s": "s",
    "linalg.eigh.calls": "count", "linalg.eigvalsh.calls": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(docs: list[dict], rounds: int, overhead_pct: float) -> tuple[dict, dict]:
    """Per-round means of the traced numbers (counts repeat exactly per round)."""
    table: dict[str, dict] = {}
    counts: dict[str, float] = {}
    pool = {"startup_s": 0.0, "busy_s": 0.0, "idle_s": 0.0}
    for doc in docs:
        for name, row in doc["summary"].items():
            acc = table.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key in pool:
            pool[key] += doc["pool"][key]

    def stat(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0) / rounds

    sweeps = counts["solver.sweeps"] / rounds
    solves = stat("solver.solve", "calls")
    values = {
        "solver.solve.calls": solves,
        "solver.solve.s": stat("solver.solve", "s"),
        "solver.sweeps": sweeps,
        "solver.sweeps_per_solve": sweeps / solves if solves else 0.0,
        "solver.eigh_per_sweep": stat("solver.solve", "eigh") / sweeps if sweeps else 0.0,
        "solver.sweep_us": 1e6 * stat("solver.solve", "s") / sweeps if sweeps else 0.0,
        "cli.points": stat("cli.point", "calls"),
        "cli.pool.startup_s": pool["startup_s"] / rounds,
        "cli.pool.busy_s": pool["busy_s"] / rounds,
        "cli.pool.idle_s": pool["idle_s"] / rounds,
        "fileio.load_ensemble.calls": stat("fileio.load_ensemble", "calls"),
        "fileio.load_ensemble.s": stat("fileio.load_ensemble", "s"),
        "fileio.load_povm.s": stat("fileio.load_povm", "s"),
        "fileio.dumps_json.s": stat("fileio.dumps_json", "s"),
        "fileio.bytes_read": counts["fileio.bytes_read"] / rounds,
        "fileio.bytes_written": counts["fileio.bytes_written"] / rounds,
        "ensemble.validate.calls": stat("ensemble.validate", "calls"),
        "ensemble.validate.s": stat("ensemble.validate", "s"),
        "certificate.check.calls": stat("certificate.check", "calls"),
        "certificate.check.s": stat("certificate.check", "s"),
        "bounds.max_relative_success.s": stat("bounds.max_relative_success", "s"),
        "linalg.eigh.calls": counts["linalg.eigh.calls"] / rounds,
        "linalg.eigvalsh.calls": counts["linalg.eigvalsh.calls"] / rounds,
        "trace.overhead_pct": overhead_pct,
    }
    per_round = {name: {key: value / rounds for key, value in row.items()}
                 for name, row in table.items()}
    return values, per_round


# ---------------------------------------------------------------------------
# entry point

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_cli(wl: CliWorkload, seconds: float, trace: bool, clock: Clock, work: str):
    """Whole rounds until the next one would end past ``seconds``."""
    rounds, traced, docs = [], [], []
    t0 = time.perf_counter()
    while True:
        rounds.append(wl.round(clock))
        if trace:
            out = os.path.join(work, f"trace-{len(traced)}.json")
            traced.append(wl.round(clock, out))
            with open(out) as fh:
                docs.append(json.load(fh))
        per_round = (time.perf_counter() - t0) / len(rounds)
        if time.perf_counter() - t0 + per_round > seconds:
            return rounds, traced, docs


def run_certify(wl: CertifyBatch, seconds: float, trace: bool, clock: Clock, work: str):
    """One untraced client session; with ``trace`` half the time, then a traced one."""
    share = seconds / 2 if trace else seconds
    rounds, traced, docs = [wl.session(wl.client, share, clock)], [], []
    if trace:
        out = os.path.join(work, "trace-0.json")
        traced.append(wl.session(wl.start_client(clock, out), share, clock))
        with open(out) as fh:
            docs.append(json.load(fh))
    return rounds, traced, docs


def normalized(rounds: list[Round], probes: Probes) -> tuple[float, float, int, list[float]]:
    """Wall and CPU seconds, ops and latencies, each time scaled by the core speed."""
    wall = cpu = 0.0
    ops, latencies = 0, []
    for r in rounds:
        speed = probes.speed(r.start, r.start + r.wall)
        wall += r.wall * speed
        cpu += r.cpu * speed
        ops += r.ops
        latencies += [x * speed for x in r.latencies_ms]
    return wall, cpu, ops, latencies


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "povmlab", "cli.py")):
        print(f"no povmlab sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    clock = Clock(args.seconds + MARGIN_S)
    wl = WORKLOADS[args.workload]()
    cpus = sorted(os.sched_getaffinity(0))[:wl.cpus]
    os.sched_setaffinity(0, cpus)  # every process started from here on runs on the probed cores
    work = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    probes = None
    try:
        probes = Probes(cpus, clock)
        setups = []
        for k in range(1 if args.trace else SETUPS):
            if k:
                wl.stop(clock)
            t = time.perf_counter()
            wl.setup(work, args.seed, clock)
            setups.append((t, time.perf_counter() - t))
        run = run_certify if isinstance(wl, CertifyBatch) else run_cli
        rounds, traced, docs = run(wl, args.seconds, bool(args.trace), clock, work)
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        probes.stop(clock)
        result = report(args, rounds, traced, docs, setups, peak_mb, probes, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        client = getattr(wl, "client", None)
        if client is not None and client.poll() is None:
            kill(client)
        if probes is not None:
            probes.kill()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report(args, rounds: list[Round], traced: list[Round], docs: list[dict],
           setups: list[tuple[float, float]], peak_mb: float, probes: Probes, work: str) -> dict:
    problems = [p for r in rounds + traced for p in r.problems]
    for p in problems[:20]:
        print("wrong output:", p, file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r.ops for r in rounds + traced),
              "failed": sum(r.failed for r in rounds + traced)}
    wall, cpu, ops, latencies = normalized(rounds, probes)
    raw_wall = sum(r.wall for r in rounds)
    print(f"core speed {wall / raw_wall:.3f}; measured {ops / raw_wall:.6g} ops/s, "
          f"{1e3 * sum(r.cpu for r in rounds) / ops:.6g} CPU ms/op", file=sys.stderr)
    if args.trace:
        t_wall, _, t_ops, _ = normalized(traced, probes)
        overhead = 100.0 * ((t_wall / t_ops) / (wall / ops) - 1.0)
        values, per_round = layer_metrics(docs, sum(r.rounds for r in traced), overhead)
        result["metrics"] = {k: metric(v, LAYER_UNITS[k]) for k, v in values.items()}
        summary = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        write_json(summary, {"workload": args.workload, "seed": args.seed,
                             "metrics": values, "per_round": per_round})
        os.replace(os.path.join(work, "trace-0.json"), summary[:-5] + ".spans.json")
        return result
    setup_s = statistics.median(d * probes.speed(t, t + d) for t, d in setups)
    result["metrics"] = {
        "ops_per_s": metric(ops / wall, "1/s"),
        "cpu_ms_per_op": metric(1e3 * cpu / ops, "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_p95_ms": metric(percentile(latencies, 0.95), "ms"),
        "setup_s": metric(setup_s, "s"),
    }
    return result


if __name__ == "__main__":
    sys.exit(main())
