"""Command-line front end.

Subcommands: validate, solve, tradeoff, bound, certify, fig1. Structured
results are emitted as JSON records on standard output (self-describing:
command, input digest, config echo, duration, payload); curve sweeps are
emitted as CSV. All floats are printed with 17 significant digits, so
identical invocations produce byte-identical output apart from the
duration field.

Every failure of every command, tradeoff and fig1 included, prints one
JSON record whose result holds the error, and no CSV: a command raises,
and main maps the exception to its record and exit code (_failure). The
record's input digest is "" when the ensemble file fails to read, parse
or validate.

Exit codes: 0 ok/optimal, 1 validation failure (including bad flags and
a grid too large to allocate), 2 I/O or parse failure, 3 infeasible
inconclusive-rate target, 5 POVM not certified optimal. A reader that
closes standard output early (``| head``) also gives 2, with nothing on
standard error: no record can reach it, so main points stdout at
os.devnull and returns.

The first call of main registers gc.freeze with atexit, once per
process. The full collections the interpreter makes while it clears
modules at exit then skip every object still alive, numpy's and
povmlab's included, and leave those cycles to the OS, which saves a
command most of the cost of its exit (README, "Start-up and exit"). This
is safe: Python does not promise to finalize objects alive at exit, it
still flushes stdout after the atexit hooks, and logging's shutdown hook,
registered earlier, runs after the freeze. Nothing is frozen while main
runs, so tests and library callers keep a normal collector until their
process ends.

The POVMLAB_LOG environment variable (DEBUG/INFO/WARNING/ERROR) controls
log verbosity on standard error; a value that is not a level means WARNING.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import logging
import math
import os
import re
import sys
import time

import numpy as np

from . import certificate, fileio
from .ensemble import EnsembleValidationError, symmetric_qubit_pair, validate as validate_ensemble
from .hermitian import PINV_CUTOFF
from .solver import (MAX_ITERATIONS, POVM_TOLERANCE, RATE_MAX_EVALUATIONS,
                     RATE_TOLERANCE, InfeasibleTargetError, povm_violations,
                     require_target, solve, solve_grid)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_OPTIMAL = 5

TRADEOFF_HEADER = "pi,ps,prs,iterations,residual,certified,status"

# The largest rate default_sweep_grid samples.
GRID_STOP = 0.84


# ---------------------------------------------------------------------------
# record plumbing

def _digest(data: bytes) -> str:
    """The SHA-256 hex digest of an input's bytes, the ones the command
    parsed; taken only for a record, so a command that emits none skips
    loading hashlib (and OpenSSL)."""
    import hashlib
    return hashlib.sha256(data).hexdigest()


class _RecordContext:
    """What one invocation knows for its record: when it started, the bytes
    of its ensemble file once that has read, parsed and validated, and the
    config known so far. The digest of those bytes is taken only when a
    record is emitted, and is "" while the ensemble has not loaded."""

    def __init__(self, command: str):
        self.command = command
        self.started = time.perf_counter()
        self.data: bytes | None = None
        self.config: dict = {}

    def load_ensemble(self, path, validate: bool = True):
        """The ensemble in the file at ``path``, read once; raises the
        loader's FileFormatError or EnsembleValidationError."""
        data = fileio.read_bytes(path)
        e = fileio.load_ensemble(path, validate=validate, data=data)
        self.data = data
        return e

    def emit(self, payload: dict, iterations: int | None = None) -> None:
        record = {
            "command": self.command,
            "input_digest": "" if self.data is None else _digest(self.data),
            "config": self.config,
            "iterations": iterations,
            "duration_s": time.perf_counter() - self.started,
            "result": payload,
        }
        sys.stdout.write(fileio.dumps_json(record))


def _config_echo(max_iterations: int) -> dict:
    return {
        "max_iterations": max_iterations,
        "povm_tolerance": POVM_TOLERANCE,
        "bisection_tolerance": RATE_TOLERANCE,
        "bisection_max_steps": RATE_MAX_EVALUATIONS,
        "pinv_cutoff": PINV_CUTOFF,
    }


def _require_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def _violation_list(violations) -> list[dict]:
    return [v._asdict() for v in violations]


def _write_csv(header: str, rows: list[list[str]]) -> None:
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(",".join(row) + "\n")


def _certificate_payload(
        cert: certificate.Certificate | certificate.SingularMultiplierError) -> dict:
    """The record of a Certificate, or of the SingularMultiplierError met
    in its place."""
    if isinstance(cert, certificate.SingularMultiplierError):
        return {"error": str(cert), "optimal": False}
    return {
        "a": cert.a,
        "extremal_residuals": list(cert.extremal_residuals),
        "positivity_margins": list(cert.positivity_margins),
        "dual_bound": cert.dual_bound,
        "lambda_asymmetry": cert.lambda_asymmetry,
        "tol_extremal": certificate.TOL_EXTREMAL,
        "tol_positivity": certificate.TOL_POSITIVITY,
        "optimal": cert.optimal,
    }


def _failure(exc: Exception) -> tuple[dict, int]:
    """The result payload and exit code of the exception a command raised:
    the exit-code table of the module docstring."""
    if isinstance(exc, fileio.FileFormatError):
        return {"error": str(exc)}, EXIT_IO
    if isinstance(exc, EnsembleValidationError):
        return {
            "error": "ensemble failed validation",
            "violations": _violation_list(exc.violations),
        }, EXIT_VALIDATION
    if isinstance(exc, InfeasibleTargetError):
        return {
            "error": str(exc),
            "target_pi": exc.target,
            "reachable_supremum": exc.supremum,
        }, EXIT_INFEASIBLE
    return {"error": str(exc)}, EXIT_VALIDATION


# ---------------------------------------------------------------------------
# sweeps: every point of a command's grid in one lockstep solve

def _sweep_point_file(targets: list, e, max_iterations: int) -> list[list[str]]:
    """Rows of tradeoff's targets on the ensemble loaded from the file."""
    outcomes = solve_grid([(e, t) for t in targets], max_iterations=max_iterations)
    return [_sweep_row(t, r) for t, r in zip(targets, outcomes)]


def _sweep_point_symmetric(points: list, max_iterations: int) -> list[list[str]]:
    """Rows of fig1's (eta, ensemble, target) points (:func:`fig1_points`)."""
    outcomes = solve_grid([(e, t) for _, e, t in points], max_iterations=max_iterations)
    return [[fileio.float_repr(eta)] + _sweep_row(t, r)
            for (eta, _, t), r in zip(points, outcomes)]


def _sweep_row(target: float, outcome) -> list[str]:
    """CSV cells of one solved point: its SolveResult, with the verdict of
    the certificate it carries, or the InfeasibleTargetError it met. A
    converged point is ``ok`` only when certified, and ``uncertified``
    otherwise."""
    f = fileio.float_repr
    if isinstance(outcome, InfeasibleTargetError):
        return [f(target), "", "", "", "", "", "infeasible"]
    certified = outcome.certificate.optimal
    if not outcome.converged:
        status = "maxiter"
    else:
        status = "ok" if certified else "uncertified"
    return [f(target), f(outcome.p_s), f(outcome.p_rs), str(outcome.iterations),
            f(outcome.final_change), "true" if certified else "false", status]


def _run_jobs(worker, *args) -> list[list[str]]:
    """The rows ``worker(*args)`` returns, solved in this process whatever
    ``--jobs`` says: a stacked sweep costs about as much for a whole grid as
    for a share of it, so a process pool only adds work and start-up time.
    The benchmark's tracer wraps this name and the three sweep functions."""
    return worker(*args)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args, rec: _RecordContext) -> int:
    e = rec.load_ensemble(args.ensemble, validate=False)
    violations = validate_ensemble(e)
    rec.emit({
        "valid": not violations,
        "dim": e.dim,
        "n_states": e.n_states,
        "violations": _violation_list(violations),
    })
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_solve(args, rec: _RecordContext) -> int:
    e = rec.load_ensemble(args.ensemble)
    rec.config = {"target_pi": args.pi}
    _require_positive("--max-iter", args.max_iter)
    rec.config = _config_echo(args.max_iter) | rec.config
    r = solve(e, args.pi, max_iterations=args.max_iter)
    payload = {
        "p_s": r.p_s,
        "p_i": r.p_i,
        "p_rs": r.p_rs,
        "a": r.a,
        "iterations": r.iterations,
        "final_change": r.final_change,
        "converged": r.converged,
        "rate_residual": r.rate_residual,
        "certificate": _certificate_payload(r.certificate),
    }
    if args.emit_povm:
        payload["povm"] = fileio.povm_record(r.povm)
    rec.emit(payload, iterations=r.iterations)
    return EXIT_OK


def _parse_grid(spec_text: str) -> np.ndarray:
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ValueError("--pi-grid expects start:stop:steps")
    start, stop = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 1:
        raise ValueError("--pi-grid needs at least one step")
    if not (0.0 <= start <= stop < 1.0):
        raise ValueError("--pi-grid range must satisfy 0 <= start <= stop < 1")
    return np.linspace(start, stop, steps)


def cmd_tradeoff(args, rec: _RecordContext) -> int:
    e = rec.load_ensemble(args.ensemble)
    grid = _parse_grid(args.pi_grid)
    require_target(float(grid[-1]))
    _require_positive("--jobs", args.jobs)
    _require_positive("--max-iter", args.max_iter)
    targets = [float(t) for t in grid]
    _write_csv(TRADEOFF_HEADER, _run_jobs(_sweep_point_file, targets, e, args.max_iter))
    return EXIT_OK


def cmd_bound(args, rec: _RecordContext) -> int:
    e = rec.load_ensemble(args.ensemble)
    plateau = e.plateau_measurement
    rec.emit(plateau.bound._asdict() | {"plateau_pi": plateau.rate})
    return EXIT_OK


def cmd_certify(args, rec: _RecordContext) -> int:
    e = rec.load_ensemble(args.ensemble)
    povm_data = fileio.read_bytes(args.povm)
    povm = fileio.load_povm(args.povm, data=povm_data)
    rec.config = {"povm_digest": _digest(povm_data)}
    certificate.require_matching(e, povm)
    violations = povm_violations(povm)
    if violations:
        rec.emit({
            "error": "POVM failed validation",
            "violations": _violation_list(violations),
        })
        return EXIT_VALIDATION
    cert, = certificate.check_grid([(e, povm)])
    rec.emit(_certificate_payload(cert))
    return EXIT_OK if cert.optimal else EXIT_NOT_OPTIMAL


def cmd_fig1(args, rec: _RecordContext) -> int:
    _require_positive("--points", args.points)
    _require_positive("--jobs", args.jobs)
    etas = [float(x) for x in args.etas.split(",") if x]
    if not etas:
        raise ValueError("--etas must list at least one value")
    _require_positive("--max-iter", args.max_iter)
    points = fig1_points(etas, args.theta, args.points)
    _write_csv("eta," + TRADEOFF_HEADER, _run_jobs(_sweep_point_symmetric, points, args.max_iter))
    return EXIT_OK


def fig1_points(etas: list[float], theta: float, points: int = 25) -> list[tuple]:
    """fig1's grid as (eta, ensemble, target): each eta's ``points`` rates of
    :func:`default_sweep_grid` at its onset eta cos(theta), all on that
    eta's one symmetric qubit pair at angle ``theta``."""
    ensembles = {eta: symmetric_qubit_pair(eta, theta) for eta in etas}
    return [(eta, ensembles[eta], float(t)) for eta in etas
            for t in default_sweep_grid(eta * math.cos(theta), points=points)]


def default_sweep_grid(onset: float, points: int = 25) -> np.ndarray:
    """``points`` inconclusive rates from 0 to GRID_STOP. When the plateau
    ``onset`` lies strictly between them, the rising branch [0, onset] takes
    (points + 1) // 2 of them and the plateau (onset, GRID_STOP] the rest,
    so the onset is sampled once (for at least 3 points). fig1 passes
    eta cos(theta), the onset of its symmetric pair.
    """
    if not 0.0 < onset < GRID_STOP:
        return np.linspace(0.0, GRID_STOP, points)
    n_lo = (points + 1) // 2
    return np.concatenate([np.linspace(0.0, onset, n_lo),
                           np.linspace(onset, GRID_STOP, points - n_lo + 1)[1:]])


# ---------------------------------------------------------------------------
# parser

# Flags whose value may start with '-': a float, or a list of floats that
# --etas separates by ',' and --pi-grid by ':'.
VALUE_FLAGS = ("--pi", "--theta", "--etas", "--pi-grid")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list[str]) -> list[str]:
    """``argv`` with a value flag and a value after it whose first number
    starts with '-' joined into one argument, ``--pi=-inf`` or
    ``--etas=-0.5,0.9``: argparse takes a separate ``-inf`` or ``-0.5,0.9``
    for an unknown option and stops with a usage error before the value's
    own check can emit its error record."""
    joined: list[str] = []
    for arg in argv:
        if (joined and joined[-1] in VALUE_FLAGS and arg.startswith("-")
                and _is_float(re.split("[,:]", arg)[0])):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _add_solver_flags(sub) -> None:
    sub.add_argument("--max-iter", type=int, default=MAX_ITERATIONS,
                     help="iteration cap")


def _add_jobs_flag(sub) -> None:
    sub.add_argument("--jobs", type=int, default=1,
                     help="ignored: the grid is solved in one process "
                          "(must be at least 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmlab",
        description="Optimal discrimination of mixed quantum states "
                    "with a fixed fraction of inconclusive outcomes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an ensemble file")
    p.add_argument("ensemble")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="optimal POVM at one inconclusive rate")
    p.add_argument("ensemble")
    p.add_argument("--pi", type=float, default=0.0,
                   help="target inconclusive rate in [0, 1)")
    p.add_argument("--emit-povm", action="store_true",
                   help="include the POVM matrices in the record")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tradeoff", help="CSV sweep over inconclusive rates")
    p.add_argument("ensemble")
    p.add_argument("--pi-grid", required=True, metavar="START:STOP:STEPS",
                   help="inconclusive-rate grid, e.g. 0:0.8:25")
    _add_jobs_flag(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("bound", help="ceiling of the renormalized success rate")
    p.add_argument("ensemble")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="optimality certificate for a POVM file")
    p.add_argument("ensemble")
    p.add_argument("povm")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "fig1", help="four-curve benchmark sweep for the symmetric qubit pair")
    p.add_argument("--theta", type=float, default=math.pi / 4)
    p.add_argument("--etas", default="0.7,0.8,0.9,1.0",
                   help="comma-separated mixing weights")
    p.add_argument("--points", type=int, default=25,
                   help="grid points per curve")
    _add_jobs_flag(p)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_fig1)

    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Register gc.freeze with atexit, once per process (module docstring)."""
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    _freeze_at_exit()
    level = getattr(logging, os.environ.get("POVMLAB_LOG", "WARNING").upper(), None)
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_float_values(argv))
    rec = _RecordContext(args.command)
    try:
        try:
            code = args.func(args, rec)
        except (ValueError, MemoryError, InfeasibleTargetError) as exc:
            payload, code = _failure(exc)
            rec.emit(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; with stdout pointed at os.devnull the
        # interpreter's final flush of what is still buffered stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
