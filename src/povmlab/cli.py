"""Command-line front end.

Subcommands: validate, solve, tradeoff, bound, certify, fig1. Structured
results are emitted as JSON records on standard output (self-describing:
command, input digest, config echo, duration, payload); curve sweeps are
emitted as CSV. All floats are printed with 17 significant digits, so
identical invocations produce byte-identical output apart from the
duration field.

Exit codes: 0 ok/optimal, 1 validation failure (including bad flags),
2 I/O or parse failure, 3 infeasible inconclusive-rate target,
5 POVM not certified optimal.

The POVMLAB_LOG environment variable (DEBUG/INFO/WARNING/ERROR) controls
log verbosity on standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import re
import sys
import time

import numpy as np

from . import bounds, certificate, fileio, qubit_analytic
from .ensemble import EnsembleValidationError, validate as validate_ensemble
from .hermitian import PINV_CUTOFF
from .solver import (MAX_ITERATIONS, POVM_TOLERANCE, RATE_MAX_EVALUATIONS,
                     RATE_TOLERANCE, InfeasibleTargetError, povm_violations,
                     require_matching, require_target, solve, solve_grid)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_OPTIMAL = 5

TRADEOFF_HEADER = "pi,ps,prs,iterations,residual,certified,status"

# Half-width of the window around the plateau onset that
# default_sweep_grid skips, and the largest rate it samples.
GRID_GAP = 0.08
GRID_STOP = 0.84


# ---------------------------------------------------------------------------
# record plumbing

def _digest(path) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise fileio.FileFormatError(f"cannot read {path}: {exc}") from exc


def _emit_record(command: str, digest: str, config: dict, payload: dict,
                 started: float, iterations: int | None = None) -> None:
    record = {
        "command": command,
        "input_digest": digest,
        "config": config,
        "iterations": iterations,
        "duration_s": time.perf_counter() - started,
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
    return [{"message": v.message, "residual": v.residual, "index": v.index}
            for v in violations]


def _write_csv(header: str, rows: list[list[str]]) -> None:
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(",".join(row) + "\n")


def _certificate_payload(cert: certificate.Certificate) -> dict:
    return {
        "a": cert.a,
        "extremal_residuals": list(cert.extremal_residuals),
        "positivity_margins": [
            None if math.isnan(m) else m for m in cert.positivity_margins
        ],
        "dual_bound": cert.dual_bound,
        "lambda_asymmetry": cert.lambda_asymmetry,
        "tol_extremal": certificate.TOL_EXTREMAL,
        "tol_positivity": certificate.TOL_POSITIVITY,
        "optimal": cert.optimal,
    }


# ---------------------------------------------------------------------------
# sweeps: every point of a command's grid in one lockstep solve

def _sweep_point_file(targets: list, e, max_iterations: int) -> list[list[str]]:
    """Rows of tradeoff's targets on the ensemble loaded from the file."""
    outcomes = solve_grid([(e, t) for t in targets], max_iterations=max_iterations)
    return [_sweep_row(e, t, r) for t, r in zip(targets, outcomes)]


def _sweep_point_symmetric(points: list, theta: float,
                           max_iterations: int) -> list[list[str]]:
    """Rows of fig1's (eta, target) points."""
    ensembles = {eta: qubit_analytic.SymmetricQubitProblem(eta, theta).ensemble()
                 for eta, _ in points}
    outcomes = solve_grid([(ensembles[eta], t) for eta, t in points],
                          max_iterations=max_iterations)
    return [[fileio.float_repr(eta)] + _sweep_row(ensembles[eta], t, r)
            for (eta, t), r in zip(points, outcomes)]


def _sweep_row(e, target: float, outcome) -> list[str]:
    """CSV cells of one solved point: its SolveResult, certified here, or the
    InfeasibleTargetError it met."""
    f = fileio.float_repr
    if isinstance(outcome, InfeasibleTargetError):
        return [f(target), "", "", "", "", "", "infeasible"]
    try:
        certified = certificate.check(e, outcome.povm).optimal
    except certificate.SingularMultiplierError:
        certified = False
    return [f(target), f(outcome.p_s), f(outcome.p_rs), str(outcome.iterations),
            f(outcome.final_change), "true" if certified else "false",
            "ok" if outcome.converged else "maxiter"]


def _run_jobs(worker, *args) -> list[list[str]]:
    """The rows ``worker(*args)`` returns, solved in this process whatever
    ``--jobs`` says: a stacked sweep costs about as much for a whole grid as
    for a share of it, so a process pool only adds work and start-up time.
    The benchmark's tracer wraps this name and the three sweep functions."""
    return worker(*args)


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args) -> int:
    started = time.perf_counter()
    try:
        digest = _digest(args.ensemble)
        e = fileio.load_ensemble(args.ensemble, validate=False)
    except fileio.FileFormatError as exc:
        _emit_record("validate", "", {}, {"error": str(exc)}, started)
        return EXIT_IO
    violations = validate_ensemble(e)
    payload = {
        "valid": not violations,
        "dim": e.dim,
        "n_states": e.n_states,
        "violations": _violation_list(violations),
    }
    _emit_record("validate", digest, {}, payload, started)
    return EXIT_OK if not violations else EXIT_VALIDATION


def _load_for_command(args, started, command: str) -> tuple:
    """Shared ensemble loading with the validate/parse exit-code split."""
    try:
        digest = _digest(args.ensemble)
        e = fileio.load_ensemble(args.ensemble)
        return e, digest, None
    except fileio.FileFormatError as exc:
        _emit_record(command, "", {}, {"error": str(exc)}, started)
        return None, None, EXIT_IO
    except EnsembleValidationError as exc:
        _emit_record(command, "", {}, {
            "error": "ensemble failed validation",
            "violations": _violation_list(exc.violations),
        }, started)
        return None, None, EXIT_VALIDATION


def cmd_solve(args) -> int:
    started = time.perf_counter()
    e, digest, status = _load_for_command(args, started, "solve")
    if status is not None:
        return status
    config = {"target_pi": args.pi}
    try:
        _require_positive("--max-iter", args.max_iter)
        config = _config_echo(args.max_iter) | config
        r = solve(e, args.pi, max_iterations=args.max_iter)
    except ValueError as exc:
        _emit_record("solve", digest, config, {"error": str(exc)}, started)
        return EXIT_VALIDATION
    except InfeasibleTargetError as exc:
        _emit_record("solve", digest, config, {
            "error": str(exc),
            "target_pi": exc.target,
            "reachable_supremum": exc.supremum,
        }, started)
        return EXIT_INFEASIBLE

    try:
        cert_payload = _certificate_payload(certificate.check(e, r.povm))
    except certificate.SingularMultiplierError as exc:
        cert_payload = {"error": str(exc), "optimal": False}
    payload = {
        "p_s": r.p_s,
        "p_i": r.p_i,
        "p_rs": r.p_rs,
        "a": r.a,
        "iterations": r.iterations,
        "final_change": r.final_change,
        "converged": r.converged,
        "rate_residual": r.rate_residual,
        "certificate": cert_payload,
    }
    if args.emit_povm:
        payload["povm"] = fileio.povm_record(r.povm)
    _emit_record("solve", digest, config, payload, started, iterations=r.iterations)
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


def cmd_tradeoff(args) -> int:
    started = time.perf_counter()
    e, digest, status = _load_for_command(args, started, "tradeoff")
    if status is not None:
        return status
    try:
        grid = _parse_grid(args.pi_grid)
        require_target(float(grid[-1]))
        _require_positive("--jobs", args.jobs)
        _require_positive("--max-iter", args.max_iter)
    except ValueError as exc:
        _emit_record("tradeoff", digest, {}, {"error": str(exc)}, started)
        return EXIT_VALIDATION
    targets = [float(t) for t in grid]
    _write_csv(TRADEOFF_HEADER, _run_jobs(_sweep_point_file, targets, e, args.max_iter))
    return EXIT_OK


def cmd_bound(args) -> int:
    started = time.perf_counter()
    e, digest, status = _load_for_command(args, started, "bound")
    if status is not None:
        return status
    b = bounds.max_relative_success(e)
    try:
        plateau_pi = bounds.plateau_measurement(e, b).rate
    except bounds.InconsistentBoundError as exc:
        logger.warning("no plateau measurement: %s", exc)
        plateau_pi = None
    payload = {
        "prs_max": b.prs_max,
        "per_state_a": list(b.per_state_a),
        "argmax_state": b.argmax_state,
        "kernel_dimension": b.kernel_dimension,
        "plateau_pi": plateau_pi,
    }
    _emit_record("bound", digest, {}, payload, started)
    return EXIT_OK


def cmd_certify(args) -> int:
    started = time.perf_counter()
    e, digest, status = _load_for_command(args, started, "certify")
    if status is not None:
        return status
    try:
        povm_digest = _digest(args.povm)
        povm = fileio.load_povm(args.povm)
    except fileio.FileFormatError as exc:
        _emit_record("certify", digest, {}, {"error": str(exc)}, started)
        return EXIT_IO
    config = {"povm_digest": povm_digest}
    try:
        require_matching(e, povm)
    except ValueError as exc:
        _emit_record("certify", digest, config, {"error": str(exc)}, started)
        return EXIT_VALIDATION
    violations = povm_violations(povm)
    if violations:
        _emit_record("certify", digest, config, {
            "error": "POVM failed validation",
            "violations": _violation_list(violations),
        }, started)
        return EXIT_VALIDATION
    try:
        cert = certificate.check(e, povm)
    except certificate.SingularMultiplierError as exc:
        _emit_record("certify", digest, config,
                     {"error": str(exc), "optimal": False}, started)
        return EXIT_NOT_OPTIMAL
    _emit_record("certify", digest, config, _certificate_payload(cert), started)
    return EXIT_OK if cert.optimal else EXIT_NOT_OPTIMAL


def cmd_fig1(args) -> int:
    started = time.perf_counter()
    try:
        _require_positive("--points", args.points)
        _require_positive("--jobs", args.jobs)
        etas = [float(x) for x in args.etas.split(",") if x]
        if not etas:
            raise ValueError("--etas must list at least one value")
        _require_positive("--max-iter", args.max_iter)
        points = []
        for eta in etas:
            p = qubit_analytic.SymmetricQubitProblem(eta, args.theta)
            points += [(eta, float(t)) for t in default_sweep_grid(p, points=args.points)]
    except ValueError as exc:
        _emit_record("fig1", "", {}, {"error": str(exc)}, started)
        return EXIT_VALIDATION
    _write_csv("eta," + TRADEOFF_HEADER,
               _run_jobs(_sweep_point_symmetric, points, args.theta, args.max_iter))
    return EXIT_OK


def default_sweep_grid(p: qubit_analytic.SymmetricQubitProblem,
                       points: int = 25) -> np.ndarray:
    """``points`` distinct inconclusive rates in [0, GRID_STOP], none within
    GRID_GAP of the plateau onset, sampling both branches of the trade-off
    curve: the rising branch from 0 and the plateau up to GRID_STOP. When
    one branch has no room, the other takes every point.

    The solver converges at the onset and answers plateau targets in closed
    form, so the window spares it no slow points; it stays so that the
    default grids, and fig1's rows, do not change.
    """
    onset = qubit_analytic.plateau_onset_pi(p)
    lo_stop = min(onset - GRID_GAP, GRID_STOP)
    hi_start = onset + GRID_GAP
    if lo_stop <= 0.0:
        return np.linspace(hi_start, GRID_STOP, points)
    if hi_start >= GRID_STOP:
        return np.linspace(0.0, lo_stop, points)
    n_lo = (points + 1) // 2
    return np.concatenate([np.linspace(0.0, lo_stop, n_lo),
                           np.linspace(hi_start, GRID_STOP, points - n_lo)])


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


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("POVMLAB_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_float_values(argv))
    try:
        return args.func(args)
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
