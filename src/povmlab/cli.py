"""Command-line front end.

Subcommands: validate, solve, tradeoff, bound, certify, fig1. Structured
results are emitted as JSON records on standard output (self-describing:
command, input digest, config echo, duration, payload); curve sweeps are
emitted as CSV. All floats are printed with 17 significant digits, so
identical invocations produce byte-identical output apart from the
duration field.

Exit codes: 0 ok/optimal, 1 validation failure, 2 I/O or parse failure,
3 infeasible inconclusive-rate target, 4 singular average state,
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
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import bounds, certificate, fileio, qubit_analytic
from .ensemble import EnsembleValidationError, validate as validate_ensemble
from .solver import InfeasibleTargetError, SolverConfig, povm_violations, solve

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_SINGULAR = 4
EXIT_NOT_OPTIMAL = 5

TRADEOFF_HEADER = "pi,ps,prs,iterations,residual,certified,status"


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


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        max_iterations=args.max_iter,
        povm_tolerance=args.tol,
        pinv_cutoff=args.pinv_cutoff,
    )


def _config_echo(cfg: SolverConfig) -> dict:
    return {
        "max_iterations": cfg.max_iterations,
        "povm_tolerance": cfg.povm_tolerance,
        "bisection_tolerance": cfg.bisection_tolerance,
        "bisection_max_steps": cfg.bisection_max_steps,
        "pinv_cutoff": cfg.pinv_cutoff,
    }


def _certificate_payload(cert: certificate.Certificate) -> dict:
    return {
        "a": cert.a,
        "extremal_residuals": list(cert.extremal_residuals),
        "positivity_margins": [
            None if math.isnan(m) else m for m in cert.positivity_margins
        ],
        "dual_bound": cert.dual_bound,
        "lambda_asymmetry": cert.lambda_asymmetry,
        "tol_extremal": cert.tol_extremal,
        "tol_positivity": cert.tol_positivity,
        "optimal": cert.optimal,
    }


# ---------------------------------------------------------------------------
# sweep workers (module level so a process pool can pickle them)

def _sweep_point_file(job: tuple) -> list[str]:
    """One tradeoff point; the job carries the ensemble loaded from the file."""
    return _sweep_row(*job)


def _sweep_point_symmetric(job: tuple) -> list[str]:
    eta, theta, target, cfg = job
    e = qubit_analytic.SymmetricQubitProblem(eta, theta).ensemble()
    return [fileio.float_repr(eta)] + _sweep_row(e, target, cfg)


def _sweep_row(e, target: float, cfg: SolverConfig) -> list[str]:
    f = fileio.float_repr
    try:
        r = solve(e, target, cfg)
    except InfeasibleTargetError:
        return [f(target), "", "", "", "", "", "infeasible"]
    try:
        certified = certificate.check(e, r.povm).optimal
    except certificate.SingularMultiplierError:
        certified = False
    return [f(target), f(r.p_s), f(r.p_rs), str(r.iterations),
            f(r.final_change), "true" if certified else "false",
            "ok" if r.converged else "maxiter"]


def _run_jobs(worker, jobs: list[tuple], n_workers: int) -> list[list[str]]:
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, jobs))  # map preserves job order


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
        "violations": [
            {"message": v.message, "residual": v.residual, "index": v.index}
            for v in violations
        ],
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
            "violations": [
                {"message": v.message, "residual": v.residual, "index": v.index}
                for v in exc.violations
            ],
        }, started)
        return None, None, EXIT_VALIDATION


def cmd_solve(args) -> int:
    started = time.perf_counter()
    e, digest, status = _load_for_command(args, started, "solve")
    if status is not None:
        return status
    cfg = _solver_config(args)
    config = _config_echo(cfg) | {"target_pi": args.pi}
    try:
        r = solve(e, args.pi, cfg)
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
        payload["povm"] = {
            "dim": r.povm.dim,
            "elements": [fileio.matrix_to_pairs(m) for m in r.povm.elements],
        }
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
    except ValueError as exc:
        _emit_record("tradeoff", digest, {}, {"error": str(exc)}, started)
        return EXIT_VALIDATION
    cfg = _solver_config(args)
    jobs = [(e, float(t), cfg) for t in grid]
    rows = _run_jobs(_sweep_point_file, jobs, args.jobs)
    sys.stdout.write(TRADEOFF_HEADER + "\n")
    for row in rows:
        sys.stdout.write(",".join(row) + "\n")
    return EXIT_OK


def cmd_bound(args) -> int:
    started = time.perf_counter()
    e, digest, status = _load_for_command(args, started, "bound")
    if status is not None:
        return status
    try:
        b = bounds.max_relative_success(e)
    except bounds.RankDeficientEnsembleError as exc:
        _emit_record("bound", digest, {}, {"error": str(exc)}, started)
        return EXIT_SINGULAR
    payload = {
        "prs_max": b.prs_max,
        "per_state_a": list(b.per_state_a),
        "argmax_state": b.argmax_state,
        "kernel_dimension": b.kernel_dimension,
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
    if povm.n_conclusive != e.n_states:
        _emit_record("certify", digest, config, {
            "error": f"POVM has {povm.n_conclusive} conclusive elements "
                     f"for {e.n_states} states"}, started)
        return EXIT_VALIDATION
    violations = povm_violations(povm)
    if violations:
        _emit_record("certify", digest, config, {
            "error": "POVM failed validation",
            "violations": [
                {"message": v.message, "residual": v.residual, "index": v.index}
                for v in violations
            ],
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
    etas = [float(x) for x in args.etas.split(",") if x]
    cfg = _solver_config(args)
    jobs = []
    for eta in etas:
        p = qubit_analytic.SymmetricQubitProblem(eta, args.theta)
        for t in default_sweep_grid(p, points=args.points):
            jobs.append((eta, args.theta, float(t), cfg))
    rows = _run_jobs(_sweep_point_symmetric, jobs, args.jobs)
    sys.stdout.write("eta," + TRADEOFF_HEADER + "\n")
    for row in rows:
        sys.stdout.write(",".join(row) + "\n")
    return EXIT_OK


def default_sweep_grid(p: qubit_analytic.SymmetricQubitProblem,
                       points: int = 25, gap: float = 0.08,
                       stop: float = 0.84) -> np.ndarray:
    """Inconclusive-rate grid sampling both branches of the trade-off curve.

    The fixed-point map slows down critically right at the plateau onset
    (iterations grow like 1/distance), so the grid skips a window of
    half-width ``gap`` around the onset and samples the rising branch and
    the plateau separately.
    """
    onset = qubit_analytic.plateau_onset_pi(p)
    n_lo = (points + 1) // 2
    n_hi = points - n_lo
    lo = np.linspace(0.0, max(onset - gap, 0.0), n_lo)
    hi = np.linspace(min(onset + gap, stop), stop, n_hi)
    return np.concatenate([lo, hi])


# ---------------------------------------------------------------------------
# parser

def _add_solver_flags(sub) -> None:
    sub.add_argument("--tol", type=float, default=SolverConfig.povm_tolerance,
                     help="per-sweep POVM change at which iteration stops")
    sub.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations,
                     help="iteration cap")
    sub.add_argument("--pinv-cutoff", type=float,
                     default=SolverConfig.pinv_cutoff,
                     help="relative eigenvalue cutoff: eigenvalues at or below "
                          "this fraction of the largest are not inverted")


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
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: available parallelism)")
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
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: available parallelism)")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
