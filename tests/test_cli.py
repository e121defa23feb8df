import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import padded
from povmlab import cli
from povmlab.bounds import max_relative_success
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair
from povmlab.fileio import load_povm, save_ensemble, save_povm
from povmlab.qubit_analytic import (
    SymmetricQubitProblem,
    analytic_povm,
    phi_max_and_prs_max,
    plateau_onset_pi,
)
from povmlab.solver import InfeasibleTargetError, Povm, solve

PROBLEM = SymmetricQubitProblem(0.9, math.pi / 4)


@pytest.fixture
def ensemble_file(tmp_path):
    path = tmp_path / "pair.json"
    save_ensemble(path, PROBLEM.ensemble())
    return path


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# validate

def test_validate_ok(capsys, ensemble_file):
    code, rec = run_json(capsys, ["validate", str(ensemble_file)])
    assert code == cli.EXIT_OK
    assert rec["command"] == "validate"
    assert rec["result"]["valid"] is True
    assert rec["result"]["dim"] == 2
    assert rec["result"]["n_states"] == 2
    assert re.fullmatch(r"[0-9a-f]{64}", rec["input_digest"])


def test_validate_bad_priors(capsys, tmp_path):
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    bad = StateEnsemble(e.states, np.array([0.6, 0.5]))
    path = tmp_path / "bad.json"
    save_ensemble(path, bad)
    code, rec = run_json(capsys, ["validate", str(path)])
    assert code == cli.EXIT_VALIDATION
    assert rec["result"]["valid"] is False
    assert any("sum" in v["message"] for v in rec["result"]["violations"])


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, rec = run_json(capsys, ["validate", str(path)])
    assert code == cli.EXIT_IO
    assert "error" in rec["result"]


def test_integer_too_large_for_a_float_is_io_error(capsys, ensemble_file, tmp_path):
    big = json.loads(ensemble_file.read_text())
    big["states"][0][0][0][0] = 10 ** 400
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    povm_path = tmp_path / "big_povm.json"
    povm_path.write_text(json.dumps({"dim": big["dim"], "elements": big["states"]}))
    for argv in (["validate", str(path)], ["bound", str(path)],
                 ["certify", str(ensemble_file), str(povm_path)]):
        code, rec = run_json(capsys, argv)
        assert code == cli.EXIT_IO
        assert "is too large for a float" in rec["result"]["error"]


def test_missing_file_is_io_error(capsys, tmp_path):
    code, rec = run_json(capsys, ["solve", str(tmp_path / "absent.json")])
    assert code == cli.EXIT_IO


# ---------------------------------------------------------------------------
# solve

def test_solve_record_shape(capsys, ensemble_file):
    code, rec = run_json(capsys, ["solve", str(ensemble_file), "--pi", "0.1"])
    assert code == cli.EXIT_OK
    assert rec["command"] == "solve"
    # the whole echo, in record order; the fixed settings come from constants
    assert list(rec["config"].items()) == [
        ("max_iterations", 500),
        ("povm_tolerance", 1e-12),
        ("bisection_tolerance", 1e-14),
        ("bisection_max_steps", 200),
        ("pinv_cutoff", 1e-12),
        ("target_pi", 0.1),
    ]
    res = rec["result"]
    assert abs(res["p_i"] - 0.1) < 1e-10
    assert res["converged"] is True
    assert 0.0 <= res["rate_residual"] <= rec["config"]["bisection_tolerance"]
    assert rec["iterations"] == res["iterations"] > 0
    assert res["certificate"]["optimal"] is True
    assert res["p_rs"] > res["p_s"]
    # cross-check against a direct library call
    direct = solve(PROBLEM.ensemble(), 0.1)
    assert abs(res["p_rs"] - direct.p_rs) < 1e-12


def test_solve_records_are_reproducible(capsys, ensemble_file):
    _, first = run_cli(capsys, ["solve", str(ensemble_file), "--pi", "0.2"])
    _, second = run_cli(capsys, ["solve", str(ensemble_file), "--pi", "0.2"])
    scrub = re.compile(r'"duration_s": [^,\n]+')
    assert scrub.sub("", first) == scrub.sub("", second)
    assert first != second  # durations differ, nothing else does


def test_solve_emit_povm_round_trips(capsys, ensemble_file, tmp_path):
    code, rec = run_json(
        capsys, ["solve", str(ensemble_file), "--pi", "0.3", "--emit-povm"])
    assert code == cli.EXIT_OK
    povm_path = tmp_path / "povm.json"
    povm_path.write_text(json.dumps(rec["result"]["povm"]))
    povm = load_povm(povm_path)
    assert povm.dim == 2 and povm.n_conclusive == 2
    total = sum(povm.elements)
    assert np.allclose(total, np.eye(2), atol=1e-9)
    code2, rec2 = run_json(
        capsys, ["certify", str(ensemble_file), str(povm_path)])
    assert code2 == cli.EXIT_OK
    assert rec2["result"]["optimal"] is True


def test_solve_rejects_bad_target(capsys, ensemble_file):
    code, rec = run_json(capsys, ["solve", str(ensemble_file), "--pi", "1.5"])
    assert code == cli.EXIT_VALIDATION
    assert "error" in rec["result"]


def test_solve_infeasible_exit(capsys, ensemble_file, monkeypatch):
    def fake_solve(e, target, *, max_iterations):
        raise InfeasibleTargetError(target, 0.75)

    monkeypatch.setattr(cli, "solve", fake_solve)
    code, rec = run_json(capsys, ["solve", str(ensemble_file), "--pi", "0.9"])
    assert code == cli.EXIT_INFEASIBLE
    assert rec["result"]["target_pi"] == 0.9
    assert rec["result"]["reachable_supremum"] == 0.75


# ---------------------------------------------------------------------------
# tradeoff

def test_tradeoff_csv(capsys, ensemble_file):
    code, out = run_cli(capsys, [
        "tradeoff", str(ensemble_file),
        "--pi-grid", "0:0.4:5", "--jobs", "1"])
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "pi,ps,prs,iterations,residual,certified,status"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    targets = [float(r[0]) for r in rows]
    assert targets == pytest.approx(list(np.linspace(0.0, 0.4, 5)))
    for r in rows:
        assert r[6] == "ok"
        assert r[5] == "true"
        assert int(r[3]) > 0
        assert float(r[4]) <= 1e-12
    # renormalized rate is non-decreasing along the sweep
    prs = [float(r[2]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(prs, prs[1:]))


def test_tradeoff_plateau_rows_take_no_sweeps(capsys, ensemble_file):
    onset = plateau_onset_pi(PROBLEM)
    code, out = run_cli(capsys, [
        "tradeoff", str(ensemble_file), "--pi-grid", f"{onset!r}:0.8:3", "--jobs", "1"])
    assert code == cli.EXIT_OK
    _, prs_max = phi_max_and_prs_max(PROBLEM)
    for line in out.strip().split("\n")[1:]:
        assert line.endswith(",0,0,true,ok")
        assert float(line.split(",")[2]) == pytest.approx(prs_max, abs=1e-12)


def _forbid_processes(monkeypatch):
    """Make starting a process, directly or through a pool, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep started a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


def test_tradeoff_jobs_2_runs_in_process(capsys, ensemble_file, monkeypatch):
    argv = ["tradeoff", str(ensemble_file), "--pi-grid", "0:0.3:4"]
    _, serial = run_cli(capsys, argv + ["--jobs", "1"])
    _forbid_processes(monkeypatch)
    code, jobs_2 = run_cli(capsys, argv + ["--jobs", "2"])
    assert code == cli.EXIT_OK
    assert jobs_2 == serial


def test_tradeoff_marks_capped_points(capsys, ensemble_file):
    code, out = run_cli(capsys, [
        "tradeoff", str(ensemble_file), "--pi-grid", "0:0.4:3",
        "--jobs", "1", "--max-iter", "3"])
    assert code == cli.EXIT_OK
    for line in out.strip().split("\n")[1:]:
        row = line.split(",")
        assert row[3] == "3"
        assert row[6] == "maxiter"


def test_tradeoff_loads_the_file_once(capsys, ensemble_file, monkeypatch):
    loads = []
    real = cli.fileio.load_ensemble
    monkeypatch.setattr(cli.fileio, "load_ensemble",
                        lambda *a, **k: loads.append(a) or real(*a, **k))
    code, _ = run_cli(capsys, [
        "tradeoff", str(ensemble_file), "--pi-grid", "0:0.3:4", "--jobs", "1"])
    assert code == cli.EXIT_OK
    assert len(loads) == 1


def test_tradeoff_rejects_bad_grid(capsys, ensemble_file):
    for grid in ["0:0.4", "0.5:0.2:3", "0:1.0:3", "0:0.4:0"]:
        code, _ = run_cli(capsys, [
            "tradeoff", str(ensemble_file), "--pi-grid", grid])
        assert code == cli.EXIT_VALIDATION, grid


# ---------------------------------------------------------------------------
# bound

def test_bound_record(capsys, ensemble_file):
    code, rec = run_json(capsys, ["bound", str(ensemble_file)])
    assert code == cli.EXIT_OK
    expected = max_relative_success(PROBLEM.ensemble())
    assert rec["result"]["prs_max"] == pytest.approx(expected.prs_max, abs=1e-15)
    assert rec["result"]["kernel_dimension"] == expected.kernel_dimension
    assert len(rec["result"]["per_state_a"]) == 2
    assert abs(rec["result"]["plateau_pi"] - plateau_onset_pi(PROBLEM)) <= 1e-15


def test_bound_record_without_a_plateau_measurement(capsys, ensemble_file, monkeypatch):
    def no_kernel(e, bound):
        raise cli.bounds.InconsistentBoundError("no kernel at the computed ceiling")

    monkeypatch.setattr(cli.bounds, "plateau_measurement", no_kernel)
    code, rec = run_json(capsys, ["bound", str(ensemble_file)])
    assert code == cli.EXIT_OK
    assert rec["result"]["plateau_pi"] is None


def test_bound_on_padded_pair(capsys, tmp_path):
    # the pair embedded in a qutrit: the average state is singular, and the
    # ceiling is taken on its support
    path = tmp_path / "padded.json"
    save_ensemble(path, padded(PROBLEM.ensemble(), 3))
    code, rec = run_json(capsys, ["bound", str(path)])
    assert code == cli.EXIT_OK
    expected = max_relative_success(PROBLEM.ensemble())
    assert rec["result"]["prs_max"] == pytest.approx(expected.prs_max, abs=1e-14)
    assert rec["result"]["kernel_dimension"] == 1


# ---------------------------------------------------------------------------
# certify

def test_certify_optimal_povm(capsys, ensemble_file, tmp_path):
    phi = 2.0 * math.pi / 3.0
    povm_path = tmp_path / "opt.json"
    save_povm(povm_path, analytic_povm(PROBLEM, phi))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_OK
    res = rec["result"]
    assert res["optimal"] is True
    assert max(res["extremal_residuals"]) <= 1e-8
    assert res["a"] is not None
    assert re.fullmatch(r"[0-9a-f]{64}", rec["config"]["povm_digest"])


def test_certify_stationary_but_suboptimal(capsys, ensemble_file, tmp_path):
    phi_max, _ = phi_max_and_prs_max(PROBLEM)
    povm_path = tmp_path / "past.json"
    save_povm(povm_path, analytic_povm(PROBLEM, phi_max + 0.2))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_NOT_OPTIMAL
    res = rec["result"]
    assert res["optimal"] is False
    assert max(res["extremal_residuals"]) <= 1e-8  # stationary family member
    margins = [m for m in res["positivity_margins"] if m is not None]
    assert min(margins) < -1e-6


def test_certify_singular_multiplier(capsys, ensemble_file, tmp_path):
    proj0 = np.diag([1.0, 0.0]).astype(complex)
    proj1 = np.diag([0.0, 1.0]).astype(complex)
    povm_path = tmp_path / "idempotent.json"
    save_povm(povm_path, Povm((proj0, 0.5 * proj1, 0.5 * proj1)))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_NOT_OPTIMAL
    assert rec["result"]["optimal"] is False
    assert "error" in rec["result"]


def test_certify_rejects_invalid_povm(capsys, ensemble_file, tmp_path):
    phi = 2.0 * math.pi / 3.0
    povm = analytic_povm(PROBLEM, phi)
    th = 0.1
    rot = np.array([[math.cos(th), -math.sin(th)],
                    [math.sin(th), math.cos(th)]], dtype=complex)
    p1 = rot @ povm.elements[1] @ rot.conj().T
    p2 = povm.elements[2]
    p0 = np.eye(2, dtype=complex) - p1 - p2
    assert np.linalg.eigvalsh(p0).min() < -1e-6  # closure broke positivity
    povm_path = tmp_path / "notpsd.json"
    save_povm(povm_path, Povm((p0, p1, p2)))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_VALIDATION
    assert rec["result"]["violations"]


def test_certify_symmetrizes_round_off_asymmetry(capsys, ensemble_file, tmp_path):
    # asymmetry 5e-11: within what povm_violations accepts (1e-9) but above
    # the 1e-12 that ensemble.validate allows a state
    r = solve(PROBLEM.ensemble(), 0.3)
    skew = np.array([[0.0, 2.5e-11], [-2.5e-11, 0.0]], dtype=complex)
    povm = Povm((r.povm.elements[0] + skew, *r.povm.conclusive))
    povm_path = tmp_path / "skewed.json"
    save_povm(povm_path, povm)
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_OK
    assert rec["result"]["optimal"] is True


def test_certify_rejects_mismatched_count(capsys, ensemble_file, tmp_path):
    third = np.eye(2, dtype=complex) / 3.0
    povm_path = tmp_path / "three.json"
    save_povm(povm_path, Povm((third, third, third, third * 0 + third)))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_VALIDATION
    assert "conclusive" in rec["result"]["error"]


def test_certify_rejects_mismatched_dimension(capsys, ensemble_file, tmp_path):
    third = np.eye(3, dtype=complex) / 3.0
    povm_path = tmp_path / "qutrit.json"
    save_povm(povm_path, Povm((third, third, third)))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_VALIDATION
    assert rec["result"]["error"] == (
        "POVM has dimension 3 for states of dimension 2")


def test_certify_rejects_non_finite_povm(capsys, ensemble_file, tmp_path):
    povm_path = tmp_path / "nan.json"
    save_povm(povm_path, analytic_povm(PROBLEM, 2.0 * math.pi / 3.0))
    record = json.loads(povm_path.read_text())
    record["elements"][1][0][1][0] = math.nan
    povm_path.write_text(json.dumps(record))
    code, rec = run_json(capsys, ["certify", str(ensemble_file),
                                  str(povm_path)])
    assert code == cli.EXIT_IO
    assert rec["result"] == {"error": f"{povm_path}: POVM entries must be finite"}


@pytest.mark.parametrize("argv, error", [
    (["solve", "FILE", "--pi", "0.2", "--max-iter", "0"], "--max-iter must be at least 1, got 0"),
    (["tradeoff", "FILE", "--pi-grid", "0:0.5:3", "--max-iter", "0", "--jobs", "1"],
     "--max-iter must be at least 1, got 0"),
    (["tradeoff", "FILE", "--pi-grid", "0:0.5:3", "--jobs", "0"],
     "--jobs must be at least 1, got 0"),
    (["fig1", "--max-iter", "0"], "--max-iter must be at least 1, got 0"),
    (["fig1", "--etas", "0.9,1.5"], "eta must lie in (0, 1], got 1.5"),
    (["fig1", "--points", "0"], "--points must be at least 1, got 0"),
    (["fig1", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["fig1", "--jobs", "-1"], "--jobs must be at least 1, got -1"),
    (["fig1", "--etas", ","], "--etas must list at least one value"),
    (["tradeoff", "FILE", "--pi-grid", "0.5:0.9999999999999:2", "--jobs", "1"],
     "target inconclusive rate 0.99999999999989997 leaves no conclusive "
     "fraction to renormalize"),
    (["solve", "FILE", "--pi", "nan"], "target inconclusive rate must lie in [0, 1), got nan"),
    (["fig1", "--theta", "nan"], "theta must lie in (0, pi/2), got nan"),
    (["solve", "FILE", "--pi", "-inf"], "target inconclusive rate must lie in [0, 1), got -inf"),
    (["tradeoff", "FILE", "--pi-grid", "0:nan:3"],
     "--pi-grid range must satisfy 0 <= start <= stop < 1"),
    (["fig1", "--theta", "-1e-3"], "theta must lie in (0, pi/2), got -0.001"),
    (["fig1", "--etas", "-0.5,0.9"], "eta must lie in (0, 1], got -0.5"),
    (["tradeoff", "FILE", "--pi-grid", "-0.1:0.5:3"],
     "--pi-grid range must satisfy 0 <= start <= stop < 1"),
])
def test_bad_solver_flag_emits_error_record(capsys, ensemble_file, argv, error):
    argv = [str(ensemble_file) if a == "FILE" else a for a in argv]
    code, rec = run_json(capsys, argv)
    assert code == cli.EXIT_VALIDATION
    assert rec["command"] == argv[0]
    assert rec["result"] == {"error": error}


def test_tol_flag_stops_in_argparse(ensemble_file):
    # the fixed-point tolerance is solver.POVM_TOLERANCE, not a flag
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["solve", str(ensemble_file), "--tol", "1e-10"])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# fig1 sweep

def test_fig1_output_shape(capsys):
    code, out = run_cli(capsys, [
        "fig1", "--etas", "0.7,0.9", "--points", "5", "--jobs", "1",
        "--max-iter", "300"])
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "eta,pi,ps,prs,iterations,residual,certified,status"
    assert len(lines) == 11
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows[:5]] == [0.7] * 5
    assert [float(r[0]) for r in rows[5:]] == [0.9] * 5
    assert all(r[7] == "ok" for r in rows)
    assert all(r[6] == "true" for r in rows)


def test_fig1_jobs_2_runs_in_process(capsys, monkeypatch):
    argv = ["fig1", "--etas", "0.8,0.9", "--points", "7"]
    _, serial = run_cli(capsys, argv + ["--jobs", "1"])
    _forbid_processes(monkeypatch)
    code, jobs_2 = run_cli(capsys, argv + ["--jobs", "2"])
    assert code == cli.EXIT_OK
    assert jobs_2 == serial
    assert len(serial.strip().split("\n")) == 15


def test_default_sweep_grid_avoids_onset(capsys):
    # (eta, theta, points, both branches fit); with the onset within
    # GRID_GAP of GRID_STOP or of 0, one branch takes every point
    cases = [(eta, math.pi / 4, 25, True) for eta in (0.7, 0.8, 0.9, 1.0)]
    cases += [(1.0, 0.5, 9, False), (0.1, math.pi / 4, 9, False), (1.0, 0.1, 9, False)]
    for eta, theta, points, both in cases:
        p = SymmetricQubitProblem(eta, theta)
        grid = cli.default_sweep_grid(p, points=points)
        onset = plateau_onset_pi(p)
        assert len(grid) == points
        assert len(set(grid.tolist())) == points
        assert grid.min() >= 0.0
        assert grid.max() <= 0.84
        assert np.abs(grid - onset).min() >= 0.08 - 1e-12
        if both:
            assert grid.min() == 0.0
            # both branches of the curve are sampled
            assert (grid < onset).sum() >= 10
            assert (grid > onset).sum() >= 10


# ---------------------------------------------------------------------------
# entry point

def test_console_script_runs(ensemble_file):
    proc = subprocess.run(
        [sys.executable, "-m", "povmlab.cli", "validate", str(ensemble_file)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["valid"] is True


def test_package_root_exports_resolve():
    import povmlab

    assert len(set(povmlab.__all__)) == len(povmlab.__all__)
    for name in povmlab.__all__:
        assert getattr(povmlab, name) is not None


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code != 0
