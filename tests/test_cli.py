import concurrent.futures
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from closed_forms import (
    SymmetricQubitProblem,
    analytic_povm,
    phi_max_and_prs_max,
    plateau_onset_pi,
)
from conftest import padded
from povmlab import cli
from povmlab.bounds import max_relative_success
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair
from povmlab.certificate import check
from povmlab.fileio import load_ensemble, load_povm, save_ensemble, save_povm
from povmlab.solver import InfeasibleTargetError, Povm, solve, solve_grid

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
    # validate names a missing file and a directory with the OS's message
    folder = tmp_path / "folder.json"
    folder.mkdir()
    for path, number in ((tmp_path / "absent.json", errno.ENOENT), (folder, errno.EISDIR)):
        code, rec = run_json(capsys, ["validate", str(path)])
        assert code == cli.EXIT_IO
        assert rec["result"]["error"] == (
            f"cannot read {path}: [Errno {number}] {os.strerror(number)}: {str(path)!r}")


def test_undecodable_file_is_io_error(capsys, ensemble_file, tmp_path):
    # bytes that are not UTF-8, -16 or -32 make a format-error record
    bad = tmp_path / "bytes.json"
    bad.write_bytes(b"\xff\xfe\x00")
    povm_path = tmp_path / "povm.json"
    save_povm(povm_path, analytic_povm(PROBLEM, 2.0 * math.pi / 3.0))
    for argv in (["validate", str(bad)], ["bound", str(bad)],
                 ["certify", str(bad), str(povm_path)],
                 ["certify", str(ensemble_file), str(bad)]):
        code, rec = run_json(capsys, argv)
        assert code == cli.EXIT_IO
        assert rec["command"] == argv[0]
        assert rec["result"]["error"].startswith(f"{bad} is not valid JSON: ")


@pytest.mark.parametrize("command", ["solve", "tradeoff", "bound", "certify"])
def test_invalid_ensemble_record(capsys, ensemble_file, tmp_path, command):
    # a well-formed file whose priors sum to 1.2 fails validation on load:
    # no digest, no config, and the violations in the result
    record = json.loads(ensemble_file.read_text())
    record["priors"] = [0.6, 0.6]
    path = tmp_path / "priors.json"
    path.write_text(json.dumps(record))
    povm_path = tmp_path / "povm.json"
    save_povm(povm_path, analytic_povm(PROBLEM, 2.0 * math.pi / 3.0))
    argv = {"solve": [], "tradeoff": ["--pi-grid", "0:0.5:3"], "bound": [],
            "certify": [str(povm_path)]}[command]
    code, rec = run_json(capsys, [command, str(path), *argv])
    assert code == cli.EXIT_VALIDATION
    assert rec["command"] == command
    assert rec["input_digest"] == ""
    assert rec["config"] == {}
    assert list(rec["result"]) == ["error", "violations"]
    assert rec["result"]["error"] == "ensemble failed validation"
    violations = rec["result"]["violations"]
    assert violations and all(list(v) == ["message", "residual", "index"] for v in violations)
    assert any("sum" in v["message"] for v in violations)


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


def test_tradeoff_certified_column_is_each_points_check(capsys, ensemble_file):
    # at a cap of 3 sweeps the iterated rows are not certified and the
    # closed-form plateau rows are
    code, out = run_cli(capsys, [
        "tradeoff", str(ensemble_file), "--pi-grid", "0:0.8:9", "--max-iter", "3"])
    assert code == cli.EXIT_OK
    column = [line.split(",")[5] == "true" for line in out.strip().split("\n")[1:]]
    e = load_ensemble(ensemble_file)
    grid = solve_grid([(e, float(t)) for t in np.linspace(0.0, 0.8, 9)], max_iterations=3)
    assert column == [check(e, r.povm).optimal for r in grid]
    assert True in column and False in column


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


def test_bound_record_without_a_plateau_measurement(capsys, tmp_path):
    # the states are 1e-8 apart in angle, and their limiting operator shows no
    # kernel
    path = tmp_path / "close.json"
    save_ensemble(path, symmetric_qubit_pair(0.3, 1e-8))
    code, out = run_cli(capsys, ["bound", str(path)])
    assert code == cli.EXIT_OK
    assert '"plateau_pi": null' in out
    assert json.loads(out)["result"]["plateau_pi"] is None


def test_average_state_is_decomposed_once(capsys, ensemble_file, monkeypatch):
    calls = [0]
    eigh = np.linalg.eigh
    eigvalsh_calls = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    def counted_eigvalsh(*args, **kwargs):
        eigvalsh_calls[0] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    # sigma's root, shared by the ceiling and the plateau measurement, and
    # the stacked eigh of the limiting operators
    assert cli.main(["bound", str(ensemble_file)]) == cli.EXIT_OK
    assert calls[0] == 2
    # the default grid: one root of sigma per ensemble, and every eigh of
    # the command made inside its solve_grid call; every point is certified
    # once, by the solver's exit check, so no second certificate pass adds
    # an eigvalsh
    calls[0] = eigvalsh_calls[0] = 0
    assert cli.main(["fig1"]) == cli.EXIT_OK
    assert (calls[0], eigvalsh_calls[0]) == (45, 26)
    # the onset window
    calls[0] = eigvalsh_calls[0] = 0
    assert cli.main(["tradeoff", str(ensemble_file), "--pi-grid",
                     "0.5563961030678929:0.7163961030678928:33"]) == cli.EXIT_OK
    assert (calls[0], eigvalsh_calls[0]) == (30, 13)
    capsys.readouterr()
    e = PROBLEM.ensemble()
    max_relative_success(e)
    calls[0] = 0
    max_relative_success(e)
    assert calls[0] == 0


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


@pytest.mark.parametrize("command", ["tradeoff", "fig1"])
def test_sweep_failure_prints_one_record(capsys, ensemble_file, monkeypatch, command):
    # an error inside the sweep prints the command's error record and no CSV
    def boom(points, *, max_iterations):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "solve_grid", boom)
    argv = {"tradeoff": ["tradeoff", str(ensemble_file), "--pi-grid", "0:0.5:3"],
            "fig1": ["fig1", "--etas", "0.9", "--points", "3"]}[command]
    code, rec = run_json(capsys, argv)
    assert code == cli.EXIT_VALIDATION
    assert rec["command"] == command
    assert rec["result"] == {"error": "boom"}
    digest = hashlib.sha256(ensemble_file.read_bytes()).hexdigest()
    assert rec["input_digest"] == (digest if command == "tradeoff" else "")


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


@pytest.mark.parametrize("argv, uncertified", [
    # sigma's small eigenvalue falls below the pseudoinverse cutoff, so the
    # closed-form rows and the iterated target-0 row are wrong and say so
    (["--theta", "1e-6", "--etas", "1", "--points", "5"], 5),
    # target 0 stops at the anti-Helstrom measurement, and targets 0.3
    # (the family onset) and 0.84 as close to optimal, each with a
    # positivity margin just past the certificate's tolerance (-1.50e-9,
    # -3.40e-9 and -1.57e-9)
    (["--theta", "1e-8", "--etas", "0.3", "--points", "5"], 3),
])
def test_fig1_converged_but_uncertified_rows_are_not_ok(capsys, argv, uncertified):
    code, out = run_cli(capsys, ["fig1", *argv])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 5
    assert sum(r[7] == "uncertified" for r in rows) == uncertified
    for r in rows:
        assert r[7] in ("ok", "uncertified", "maxiter")
        if r[7] != "maxiter":
            assert (r[7] == "ok") == (r[6] == "true")


def test_default_grids_print_every_row_certified_and_ok(capsys, ensemble_file):
    _, fig1 = run_cli(capsys, ["fig1"])
    _, window = run_cli(capsys, ["tradeoff", str(ensemble_file), "--pi-grid",
                                 "0.5563961030678929:0.7163961030678928:33",
                                 "--max-iter", "1000"])
    rows = fig1.strip().split("\n")[1:] + window.strip().split("\n")[1:]
    assert len(rows) == 133
    assert all(row.endswith(",true,ok") for row in rows)


@pytest.mark.parametrize("theta", ["1e-3", "1e-4"])
def test_nearly_parallel_pairs_print_every_row_certified_and_ok(capsys, theta):
    # from the uninformative start 11 and 22 of these rows ran into the
    # default cap of 500 sweeps
    code, out = run_cli(capsys, ["fig1", "--theta", theta, "--points", "25"])
    assert code == cli.EXIT_OK
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 100
    assert all(row.endswith(",true,ok") for row in rows)


def test_fig1_jobs_2_runs_in_process(capsys, monkeypatch):
    argv = ["fig1", "--etas", "0.8,0.9", "--points", "7"]
    _, serial = run_cli(capsys, argv + ["--jobs", "1"])
    _forbid_processes(monkeypatch)
    code, jobs_2 = run_cli(capsys, argv + ["--jobs", "2"])
    assert code == cli.EXIT_OK
    assert jobs_2 == serial
    assert len(serial.strip().split("\n")) == 15


def test_default_sweep_grid_samples_the_onset_once(capsys):
    # (eta, theta, points); with the onset below GRID_STOP the rising branch
    # takes (points + 1) // 2 points, the onset its last, and the plateau the
    # rest; with the onset at or past GRID_STOP every point is below it
    cases = [(eta, math.pi / 4, 25) for eta in (0.7, 0.8, 0.9, 1.0)]
    cases += [(1.0, 0.5, 9), (0.1, math.pi / 4, 9), (1.0, 0.1, 9), (0.9, math.pi / 4, 4),
              (0.9, math.pi / 4, 3)]
    for eta, theta, points in cases:
        onset = plateau_onset_pi(SymmetricQubitProblem(eta, theta))
        grid = cli.default_sweep_grid(onset, points=points)
        assert len(grid) == points
        assert np.all(np.diff(grid) > 0.0)
        assert grid[0] == 0.0 and grid[-1] == 0.84
        if onset < 0.84:
            assert (grid == onset).sum() == 1
            # both branches of the curve are sampled
            assert (grid <= onset).sum() == (points + 1) // 2
            assert (grid > onset).sum() == points // 2
        else:
            assert np.array_equal(grid, np.linspace(0.0, 0.84, points))


def test_fig1_grid_uses_the_family_onset(capsys):
    # the two states are equal in double precision here, and the plateau
    # measurement's rate is 0 rather than the family's onset; the grid comes
    # from eta cos(theta) = 0.9 and keeps only its rising branch, 0 ... 0.84
    code, out = run_cli(capsys, ["fig1", "--etas", "0.9", "--theta", "1e-16",
                                 "--points", "5"])
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    expected = cli.default_sweep_grid(0.9 * math.cos(1e-16), 5).tolist()
    assert [float(r[1]) for r in rows] == expected
    assert expected[0] == 0.0 and expected[-1] == 0.84


# ---------------------------------------------------------------------------
# input files

_OPEN_LOG: dict = {"hooked": False, "paths": None}


def _log_open(event, args):
    if event == "open" and _OPEN_LOG["paths"] is not None:
        _OPEN_LOG["paths"].append(str(args[0]))


@pytest.fixture
def opened():
    """The paths opened while the test runs, from the interpreter's "open"
    audit events. An audit hook cannot be removed, so one is added on first
    use and records only inside this fixture."""
    if not _OPEN_LOG["hooked"]:
        sys.addaudithook(_log_open)
        _OPEN_LOG["hooked"] = True
    _OPEN_LOG["paths"] = paths = []
    yield paths
    _OPEN_LOG["paths"] = None


@pytest.mark.parametrize("command", ["validate", "solve", "tradeoff", "bound", "certify"])
def test_each_input_is_read_once_and_digested(capsys, ensemble_file, tmp_path, opened, command):
    povm_file = tmp_path / "povm.json"
    save_povm(povm_file, solve(PROBLEM.ensemble(), 0.2).povm)
    argv = {"validate": [], "solve": ["--pi", "0.2"], "tradeoff": ["--pi-grid", "0:0.3:2"],
            "bound": [], "certify": [str(povm_file)]}[command]
    opened.clear()
    code, out = run_cli(capsys, [command, str(ensemble_file), *argv])
    assert code == cli.EXIT_OK
    inputs = [str(ensemble_file)] + ([str(povm_file)] if command == "certify" else [])
    assert sorted(path for path in opened if path in inputs) == sorted(inputs)
    if command == "tradeoff":
        return
    rec = json.loads(out)
    assert rec["input_digest"] == hashlib.sha256(ensemble_file.read_bytes()).hexdigest()
    if command == "certify":
        assert rec["config"]["povm_digest"] == hashlib.sha256(povm_file.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# entry point

def test_console_script_runs(ensemble_file):
    proc = subprocess.run(
        [sys.executable, "-m", "povmlab.cli", "validate", str(ensemble_file)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["valid"] is True


def test_log_variable_that_is_not_a_level_means_warning():
    # logging.BASIC_FORMAT is a string, not a level; run in a fresh
    # interpreter, whose root logger has no handlers yet
    proc = subprocess.run(
        [sys.executable, "-m", "povmlab.cli", "fig1", "--etas", "0.9", "--points", "3"],
        capture_output=True, text=True, env={**os.environ, "POVMLAB_LOG": "basic_format"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("eta,pi,")
    assert proc.stderr == ""


def test_fig1_does_not_import_hashlib():
    # fig1 records no digest, so it does not pay for loading OpenSSL
    code = ("import sys; from povmlab import cli; "
            "code = cli.main(['fig1', '--etas', '0.9', '--points', '3']); "
            "sys.exit('hashlib imported' if 'hashlib' in sys.modules else code)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("eta,pi,")


def test_cli_import_does_not_load_dataclasses():
    # povmlab creates its types without generating code at import; the
    # baseline is what numpy loaded, so the check holds on any numpy
    code = ("import sys, numpy; before = set(sys.modules); import povmlab.cli; "
            "sys.exit('dataclasses imported' if 'dataclasses' in set(sys.modules) - before "
            "else 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tradeoff_digests_its_input_only_for_a_record(ensemble_file):
    # a grid prints CSV without loading hashlib; a bad grid's error record
    # carries the digest of the bytes read
    code = ("import sys; from povmlab import cli; "
            "code = cli.main(['tradeoff', sys.argv[1], '--pi-grid', sys.argv[2]]); "
            "sys.exit(f'{code} hashlib' if 'hashlib' in sys.modules else code)")
    proc = subprocess.run([sys.executable, "-c", code, str(ensemble_file), "0:0.3:3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pi,ps,")
    proc = subprocess.run([sys.executable, "-c", code, str(ensemble_file), "0:0.3:0"],
                          capture_output=True, text=True)
    assert "1 hashlib" in proc.stderr
    rec = json.loads(proc.stdout)
    assert rec["input_digest"] == hashlib.sha256(ensemble_file.read_bytes()).hexdigest()


def test_package_root_exports_resolve():
    import povmlab

    assert len(set(povmlab.__all__)) == len(povmlab.__all__)
    for name in povmlab.__all__:
        assert getattr(povmlab, name) is not None


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["frobnicate"])
    assert exc_info.value.code != 0
