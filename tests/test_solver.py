import logging
import math

import numpy as np
import pytest

from conftest import helstrom_two_state, random_ensemble
from povmlab import solver
from povmlab.certificate import multipliers_from_povm
from povmlab.cli import default_sweep_grid
from povmlab.ensemble import StateEnsemble, average_state, symmetric_qubit_pair
from povmlab.qubit_analytic import (
    SymmetricQubitProblem,
    analytic_povm,
    envelope_prs,
    phi_max_and_prs_max,
)
from povmlab.solver import (
    InfeasibleTargetError,
    Povm,
    RelativeRateUndefinedError,
    SolverConfig,
    initial_povm,
    iterate_once,
    multiplier_operator,
    povm_violations,
    predicted_inconclusive_rate,
    solve,
    solve_multiplier,
    success_metrics,
)

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def orthogonal_pair() -> StateEnsemble:
    return StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Povm type and validation

def test_povm_structural_checks():
    with pytest.raises(ValueError):
        Povm((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        Povm((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))


def test_povm_violations_reports():
    ok = Povm((0.5 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)))
    assert povm_violations(ok) == []
    neg = Povm((np.diag([1.5, 0.5]).astype(complex), np.diag([-0.5, 0.5]).astype(complex)))
    assert any("eigenvalue" in v.message for v in povm_violations(neg))
    open_sum = Povm((0.5 * np.eye(2, dtype=complex), 0.4 * np.eye(2, dtype=complex)))
    assert any("identity" in v.message for v in povm_violations(open_sum))


# ---------------------------------------------------------------------------
# initial POVM

def test_initial_povm_helstrom_start():
    povm = initial_povm(orthogonal_pair(), 0.0)
    assert np.allclose(povm.inconclusive, 0.0)
    assert np.allclose(povm.elements[1], np.eye(2) / 2)
    assert np.allclose(povm.elements[2], np.eye(2) / 2)


def test_initial_povm_split():
    povm = initial_povm(orthogonal_pair(), 0.4)
    assert np.allclose(povm.inconclusive, 0.4 * np.eye(2))
    assert np.allclose(povm.elements[1], 0.3 * np.eye(2))


def test_initial_povm_tracks_target_exactly():
    rng = np.random.default_rng(31)
    for _ in range(5):
        e = random_ensemble(rng, 3, 3)
        target = rng.uniform(0.0, 0.9)
        povm = initial_povm(e, target)
        p_i = np.trace(average_state(e) @ povm.inconclusive).real
        assert p_i == pytest.approx(target, abs=1e-14)
    with pytest.raises(ValueError):
        initial_povm(e, 1.0)


# ---------------------------------------------------------------------------
# multiplier operator and predicted rate

def test_multiplier_operator_ignores_a_without_inconclusive():
    e = orthogonal_pair()
    povm = Povm((np.zeros((2, 2), dtype=complex), PROJ0, PROJ1))
    lam0 = multiplier_operator(e, povm, 0.0)
    lam9 = multiplier_operator(e, povm, 9.0)
    assert np.allclose(lam0, lam9)
    # p_j^2 rho_j Pi_j rho_j = rho_j / 4 here, so the root is (rho_1+rho_2)/2
    assert np.allclose(lam0, (PROJ0 + PROJ1) / 2)


def test_predicted_rate_zero_cases():
    e = orthogonal_pair()
    start = initial_povm(e, 0.3)
    assert predicted_inconclusive_rate(e, start, 0.0) == pytest.approx(0.0)
    no_inc = Povm((np.zeros((2, 2), dtype=complex), PROJ0, PROJ1))
    for a in (0.5, 3.0, 100.0):
        assert predicted_inconclusive_rate(e, no_inc, a) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        predicted_inconclusive_rate(e, start, -1.0)


def test_predicted_rate_monotone_in_multiplier():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    start = initial_povm(e, 0.3)
    values = [predicted_inconclusive_rate(e, start, a)
              for a in np.linspace(0.0, 100.0, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_solve_multiplier_hits_target():
    e = symmetric_qubit_pair(1.0, math.pi / 4)
    start = initial_povm(e, 0.2)
    a, lam = solve_multiplier(e, start, 0.2)
    assert a > 0
    assert abs(predicted_inconclusive_rate(e, start, a) - 0.2) <= 1e-14
    assert np.allclose(lam, lam.conj().T)
    with pytest.raises(ValueError):
        solve_multiplier(e, start, 0.0)


def test_solve_multiplier_matches_certificate_after_convergence():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3)
    _, a_cert = multipliers_from_povm(e, r.povm)
    assert r.a == pytest.approx(a_cert, abs=1e-8)


def test_solve_multiplier_infeasible_reports_supremum():
    # a rank-one inconclusive element saturates the reachable rate strictly
    # below 1, so a target above that saturation must be reported infeasible
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    phi_max, _ = phi_max_and_prs_max(p)
    plateau_povm = analytic_povm(p, phi_max)
    saturation = (1 + 0.9 * math.cos(math.pi / 4)) / 2  # about 0.818
    with pytest.raises(InfeasibleTargetError) as err:
        solve_multiplier(e, plateau_povm, 0.95)
    assert err.value.target == pytest.approx(0.95)
    assert saturation - 1e-6 <= err.value.supremum < 0.95


def test_predicted_rate_slope_matches_finite_difference():
    e = random_ensemble(np.random.default_rng(33), 3, 3)
    povm = initial_povm(e, 0.3)
    for _ in range(3):
        povm, _, _ = iterate_once(e, povm, 0.3)
    terms = solver._sweep_terms(solver._ensemble_terms(e), povm)
    for a in (0.1, 0.7, 2.0, 10.0):
        h = 1e-6 * a
        ev = solver._predicted_rate(terms, a, 1e-12)
        up = solver._predicted_rate(terms, a + h, 1e-12).rate
        down = solver._predicted_rate(terms, a - h, 1e-12).rate
        assert ev.slope == pytest.approx((up - down) / (2 * h), rel=1e-7)


def test_warm_and_cold_search_agree():
    e = symmetric_qubit_pair(0.8, math.pi / 4)
    target = 0.25
    r = solve(e, target)
    # cold reference: the public sweep restarts the multiplier search from
    # [0, 1] every time
    povm, a = initial_povm(e, target), None
    for _ in range(r.iterations):
        povm, _, a = iterate_once(e, povm, target)
    assert r.a == pytest.approx(a, abs=1e-12)
    assert r.p_rs == pytest.approx(success_metrics(e, povm).p_rs, abs=1e-12)
    # and one search on the same sweep terms, warm and cold
    terms = solver._sweep_terms(solver._ensemble_terms(e), r.povm)
    cfg = SolverConfig()
    warm = solver._solve_multiplier(terms, target, cfg, start=0.9 * r.a)
    cold = solver._solve_multiplier(terms, target, cfg)
    assert warm.a == pytest.approx(cold.a, abs=1e-12)
    assert max(warm.residual, cold.residual) <= cfg.bisection_tolerance


def test_warm_search_infeasible_reports_supremum(monkeypatch):
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    plateau_povm = analytic_povm(p, phi_max_and_prs_max(p)[0])
    saturation = (1 + 0.9 * math.cos(math.pi / 4)) / 2
    cfg = SolverConfig()
    terms = solver._sweep_terms(solver._ensemble_terms(e), plateau_povm)
    start = solver._solve_multiplier(terms, 0.5, cfg).a
    with pytest.raises(InfeasibleTargetError) as warm:
        solver._solve_multiplier(terms, 0.95, cfg, start=start)
    with pytest.raises(InfeasibleTargetError) as cold:
        solve_multiplier(e, plateau_povm, 0.95)
    assert saturation - 1e-6 <= warm.value.supremum < 0.95
    assert warm.value.supremum == pytest.approx(cold.value.supremum, abs=1e-12)
    # a full-rank start reaches every rate below 1, so solve meets the cap
    # only from a rank-deficient inconclusive element
    monkeypatch.setattr(solver, "initial_povm", lambda e, t: plateau_povm)
    with pytest.raises(InfeasibleTargetError) as err:
        solve(e, 0.95)
    assert err.value.supremum == pytest.approx(cold.value.supremum, abs=1e-12)


def _dip_rate(a):
    # rises to about 0.56 near a = 2, dips to about 0.4 near a = 2.7, then
    # rises toward 1; the only root of 0.6 lies past the dip
    bump = 0.45 * math.exp(-(((a - 2.6) / 0.5) ** 2))
    return a * a / (a * a + 2.0) - bump, 4.0 * a / (a * a + 2.0) ** 2 + bump * 8.0 * (a - 2.6)


def _steep_rate(a):
    # monotone but nearly flat away from a = 3, so Newton steps overshoot
    # far outside the bracket
    x = 20.0 * (a - 3.0)
    return 0.5 + math.atan(x) / math.pi, 20.0 / (math.pi * (1.0 + x * x))


@pytest.mark.parametrize("shape, start, target, warns", [
    (_dip_rate, 1.5, 0.6, True),
    (_steep_rate, 1.0, 0.9, False),
    (_steep_rate, 9.0, 0.2, False),
])
def test_search_keeps_the_bracket(monkeypatch, caplog, shape, start, target, warns):
    evaluated = []

    def fake_rate(terms, a, cutoff):
        rate, slope = shape(a)
        evaluated.append((a, rate))
        return solver._RateEval(rate, slope, None)

    monkeypatch.setattr(solver, "_predicted_rate", fake_rate)
    cfg = SolverConfig()
    with caplog.at_level(logging.WARNING, logger="povmlab.solver"):
        fit = solver._solve_multiplier(None, target, cfg, start=start)
    assert any("not monotone" in rec.message for rec in caplog.records) == warns
    assert fit.residual <= cfg.bisection_tolerance
    assert fit.evaluations == len(evaluated)
    # every point after the first lies strictly inside the bracket the
    # earlier evaluations formed, and so does the result
    for k, (a, _) in enumerate(evaluated[1:], start=1):
        lo = max([b for b, rate in evaluated[:k] if rate < target], default=0.0)
        hi = min([b for b, rate in evaluated[:k] if rate > target], default=math.inf)
        assert lo < a < hi
    lo = max([b for b, rate in evaluated if rate < target], default=0.0)
    hi = min([b for b, rate in evaluated if rate > target], default=math.inf)
    assert lo <= fit.a <= hi


def test_warm_start_keeps_rate_evaluations_per_sweep_low():
    # about 2.7 per sweep; a search restarted cold every sweep makes 4 to
    # 5.6 here, and the former bracket-and-halve search about 45
    for eta in (0.7, 1.0):
        p = SymmetricQubitProblem(eta, math.pi / 4)
        e = p.ensemble()
        results = [solve(e, float(t)) for t in default_sweep_grid(p)[::4]]
        sweeps = sum(r.iterations for r in results)
        evaluations = sum(r.rate_evaluations for r in results)
        assert evaluations / sweeps <= 3.5


# ---------------------------------------------------------------------------
# single sweep

def test_iterate_once_fixed_point_of_analytic_povm():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    for phi in (math.pi / 2 + 0.1, 2.0, phi_max_and_prs_max(p)[0]):
        povm = analytic_povm(p, phi)
        target = np.trace(average_state(e) @ povm.inconclusive).real
        new, _, _ = iterate_once(e, povm, float(target))
        change = max(np.linalg.norm(n - o, "fro")
                     for n, o in zip(new.elements, povm.elements))
        assert change <= 1e-10


def test_iterate_once_invariants_random():
    rng = np.random.default_rng(32)
    for dim, n in ((2, 2), (3, 3)):
        e = random_ensemble(rng, dim, n)
        target = 0.25
        povm = initial_povm(e, target)
        for _ in range(30):
            povm, lam, a = iterate_once(e, povm, target)
            total = sum(povm.elements)
            assert np.linalg.norm(total - np.eye(dim), "fro") <= 1e-9 * dim
            for m in povm.elements:
                assert np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -1e-9
            p_i = np.trace(average_state(e) @ povm.inconclusive).real
            assert abs(p_i - target) <= 1e-10


def test_iterate_once_helstrom_branch_pins_inconclusive():
    e = orthogonal_pair()
    povm = initial_povm(e, 0.0)
    new, lam, a = iterate_once(e, povm, 0.0)
    assert a is None
    assert np.allclose(new.inconclusive, 0.0, atol=1e-12)


def test_orthogonal_pair_converges_to_projectors():
    e = orthogonal_pair()
    r = solve(e, 0.0)
    assert r.converged and r.iterations <= 50
    assert r.p_s == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(r.povm.elements[1], PROJ0, atol=1e-8)
    assert np.allclose(r.povm.elements[2], PROJ1, atol=1e-8)


# ---------------------------------------------------------------------------
# metrics

def test_success_metrics_perfect_discrimination():
    e = orthogonal_pair()
    povm = Povm((np.zeros((2, 2), dtype=complex), PROJ0, PROJ1))
    m = success_metrics(e, povm)
    assert (m.p_s, m.p_i, m.p_rs) == pytest.approx((1.0, 0.0, 1.0))


def test_success_metrics_all_inconclusive_is_undefined():
    e = orthogonal_pair()
    z = np.zeros((2, 2), dtype=complex)
    povm = Povm((np.eye(2, dtype=complex), z, z))
    with pytest.raises(RelativeRateUndefinedError):
        success_metrics(e, povm)


def test_success_metrics_mismatched_outcomes():
    e = orthogonal_pair()
    povm = Povm((np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)))
    with pytest.raises(ValueError):
        success_metrics(e, povm)


def test_projective_family_edge_matches_trace_norm_oracle():
    p = SymmetricQubitProblem(0.8, math.pi / 4)
    e = p.ensemble()
    m = success_metrics(e, analytic_povm(p, math.pi / 2))
    assert m.p_i == pytest.approx(0.0, abs=1e-14)
    assert m.p_rs == pytest.approx((1 + 0.8 * math.sin(math.pi / 4)) / 2, abs=1e-12)
    assert m.p_s == pytest.approx(helstrom_two_state(e), abs=1e-12)


# ---------------------------------------------------------------------------
# full solve

def test_solve_orthogonal_pair_perfect():
    r = solve(orthogonal_pair(), 0.0)
    assert r.p_s == pytest.approx(1.0, abs=1e-10)
    assert r.p_i == pytest.approx(0.0, abs=1e-14)


def test_solve_pure_pair_matches_trace_norm():
    e = symmetric_qubit_pair(1.0, math.pi / 4)
    r = solve(e, 0.0)
    assert r.p_s == pytest.approx((1 + math.sin(math.pi / 4)) / 2, abs=1e-10)
    assert r.p_s == pytest.approx(helstrom_two_state(e), abs=1e-10)


def test_solve_matches_analytic_curve():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    r = solve(p.ensemble(), 0.3)
    assert r.converged
    assert r.p_rs == pytest.approx(envelope_prs(p, 0.3), abs=1e-6)
    assert r.p_i == pytest.approx(0.3, abs=1e-10)
    assert 0.0 <= r.p_s <= 1.0 - r.p_i + 1e-12
    assert r.p_rs == pytest.approx(r.p_s / (1.0 - r.p_i), abs=1e-12)


def test_solve_constraint_tracking_along_history():
    p = SymmetricQubitProblem(0.7, math.pi / 4)
    e = p.ensemble()
    target = 0.2
    povm = initial_povm(e, target)
    for _ in range(40):
        povm, _, _ = iterate_once(e, povm, target)
        p_i = np.trace(average_state(e) @ povm.inconclusive).real
        assert abs(p_i - target) <= 1e-10


def test_solve_monotone_tradeoff_on_family():
    p = SymmetricQubitProblem(0.8, math.pi / 4)
    e = p.ensemble()
    values = [solve(e, t).p_rs for t in (0.0, 0.1, 0.2, 0.3, 0.4, 0.65, 0.8)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-6
    _, prs_max = phi_max_and_prs_max(p)
    assert values[-1] == pytest.approx(prs_max, abs=1e-6)
    assert values[-2] == pytest.approx(prs_max, abs=1e-6)


def test_solve_rejects_bad_targets_and_config():
    e = orthogonal_pair()
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            solve(e, bad)
    with pytest.raises(ValueError):
        solve(e, 1.0 - 1e-14)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(povm_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(bisection_tolerance=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(pinv_cutoff=0.0)


def test_solve_change_history_is_recorded():
    r = solve(symmetric_qubit_pair(0.9, math.pi / 4), 0.1)
    assert len(r.change_history) == r.iterations
    assert r.change_history[-1] == r.final_change
    assert r.final_change <= 1e-12


def test_solve_reports_rate_residual():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3)
    assert r.converged
    assert 0.0 <= r.rate_residual <= SolverConfig().bisection_tolerance
    assert r.rate_evaluations >= r.iterations
    r0 = solve(e, 0.0)
    assert r0.rate_residual == 0.0 and r0.rate_evaluations == 0


def test_solve_not_converged_while_rate_residual_is_high():
    # one rate evaluation per sweep pins the multiplier at its cold start,
    # a = 1: the POVM settles but at the wrong inconclusive rate
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    cfg = SolverConfig(bisection_max_steps=1)
    r = solve(e, 0.3, cfg)
    assert r.final_change <= cfg.povm_tolerance
    assert r.rate_residual > cfg.bisection_tolerance
    assert not r.converged


def test_solve_nonconvergence_is_flagged_not_raised():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3, SolverConfig(max_iterations=3))
    assert not r.converged
    assert r.iterations == 3
