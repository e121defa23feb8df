import copy
import logging
import math
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest

from closed_forms import (
    SymmetricQubitProblem,
    analytic_povm,
    envelope_prs,
    jaeger_shimony_onset,
    jaeger_shimony_povm,
    phi_max_and_prs_max,
    plateau_onset_pi,
    pure_pair,
    symmetric_pure_povm,
    symmetric_pure_ps,
    symmetric_pure_states,
)
from conftest import (
    helstrom_two_state,
    plain_iteration,
    random_ensemble,
    rate_terms,
    sweep_once,
)
from grids import digest, family_a, family_c, fig1, onset_window
from povmlab import bounds, certificate, cli, solver
from povmlab.bounds import max_relative_success
from povmlab.certificate import check
from povmlab.cli import default_sweep_grid
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair
from povmlab.hermitian import psd_root
from povmlab.solver import (
    InfeasibleTargetError,
    Povm,
    RelativeRateUndefinedError,
    SolveResult,
    initial_povm,
    povm_violations,
    solve,
    solve_grid,
    success_metrics,
)

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def orthogonal_pair() -> StateEnsemble:
    return StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.5]))


def _iterate(e: StateEnsemble, target: float,
             max_iterations: int = solver.MAX_ITERATIONS) -> SolveResult:
    """:func:`solve` on the iterative path, which a target at or above the
    plateau rate takes only here."""
    outcome, = solver._iterate_grid([(e, target)], max_iterations)
    if isinstance(outcome, InfeasibleTargetError):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Povm type and validation

def test_povm_structural_checks():
    with pytest.raises(ValueError):
        Povm((np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        Povm((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
    with pytest.raises(ValueError, match="share one shape"):
        Povm([np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 2])
    with pytest.raises(ValueError, match="square"):
        Povm(np.zeros((2, 3, 2), dtype=complex))
    # one stacked array is the same POVM as its elements in a tuple
    halves = (np.eye(2, dtype=complex) / 2, np.eye(2, dtype=complex) / 2)
    stacked = Povm(np.array(halves))
    assert stacked.elements.shape == (2, 2, 2)
    assert np.array_equal(stacked.elements, Povm(halves).elements)
    for bad in (math.nan, math.inf):
        entry = np.eye(2, dtype=complex)
        entry[0, 1] = bad
        with pytest.raises(ValueError, match="POVM entries must be finite"):
            Povm((0.5 * np.eye(2, dtype=complex), entry))


def test_unpickled_povm_is_read_only():
    povm = initial_povm(symmetric_qubit_pair(0.9, math.pi / 4), 0.2)
    copy = pickle.loads(pickle.dumps(povm))
    assert np.array_equal(copy.elements, povm.elements)
    assert not copy.elements.flags.writeable


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copied_povm_is_read_only(duplicate):
    # a copy goes through the constructor, like an unpickled one
    povm = initial_povm(symmetric_qubit_pair(0.9, math.pi / 4), 0.2)
    twin = duplicate(povm)
    assert np.array_equal(twin.elements, povm.elements)
    assert not twin.elements.flags.writeable
    # POVMs compare and hash by identity
    assert twin != povm and len({povm, twin, povm}) == 2


def test_povm_rejects_assignment():
    povm = initial_povm(symmetric_qubit_pair(0.9, math.pi / 4), 0.2)
    elements = povm.elements
    for name in ("elements", "dim", "label"):
        with pytest.raises(AttributeError):
            setattr(povm, name, np.eye(2))
    with pytest.raises(AttributeError):
        del povm.elements
    assert povm.elements is elements and not hasattr(povm, "label")


def test_povm_violations_reports():
    ok = Povm((0.5 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)))
    assert povm_violations(ok) == []
    neg = Povm((np.diag([1.5, 0.5]).astype(complex), np.diag([-0.5, 0.5]).astype(complex)))
    assert any("eigenvalue" in v.message for v in povm_violations(neg))
    open_sum = Povm((0.5 * np.eye(2, dtype=complex), 0.4 * np.eye(2, dtype=complex)))
    assert any("identity" in v.message for v in povm_violations(open_sum))


@pytest.mark.parametrize("asymmetry, flagged", [(5e-10, False), (1e-8, True)])
def test_povm_violations_hermiticity_tolerance(asymmetry, flagged):
    # max|A - A†| is twice the off-diagonal skew
    skew = np.array([[0.0, asymmetry / 2], [-asymmetry / 2, 0.0]], dtype=complex)
    povm = Povm((0.5 * np.eye(2) + skew, 0.5 * np.eye(2, dtype=complex)))
    report = povm_violations(povm)
    if not flagged:
        assert report == []
        return
    assert [v.message for v in report][0] == (
        f"element 0 is not Hermitian (asymmetry {asymmetry:.3e})")
    assert report[0].residual == pytest.approx(asymmetry) and report[0].index == 0
    # the non-Hermitian element is left out of the sum, which is then 0.5 I
    assert "sum to identity" in report[1].message and len(report) == 2
    assert report[1].residual == pytest.approx(math.sqrt(0.5))


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
        p_i = np.trace(e.average_state @ povm.inconclusive).real
        assert p_i == pytest.approx(target, abs=1e-14)
    with pytest.raises(ValueError):
        initial_povm(e, 1.0)


# ---------------------------------------------------------------------------
# multiplier operator and predicted rate

def test_multiplier_operator_ignores_a_without_inconclusive():
    e = orthogonal_pair()
    povm = Povm((np.zeros((2, 2), dtype=complex), PROJ0, PROJ1))
    terms = rate_terms(e, povm)
    lam0 = solver._predicted_rate(terms, [0.0]).root.root_matrix()[0]
    lam9 = solver._predicted_rate(terms, [9.0]).root.root_matrix()[0]
    assert np.allclose(lam0, lam9)
    # p_j^2 rho_j Pi_j rho_j = rho_j / 4 here, so the root is (rho_1+rho_2)/2
    assert np.allclose(lam0, (PROJ0 + PROJ1) / 2)


def test_predicted_rate_zero_cases():
    e = orthogonal_pair()
    start = rate_terms(e, initial_povm(e, 0.3))
    assert solver._predicted_rate(start, [0.0]).rate[0] == pytest.approx(0.0)
    no_inc = rate_terms(e, Povm((np.zeros((2, 2), dtype=complex), PROJ0, PROJ1)))
    for a in (0.5, 3.0, 100.0):
        assert solver._predicted_rate(no_inc, [a]).rate[0] == pytest.approx(0.0)


def test_predicted_rate_monotone_in_multiplier():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    terms = rate_terms(e, initial_povm(e, 0.3))
    values = [solver._predicted_rate(terms, [a]).rate[0]
              for a in np.linspace(0.0, 100.0, 200)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_solve_multiplier_hits_target():
    e = symmetric_qubit_pair(1.0, math.pi / 4)
    terms = rate_terms(e, initial_povm(e, 0.2))
    (fit,), root = solver._solve_multiplier(terms, [0.2], [None])
    assert fit.a > 0
    assert abs(solver._predicted_rate(terms, [fit.a]).rate[0] - 0.2) <= 1e-14
    lam, = root.root_matrix()
    assert np.allclose(lam, lam.conj().T)


def test_solve_multiplier_matches_certificate_after_convergence():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3)
    assert r.a == pytest.approx(check(e, r.povm).a, abs=1e-8)


def test_solve_multiplier_infeasible_reports_supremum():
    # a rank-one inconclusive element saturates the reachable rate strictly
    # below 1, so a target above that saturation must be reported infeasible
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    phi_max, _ = phi_max_and_prs_max(p)
    plateau_povm = analytic_povm(p, phi_max)
    saturation = (1 + 0.9 * math.cos(math.pi / 4)) / 2  # about 0.818
    (fit,), _ = solver._solve_multiplier(rate_terms(e, plateau_povm), [0.95], [None])
    assert isinstance(fit.error, InfeasibleTargetError)
    assert fit.error.target == pytest.approx(0.95)
    assert saturation - 1e-6 <= fit.error.supremum < 0.95


def test_search_root_rows_are_the_roots_at_the_reported_multipliers():
    # one stack whose points stop in different rounds: a zero target (no
    # search), two feasible targets from cold and far warm starts, and an
    # infeasible one that doubles to the cap; each row of the returned
    # root is psd_root of lam^2 at that point's reported a, bit for bit
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    plateau_povm = analytic_povm(p, phi_max_and_prs_max(p)[0])
    other = random_ensemble(np.random.default_rng(5), 2, 2)
    stacked = [rate_terms(e, initial_povm(e, 0.3)), rate_terms(e, initial_povm(e, 0.3)),
               rate_terms(other, initial_povm(other, 0.1)), rate_terms(e, plateau_povm)]
    terms = solver._RateTerms(*(np.concatenate(fields) for fields in zip(*stacked)))
    fits, root = solver._solve_multiplier(terms, [0.0, 0.3, 0.6, 0.95],
                                          [None, None, 50.0, None])
    assert fits[0].a == 0.0 and fits[0].evaluations == 0
    assert isinstance(fits[3].error, InfeasibleTargetError)
    assert len({fit.evaluations for fit in fits}) == 4
    assert max(fits[1].residual, fits[2].residual) <= solver.RATE_TOLERANCE
    for k, fit in enumerate(fits):
        expected = psd_root((terms.conclusive_sum[k]
                             + (fit.a * fit.a) * terms.pair[k, 1])[None])
        for field, want in zip(root, expected):
            assert field[k].tobytes() == want[0].tobytes()


def test_predicted_rate_slope_matches_finite_difference():
    e = random_ensemble(np.random.default_rng(33), 3, 3)
    povm = initial_povm(e, 0.3)
    for _ in range(3):
        povm, _ = sweep_once(e, povm, 0.3)
    terms = rate_terms(e, povm)
    for a in (0.1, 0.7, 2.0, 10.0):
        h = 1e-6 * a
        # the point's terms stacked three times, one multiplier each
        ev = solver._predicted_rate(terms.take([0, 0, 0]), [a, a + h, a - h])
        slope, (_, up, down) = ev.slope[0], ev.rate
        assert slope == pytest.approx((up - down) / (2 * h), rel=1e-7)


def test_warm_and_cold_search_agree():
    e = symmetric_qubit_pair(0.8, math.pi / 4)
    target = 0.25
    r = solve(e, target)
    # cold reference: plain_iteration restarts the multiplier search from
    # a = 1 every sweep; it runs unaccelerated to the solver's own tolerance
    povm, a, _ = plain_iteration(e, target)
    assert r.a == pytest.approx(a, abs=1e-12)
    assert r.p_rs == pytest.approx(success_metrics(e, povm).p_rs, abs=1e-12)
    # and one search on the same sweep terms, warm and cold, in lockstep
    terms = rate_terms(e, r.povm)
    (warm, cold), _ = solver._solve_multiplier(
        terms.take([0, 0]), [target, target], [0.9 * r.a, None])
    assert warm.a == pytest.approx(cold.a, abs=1e-12)
    assert max(warm.residual, cold.residual) <= solver.RATE_TOLERANCE


def test_warm_search_infeasible_reports_supremum(monkeypatch):
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    plateau_povm = analytic_povm(p, phi_max_and_prs_max(p)[0])
    saturation = (1 + 0.9 * math.cos(math.pi / 4)) / 2
    terms = rate_terms(e, plateau_povm)
    start = solver._solve_multiplier(terms, [0.5], [None])[0][0].a
    (warm,), _ = solver._solve_multiplier(terms, [0.95], [start])
    assert isinstance(warm.error, InfeasibleTargetError)
    (cold,), _ = solver._solve_multiplier(terms, [0.95], [None])
    assert isinstance(cold.error, InfeasibleTargetError)
    assert saturation - 1e-6 <= warm.error.supremum < 0.95
    assert warm.error.supremum == pytest.approx(cold.error.supremum, abs=1e-12)
    # a full-rank start reaches every rate below 1, so solve meets the cap
    # only from a rank-deficient inconclusive element
    monkeypatch.setattr(solver, "initial_povm", lambda e, t: plateau_povm)
    with pytest.raises(InfeasibleTargetError) as err:
        _iterate(e, 0.95)
    assert err.value.supremum == pytest.approx(cold.error.supremum, abs=1e-12)


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

    def fake_rate(terms, a):
        rate, slope = shape(a[0])
        evaluated.append((a[0], rate))
        return solver._RateEval([rate], [slope], psd_root(np.eye(2)[None]))

    monkeypatch.setattr(solver, "_predicted_rate", fake_rate)
    with caplog.at_level(logging.WARNING, logger="povmlab.solver"):
        (fit,), _ = solver._solve_multiplier(None, [target], [start])
    assert any("not monotone" in rec.message for rec in caplog.records) == warns
    assert fit.residual <= solver.RATE_TOLERANCE
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


def test_search_stops_at_an_exhausted_bracket(monkeypatch, caplog):
    # a rate that jumps over the target at a = 3: bisection narrows the
    # bracket to adjacent floats below 3 and stops there, not at the cap
    evaluated = []

    def fake_rate(terms, a):
        rate = 0.2 if a[0] < 3.0 else 0.8
        evaluated.append(a[0])
        return solver._RateEval([rate], [0.0], psd_root(np.eye(2)[None]))

    monkeypatch.setattr(solver, "_predicted_rate", fake_rate)
    with caplog.at_level(logging.DEBUG, logger="povmlab.solver"):
        (fit,), _ = solver._solve_multiplier(None, [0.5], [1.0])
    assert fit.evaluations == len(evaluated) == 55 < solver.RATE_MAX_EVALUATIONS // 2
    assert fit.residual == pytest.approx(0.3) and fit.error is None
    assert evaluated[-1] == np.nextafter(evaluated[-2], 3.0) and evaluated[-1] < 3.0
    assert [rec.message for rec in caplog.records if "stopped at residual" in rec.message] == [
        f"multiplier search stopped at residual {fit.residual:.3e} "
        f"(tolerance {solver.RATE_TOLERANCE:.3e})"]


def test_search_keeps_its_best_trial_not_its_last(monkeypatch, caplog):
    # rate 0.45 below a = 3 and 0.9 from it, target 0.5 from start 1: no
    # later trial beats the first one's residual 0.05, so the search ends
    # at a = 1 with that trial's root, not at the last trial just below 3
    evaluated = []

    def fake_rate(terms, a):
        evaluated.append(a[0])
        rate = 0.45 if a[0] < 3.0 else 0.9
        return solver._RateEval([rate], [0.0], psd_root((a[0] * a[0]) * np.eye(2)[None]))

    monkeypatch.setattr(solver, "_predicted_rate", fake_rate)
    with caplog.at_level(logging.DEBUG, logger="povmlab.solver"):
        (fit,), root = solver._solve_multiplier(None, [0.5], [1.0])
    assert fit.a == 1.0 and fit.residual == pytest.approx(0.05) and fit.error is None
    assert fit.evaluations == len(evaluated) == 55
    assert evaluated[-1] == 2.9999999999999996
    for field, want in zip(root, psd_root(np.eye(2)[None])):
        assert field.tobytes() == want.tobytes()
    assert [rec.message for rec in caplog.records if "stopped at residual" in rec.message] == [
        "multiplier search stopped at residual 5.000e-02 "
        f"(tolerance {solver.RATE_TOLERANCE:.3e})"]


def test_warm_start_keeps_rate_evaluations_per_sweep_low():
    # 2.7 and 3.1 per sweep from the uninformative start, where the points
    # take 2 to 31 sweeps; from the plateau start the eta = 1 points take
    # 2 each, the first with a cold search, which says little about the
    # warm one. A search restarted cold every sweep makes 4.8 and 5.1
    # here, and the former bracket-and-halve search about 45
    for eta in (0.7, 1.0):
        p = SymmetricQubitProblem(eta, math.pi / 4)
        e = p.ensemble()
        onset = plateau_onset_pi(p)
        results = [_iterate(e, float(t)) for t in default_sweep_grid(onset)[::4] if t < onset]
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
        target = np.trace(e.average_state @ povm.inconclusive).real
        new, _ = sweep_once(e, povm, float(target))
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
            povm, _ = sweep_once(e, povm, target)
            total = sum(povm.elements)
            assert np.linalg.norm(total - np.eye(dim), "fro") <= 1e-9 * dim
            for m in povm.elements:
                assert np.linalg.eigvalsh((m + m.conj().T) / 2)[0] >= -1e-9
            p_i = np.trace(e.average_state @ povm.inconclusive).real
            assert abs(p_i - target) <= 1e-10


def test_iterate_once_helstrom_branch_pins_inconclusive():
    e = orthogonal_pair()
    povm = initial_povm(e, 0.0)
    new, fit = sweep_once(e, povm, 0.0)
    # at zero target the search takes lam^2 at a = 0 without an evaluation
    assert (fit.a, fit.evaluations) == (0.0, 0)
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
        povm, _ = sweep_once(e, povm, target)
        p_i = np.trace(e.average_state @ povm.inconclusive).real
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
    with pytest.raises(ValueError, match="max_iterations must be positive"):
        solve(e, 0.2, max_iterations=0)
    with pytest.raises(ValueError, match="max_iterations must be positive"):
        solve_grid([(e, 0.2)], max_iterations=0)


def test_solve_raises_the_infeasible_target_its_grid_returns(monkeypatch):
    error = InfeasibleTargetError(target=0.9, supremum=0.75)
    monkeypatch.setattr(solver, "solve_grid", lambda points, *, max_iterations: [error])
    with pytest.raises(InfeasibleTargetError) as exc_info:
        solve(symmetric_qubit_pair(0.9, math.pi / 4), 0.9)
    assert exc_info.value is error


def test_solve_change_history_is_recorded():
    r = solve(symmetric_qubit_pair(0.9, math.pi / 4), 0.1)
    assert len(r.change_history) == r.iterations
    assert r.change_history[-1] == r.final_change
    assert r.final_change <= 1e-12


def test_solve_reports_rate_residual():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3)
    assert r.converged
    assert 0.0 <= r.rate_residual <= solver.RATE_TOLERANCE
    assert r.rate_evaluations >= r.iterations
    r0 = solve(e, 0.0)
    assert r0.rate_residual == 0.0 and r0.rate_evaluations == 0


def test_solve_not_converged_while_rate_residual_is_high(monkeypatch):
    # one rate evaluation per sweep pins the multiplier at its cold start,
    # a = 1: the POVM settles but at the wrong inconclusive rate
    monkeypatch.setattr(solver, "RATE_MAX_EVALUATIONS", 1)
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3)
    assert r.final_change <= solver.POVM_TOLERANCE
    assert r.rate_residual > solver.RATE_TOLERANCE
    assert not r.converged


def test_solve_with_every_extrapolation_rejected_is_the_plain_map(monkeypatch):
    # no extrapolation step passes an infinite positivity floor at any
    # beta, so every sweep starts from the previous sweep's output, as in
    # the plain map
    rng = np.random.default_rng(41)
    cases = [(symmetric_qubit_pair(0.9, math.pi / 4), t) for t in (0.0, 0.3, 0.75)]
    cases += [(random_ensemble(rng, 3, 3), 0.1), (random_ensemble(rng, 2, 3), 0.0)]
    accelerated = [_iterate(e, t).iterations for e, t in cases]
    monkeypatch.setattr(solver, "POVM_PSD_FLOOR", math.inf)
    for (e, target), fast in zip(cases, accelerated):
        r = _iterate(e, target)
        povm, _, history = plain_iteration(e, target)
        assert r.converged
        assert r.iterations == len(history)
        assert r.p_rs == pytest.approx(success_metrics(e, povm).p_rs, abs=1e-12)
        assert fast <= len(history)


def test_infeasible_sweep_from_an_extrapolation_falls_back(monkeypatch):
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    reference = solve(e, 0.3)
    sweep = solver._sweep
    inputs, outputs, raised = [], [], []

    def flaky_sweep(fixed, x, targets, starts):
        inputs.append(x[0].copy())
        new, fits = sweep(fixed, x, targets, starts)
        if outputs and not np.array_equal(x[0], outputs[-1]) and not raised:
            # x is an extrapolation: fail once, noting the next call's
            # index and the last sweep's output
            raised.append((len(inputs), outputs[-1]))
            fits[0].error = InfeasibleTargetError(target=targets[0], supremum=0.0)
            return new, fits
        outputs.append(new[0].copy())
        return new, fits

    monkeypatch.setattr(solver, "_sweep", flaky_sweep)
    r = solve(e, 0.3)
    assert raised, "no sweep started from an extrapolation"
    after, last_output = raised[0]
    assert np.array_equal(inputs[after], last_output)
    assert r.converged and r.iterations == len(outputs)
    assert r.p_rs == pytest.approx(reference.p_rs, abs=1e-12)
    assert abs(r.p_i - 0.3) <= 1e-12


def test_solve_nonconvergence_is_flagged_not_raised():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3, max_iterations=3)
    assert not r.converged
    assert r.iterations == 3


# ---------------------------------------------------------------------------
# lockstep grid

def test_result_records_survive_pickling_and_replace():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.3)
    twin = pickle.loads(pickle.dumps(r))
    assert type(twin) is SolveResult and type(twin.certificate) is type(r.certificate)
    assert digest(twin) == digest(r) and not twin.povm.elements.flags.writeable
    changed = r._replace(converged=False)
    assert type(changed) is SolveResult and not changed.converged
    assert digest(changed._replace(converged=True)) == digest(r)
    metrics = success_metrics(e, r.povm)
    assert pickle.loads(pickle.dumps(metrics)) == metrics == (r.p_s, r.p_i, r.p_rs)


def test_digest_sees_every_bit_of_a_grid():
    # the digest is the oracle for bit-identical results: one flipped last
    # bit, a toggled flag, two swapped outcomes or an error in place of a
    # result change it, and a pickled copy keeps it
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r, other = solve_grid([(e, 0.3), (e, 0.6)])
    p_s = float((np.array([r.p_s]).view(np.uint64) ^ 1).view(np.float64)[0])
    elements = r.povm.elements.copy()
    elements.view(np.uint64)[0, 0, 0] ^= 1
    for changed in (r._replace(p_s=p_s), r._replace(povm=Povm(elements)),
                    r._replace(converged=not r.converged)):
        assert digest(changed) != digest(r)
    assert digest(other, r) != digest(r, other)
    assert digest(r, InfeasibleTargetError(target=0.6, supremum=0.5)) != digest(r, other)
    assert digest(pickle.loads(pickle.dumps(r))) == digest(r)


@pytest.mark.parametrize("dim, n_states", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_solve_grid_matches_one_point_solves(dim, n_states):
    rng = np.random.default_rng(90 + 10 * dim + n_states)
    points = [(random_ensemble(rng, dim, n_states), t)
              for _ in range(2) for t in (0.0, 0.2, 0.5, 0.9)]
    for (e, target), r in zip(points, solve_grid(points, max_iterations=3000)):
        assert digest(r) == digest(solve(e, target, max_iterations=3000))


def test_solve_grid_is_independent_of_stack_composition():
    points = []
    for eta in (0.7, 0.8, 0.9, 1.0):
        p = SymmetricQubitProblem(eta, math.pi / 4)
        points += [(p.ensemble(), float(t)) for t in default_sweep_grid(plateau_onset_pi(p))]
    whole = [digest(r) for r in solve_grid(points)]
    halves = [None] * len(points)
    for i in (0, 1):
        halves[i::2] = [digest(r) for r in solve_grid(points[i::2])]
    single = [digest(solve(e, t)) for e, t in points]
    assert whole == halves
    assert whole == single


@pytest.mark.parametrize("dim, n_states", [(2, 2), (3, 2), (3, 3)])
def test_grid_metrics_are_the_success_metrics_of_each_povm(dim, n_states):
    # a point's (p_s, p_i, p_rs) do not depend on the ensembles stacked with
    # it: closed-form and iterated rows of a grid that mixes ensembles whose
    # states are Hermitian only to round-off (and the symmetric pair)
    rng = np.random.default_rng(61 + 10 * dim + n_states)
    ensembles = [random_ensemble(rng, dim, n_states) for _ in range(3)]
    if (dim, n_states) == (2, 2):
        ensembles.append(symmetric_qubit_pair(0.9, math.pi / 4))
    points = [(e, t) for e in ensembles for t in (0.0, 0.3, 0.6, 0.9)]
    results = solve_grid(points)
    assert {r.iterations == 0 for r in results} == {True, False}
    for (e, _), r in zip(points, results):
        metrics = success_metrics(e, r.povm)
        assert [x.hex() for x in (r.p_s, r.p_i, r.p_rs)] == [x.hex() for x in metrics]


def test_solve_grid_isolates_failing_points(monkeypatch):
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    plateau_povm = analytic_povm(p, phi_max_and_prs_max(p)[0])
    default_start = solver.initial_povm
    # the 0.95 point starts from a rank-one inconclusive element, so a sweep
    # from a plain iterate finds it infeasible; the onset point runs into
    # the cap
    monkeypatch.setattr(solver, "initial_povm",
                        lambda e, t: plateau_povm if t == 0.95 else default_start(e, t))
    targets = [0.0, 0.3, 0.95, plateau_onset_pi(p), 0.8]
    grid = solver._iterate_grid([(e, t) for t in targets], 150)
    assert isinstance(grid[2], InfeasibleTargetError)
    assert not grid[3].converged and grid[3].iterations == 150
    for k in (0, 1, 4):
        assert grid[k].converged
        assert digest(grid[k]) == digest(_iterate(e, targets[k], 150))
    rows = [cli._sweep_row(t, r) for t, r in zip(targets, grid)]
    assert [row[6] for row in rows] == ["ok", "ok", "infeasible", "maxiter", "ok"]


def test_solve_grid_rejects_mixed_shapes():
    rng = np.random.default_rng(44)
    with pytest.raises(ValueError, match="share"):
        solve_grid([(random_ensemble(rng, 2, 2), 0.1), (random_ensemble(rng, 3, 2), 0.1)])
    assert solve_grid([]) == []


@pytest.mark.parametrize("eta, theta, target, restarts", [
    (0.9, math.pi / 4, 0.3, 0),
    # settles uncertified at sweep 22, restarts and runs into the cap
    (0.7, 1e-5, 0.051666666663749999, 1),
], ids=["certified", "restarted"])
def test_sweeps_are_logged_only_at_debug_level(monkeypatch, caplog, eta, theta, target,
                                               restarts):
    sweeps = []
    log_sweep = solver._log_sweep
    monkeypatch.setattr(solver, "_log_sweep",
                        lambda run, verdict: sweeps.append(len(run.history))
                        or log_sweep(run, verdict))
    e = symmetric_qubit_pair(eta, theta)
    with caplog.at_level(logging.INFO, logger="povmlab.solver"):
        solve(e, target)
    assert sweeps == []
    with caplog.at_level(logging.DEBUG, logger="povmlab.solver"):
        r = solve(e, target)
    # one line per sweep, in order, across the restart, and the restart's
    # own line does not read as a sweep's
    assert sweeps == list(range(1, r.iterations + 1))
    messages = [rec.message for rec in caplog.records]
    assert sum(re.match(r"sweep \d+ at target \S+: ", m) is not None
               for m in messages) == r.iterations
    assert sum("not certified optimal" in m for m in messages) == restarts
    assert r.converged == (not restarts)


# ---------------------------------------------------------------------------
# stacked Anderson least squares

def _history(rng: np.random.Generator, m: int, depth: int, kind: str) -> solver._Anderson:
    """An Anderson history of ``depth`` random differences of length ``m``.
    Its residual differences are rank deficient (``kind`` "deficient": a
    zero column and a repeated one), ill-conditioned ("ill": columns 1e-10
    apart), near gelsd's rank cutoff ("cutoff": columns 1e-14 apart) or
    none of these ("random")."""
    mixer = solver._Anderson()
    df = list(rng.standard_normal((depth, m)))
    if kind == "deficient":
        df[0] = np.zeros(m)
        if depth > 2:
            df[-1] = df[1].copy()
    elif kind in ("ill", "cutoff"):
        spacing = 1e-10 if kind == "ill" else 1e-14
        df[1:] = [df[0] + spacing * rng.standard_normal(m) for _ in df[1:]]
    mixer.df, mixer.dg = df, list(rng.standard_normal((depth, m)))
    return mixer


@pytest.mark.parametrize("m", [8, 24, 72, 512])
def test_stacked_least_squares_is_each_points_lstsq_bit_for_bit(m):
    rng = np.random.default_rng(m)
    mixers = [_history(rng, m, depth, kind)
              for depth in range(1, solver.ANDERSON_DEPTH + 1)
              for kind in ("random", "deficient", "ill", "cutoff") for _ in range(2)]
    mixers = [mixers[k] for k in rng.permutation(len(mixers))]   # depths interleaved
    f, g = rng.standard_normal((2, len(mixers), m))
    guesses = solver._extrapolate(mixers, f, g)
    for depth in range(1, solver.ANDERSON_DEPTH + 1):
        rows = [k for k, mixer in enumerate(mixers) if len(mixer.df) == depth]
        stacked = solver._lstsq(np.array([mixers[k].df for k in rows]).swapaxes(-1, -2),
                                f[rows, :, None])
        for k, gamma in zip(rows, stacked[..., 0]):
            expected = np.linalg.lstsq(np.array(mixers[k].df).T, f[k], rcond=None)[0]
            assert gamma.tobytes() == expected.tobytes()
            guess = g[k] - expected @ np.array(mixers[k].dg)
            assert guesses[k].tobytes() == guess.tobytes()


def test_stacked_least_squares_raises_numpys_error_on_a_nan_column():
    rng = np.random.default_rng(7)
    mixers = [_history(rng, 24, 3, "random") for _ in range(3)]
    mixers[1].df[2] = np.full(24, np.nan)
    f, g = rng.standard_normal((2, 3, 24))
    with pytest.raises(np.linalg.LinAlgError) as per_point:
        np.linalg.lstsq(np.array(mixers[1].df).T, f[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as stacked:
        solver._extrapolate(mixers, f, g)
    assert str(stacked.value) == str(per_point.value) == (
        "SVD did not converge in Linear Least Squares")


# ---------------------------------------------------------------------------
# backtracking and the certified exit

def _draw(seed: int, k: int) -> tuple[StateEnsemble, float]:
    """The k-th (ensemble, target) draw of a random-instance loop."""
    rng = np.random.default_rng(seed)
    for _ in range(k + 1):
        dim, n_states = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        e = random_ensemble(rng, dim, n_states)
        target = float(rng.uniform(0, 0.9))
    return e, target


def test_backtrack_takes_the_largest_step_that_stays_inside():
    half = np.eye(2, dtype=complex) / 2
    eye = np.eye(2, dtype=complex)
    plain = np.array([(half, half), (half, half), (PROJ0, PROJ1), (0.7 * eye, 0.3 * eye)])
    # each step keeps the elements' sum; the first needs 0.5 - 2 beta >= 0,
    # the second and the fourth stay inside at beta = 1, and the third
    # takes the singular element below the floor at every beta
    shift = np.diag([2.0, 0.0]).astype(complex)
    guesses = np.array([(half - shift, half + shift), (half - shift / 10, half + shift / 10),
                        (PROJ0 - PROJ1, 2 * PROJ1), (0.1 * eye, 0.9 * eye)])
    found = solver._step(plain, guesses)
    assert found[2] is None
    assert [found[k][0] for k in (0, 1, 3)] == [0.25, 1.0, 1.0]
    assert np.array_equal(found[0][1], plain[0] + 0.25 * (guesses[0] - plain[0]))
    # the full step is the guess itself, bit for bit, where plain +
    # (guess - plain) rounds away from it
    assert not np.array_equal(plain[3] + (guesses[3] - plain[3]), guesses[3])
    for k in (1, 3):
        assert np.array_equal(found[k][1], guesses[k])


def test_solve_converges_at_the_plateau_onset(monkeypatch, caplog):
    # the full steps keep leaving the PSD cone there; the backtracked ones
    # keep completeness and the rate, and the point converges within the
    # default cap, certified
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    target = 0.9 * math.cos(math.pi / 4)
    sigma = e.average_state
    sweep = solver._sweep
    inputs = []

    def recording_sweep(fixed, x, targets, starts):
        inputs.append(x[0].copy())
        return sweep(fixed, x, targets, starts)

    monkeypatch.setattr(solver, "_sweep", recording_sweep)
    with caplog.at_level(logging.DEBUG, logger="povmlab.solver"):
        r = _iterate(e, target)
    assert any("backtracked with beta" in rec.message for rec in caplog.records)
    for x in inputs:
        assert np.abs(x.sum(axis=0) - np.eye(2)).max() <= 1e-12
        assert abs(np.trace(sigma @ x[0]).real - target) <= 1e-12
    assert r.converged
    assert check(e, r.povm).optimal


@pytest.mark.parametrize("seed, k", [(9, 15), (2, 80)])
def test_trapped_backtracking_restarts_on_the_plain_map(caplog, seed, k):
    # backtracking alone stops at a stationary POVM whose multipliers are
    # not dual feasible; the exit check catches it and restarts the point
    e, target = _draw(seed, k)
    with caplog.at_level(logging.DEBUG, logger="povmlab.solver"):
        r = _iterate(e, target, 5000)
    restarts = [rec for rec in caplog.records if "restarting" in rec.message]
    assert len(restarts) == 1
    assert r.converged
    assert check(e, r.povm).optimal


def test_a_settled_point_that_is_not_certified_restarts(monkeypatch, caplog):
    # the certificate is the exit check: a point whose first settle is
    # reported not optimal restarts from the uninformative start and then
    # stops converged, with the certificate of its final POVM
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    reference = solve(e, 0.3)
    check_grid = certificate.check_grid
    calls = []

    def first_settle_not_optimal(pairs):
        outcomes = check_grid(pairs)
        calls.append(len(pairs))
        if len(calls) == 1:
            outcomes[0] = outcomes[0]._replace(optimal=False)
        return outcomes

    monkeypatch.setattr(certificate, "check_grid", first_settle_not_optimal)
    with caplog.at_level(logging.DEBUG, logger="povmlab.solver"):
        r = solve(e, 0.3)
    restarts = [rec.message for rec in caplog.records if "restarting" in rec.message]
    assert len(restarts) == 1
    assert f"after {reference.iterations} sweeps" in restarts[0]
    assert "not certified optimal" in restarts[0]
    assert calls == [1, 1]
    assert r.converged and r.iterations > reference.iterations
    assert r.certificate.optimal
    assert r.p_rs == pytest.approx(reference.p_rs, abs=1e-12)


def test_onset_window_converges_with_few_eigvalsh_calls(monkeypatch):
    points = onset_window()
    e = points[0][0]
    e.require_valid()
    counts = {"eigvalsh": 0, "sweeps": 0}
    eigvalsh, sweep = np.linalg.eigvalsh, solver._sweep

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_sweep(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(solver, "_sweep", counting_sweep)
    results = solve_grid(points, max_iterations=1000)
    monkeypatch.undo()
    # one positivity call per lockstep sweep (every beta of every point's
    # step), and one certificate per sweep in which points settle or stop
    # and for the closed-form stack
    settling = len({r.iterations for r in results})
    assert counts["eigvalsh"] <= counts["sweeps"] + settling
    assert all(r.converged and check(e, r.povm).optimal for r in results)
    # the onset and the 16 points above it are answered without sweeps
    assert [r.iterations == 0 for r in results] == [k >= 16 for k in range(33)]
    assert sum(r.iterations for r in results) <= 140
    assert max(r.iterations for r in results) <= 10


def test_onset_window_solves_its_least_squares_once_per_depth_and_sweep(monkeypatch):
    points = onset_window()
    reference = digest(*solve_grid(points, max_iterations=1000))
    calls: list[int] = []    # gelsd gufunc calls, one entry per lockstep sweep
    gufunc, sweep = solver._umath_linalg.lstsq, solver._sweep

    def refuse_lstsq(*args, **kwargs):
        raise AssertionError("a point solved its own least squares")

    def counting_gufunc(*args, **kwargs):
        calls[-1] += 1
        return gufunc(*args, **kwargs)

    def counting_sweep(*args):
        calls.append(0)
        return sweep(*args)

    monkeypatch.setattr(np.linalg, "lstsq", refuse_lstsq)
    monkeypatch.setattr(solver, "_umath_linalg", SimpleNamespace(lstsq=counting_gufunc))
    monkeypatch.setattr(solver, "_sweep", counting_sweep)
    results = solve_grid(points, max_iterations=1000)
    monkeypatch.undo()
    assert digest(*results) == reference
    assert sum(calls) > 0
    assert max(calls) <= solver.ANDERSON_DEPTH


# ---------------------------------------------------------------------------
# plateau targets in closed form

UNTIED = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]


@pytest.mark.parametrize("k", range(len(UNTIED)))
def test_plateau_rate_is_the_onset_of_an_untied_ensemble(k):
    dim, n_states = UNTIED[k]
    e = random_ensemble(np.random.default_rng(300 + k), dim, n_states)
    b = max_relative_success(e)
    assert sorted(b.per_state_a)[-2] < b.prs_max - 1e-3
    onset = e.plateau_measurement.rate
    r = solve(e, onset)
    assert (r.iterations, r.final_change, r.rate_evaluations) == (0, 0.0, 0)
    assert r.converged and check(e, r.povm).optimal
    # the iteration reaches the ceiling just above that rate and not below it
    above, below = solver._iterate_grid([(e, onset + 0.05), (e, onset - 0.005)], 1000)
    assert above.converged and abs(above.p_rs - b.prs_max) <= 1e-12
    assert below.converged and below.p_rs < b.prs_max - 1e-6


def test_closed_form_results_close_and_meet_the_rate():
    grids = []
    for eta in (0.7, 0.8, 0.9, 1.0):
        p = SymmetricQubitProblem(eta, math.pi / 4)
        grids.append([(p.ensemble(), float(t)) for t in default_sweep_grid(plateau_onset_pi(p))])
    for k, (dim, n_states) in enumerate(UNTIED):
        e = random_ensemble(np.random.default_rng(300 + k), dim, n_states)
        onset = e.plateau_measurement.rate
        grids.append([(e, t) for t in np.linspace(onset, 0.99, 5).tolist()])
    closed = [(e, t, r) for points in grids
              for (e, t), r in zip(points, solve_grid(points)) if r.iterations == 0]
    assert len(closed) == 52 + 5 * len(UNTIED)
    for e, target, r in closed:
        assert np.abs(r.povm.elements.sum(axis=0) - np.eye(e.dim)).max() <= 1e-14
        assert povm_violations(r.povm) == []
        assert abs(np.trace(e.average_state @ r.povm.inconclusive).real - target) <= 1e-14
        assert r.rate_residual <= 1e-14 and r.converged


def test_cold_iteration_never_reads_the_plateau_measurement(monkeypatch):
    # the start is decided in the run: without warm, a target past the
    # onset is iterated from the uninformative start, and nothing asks for
    # the plateau measurement
    def no_plateau(e):
        raise AssertionError("plateau measurement read on the cold path")

    monkeypatch.setattr(bounds, "_measure_plateau", no_plateau)
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r, = solver._iterate_grid([(e, 0.8)], 500)
    assert r.converged and r.iterations > 0


def test_a_grid_of_closed_form_points_makes_no_sweep(monkeypatch):
    # every point at or above its onset: the grid is answered in closed
    # form with no run left to sweep, each point bit for bit its own solve
    points = []
    for eta in (0.8, 0.9):
        e = symmetric_qubit_pair(eta, math.pi / 4)
        points += [(e, e.plateau_measurement.rate), (e, 0.83)]
    expected = [digest(solve(e, t)) for e, t in points]

    def no_sweep(*args):
        raise AssertionError("a closed-form point was swept")

    monkeypatch.setattr(solver, "_sweep", no_sweep)
    results = solve_grid(points)
    assert [r.iterations for r in results] == [0] * 4
    assert [digest(r) for r in results] == expected


def test_plateau_targets_are_iterated_without_a_kernel(caplog):
    # the states are 1e-8 apart in angle, and their limiting operator shows no
    # kernel, so no target is answered in closed form, not even those past
    # the onset eta cos(theta) = 0.3
    e = symmetric_qubit_pair(0.3, 1e-8)
    with caplog.at_level(logging.WARNING):
        results = solve_grid([(e, t) for t in (0.1, 0.5, 0.9)], max_iterations=20)
    assert [r.iterations > 0 for r in results] == [True] * 3
    # one plateau measurement for the grid's one ensemble, so one warning
    assert [rec.name for rec in caplog.records].count("povmlab.bounds") == 1


def test_plateau_measurement_is_computed_once_per_ensemble(monkeypatch, caplog):
    # two grids and a direct call on one ensemble share its one analysis,
    # and with it the one no-kernel warning
    calls = []
    real = bounds.max_relative_success
    monkeypatch.setattr(bounds, "max_relative_success", lambda e: calls.append(e) or real(e))
    e = symmetric_qubit_pair(0.3, 1e-8)
    with caplog.at_level(logging.WARNING):
        for _ in range(2):
            solve_grid([(e, t) for t in (0.1, 0.9)], max_iterations=20)
        plateau = e.plateau_measurement
    assert plateau is e.plateau_measurement
    assert plateau.rate is None and len(calls) == 1
    assert [(rec.name, rec.levelno) for rec in caplog.records
            if rec.name == "povmlab.bounds"] == [("povmlab.bounds", logging.WARNING)]


# ---------------------------------------------------------------------------
# the plateau start

@pytest.mark.parametrize("dim, n_states", UNTIED)
def test_plateau_start_is_a_povm_at_the_target_rate(dim, n_states):
    rng = np.random.default_rng(500 + 10 * dim + n_states)
    ensembles = [random_ensemble(rng, dim, n_states) for _ in range(3)]
    if (dim, n_states) == (2, 2):
        ensembles.append(symmetric_qubit_pair(0.9, math.pi / 4))   # a tie
    for e in ensembles:
        plateau = e.plateau_measurement
        sigma = e.average_state
        for target in [0.0, *rng.uniform(0.0, plateau.rate, 4).tolist()]:
            start = solver._plateau_start(e, target)
            assert povm_violations(Povm(start)) == []
            assert np.abs(start.sum(axis=0) - np.eye(dim)).max() <= 1e-12
            assert abs(np.trace(sigma @ start[0]).real - target) <= 1e-12
            # full-rank conclusive elements
            assert np.linalg.eigvalsh(start[1:])[:, 0].min() > 0.0


@pytest.mark.parametrize("n_states", [2, 3, 4, 5])
def test_plateau_start_at_rate_zero_is_the_uninformative_start(n_states):
    e = random_ensemble(np.random.default_rng(600 + n_states), 3, n_states)
    plateau = e.plateau_measurement
    assert plateau.rate > 0.0
    start = solver._plateau_start(e, 0.0)
    assert start.tobytes() == initial_povm(e, 0.0).elements.tobytes()


@pytest.mark.parametrize("failing", [1, 2])
def test_infeasible_sweep_from_the_plateau_start_restarts(monkeypatch, failing):
    # the start's inconclusive element is rank-deficient for a tie, and
    # every sweep keeps its rank, so an infeasible sweep from the start
    # (1) or from a sweep's output descending from it (2) restarts the
    # point from the uninformative start rather than ending it
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    reference = solve(e, 0.3)
    sweep = solver._sweep
    inputs, outputs = [], []

    def flaky_sweep(fixed, x, targets, starts):
        inputs.append(x[0].copy())
        new, fits = sweep(fixed, x, targets, starts)
        if len(inputs) == failing:
            fits[0].error = InfeasibleTargetError(target=targets[0], supremum=0.0)
            return new, fits
        outputs.append(new[0].copy())
        return new, fits

    monkeypatch.setattr(solver, "_sweep", flaky_sweep)
    r = solve(e, 0.3)
    assert np.array_equal(inputs[0], solver._plateau_start(e, 0.3))
    if failing == 2:
        assert np.array_equal(inputs[1], outputs[0])
    assert np.array_equal(inputs[failing], initial_povm(e, 0.3).elements)
    assert r.converged and r.iterations == len(outputs)
    assert check(e, r.povm).optimal
    assert r.p_rs == pytest.approx(reference.p_rs, abs=1e-12)


# ---------------------------------------------------------------------------
# N symmetric pure states, in closed form

@pytest.mark.parametrize("n_states", [3, 4, 5, 6])
def test_symmetric_pure_states_match_water_filling(n_states):
    # the optimal success rate of U^j |psi> is a water filling of |c_k|;
    # the solver, the plateau measurement and the certificate all agree
    # with it, from outside povmlab
    targets = np.linspace(0.0, 0.95, 12)
    for seed in range(2):
        rng = np.random.default_rng(100 * n_states + seed)
        c = rng.standard_normal(n_states) + 1j * rng.standard_normal(n_states)
        c /= np.linalg.norm(c)
        e = symmetric_pure_states(c)
        results = solve_grid([(e, float(t)) for t in targets])
        for t, r in zip(targets, results):
            assert abs(r.p_s - symmetric_pure_ps(c, t)) <= 1e-12
            assert check(e, symmetric_pure_povm(c, t)).optimal
        plateau = e.plateau_measurement
        assert abs(plateau.rate - (1.0 - n_states * np.min(np.abs(c)) ** 2)) <= 1e-12
        assert abs(plateau.bound.prs_max - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# two pure states with unequal priors: the Jaeger-Shimony onset

@pytest.mark.parametrize("p1, s", [(0.4, 0.6), (0.3, 0.5)])
def test_jaeger_shimony_povm_is_certified_at_the_onset(p1, s):
    # the closed-form unambiguous measurement makes no error, fails at the
    # onset rate, and the certificate finds it optimal
    e = pure_pair(p1, s)
    povm = jaeger_shimony_povm(p1, s)
    assert not povm_violations(povm)
    metrics = success_metrics(e, povm)
    assert abs(metrics.p_i - jaeger_shimony_onset(p1, s)) <= 1e-15
    assert abs(metrics.p_rs - 1.0) <= 1e-12
    assert check(e, povm).optimal


@pytest.mark.parametrize("p1, s", [(0.4, 0.6), (0.3, 0.5), (0.3, 0.8)])
def test_solve_just_above_the_jaeger_shimony_onset_reaches_the_ceiling(p1, s):
    # at unequal priors plateau_pi, the common-scale answer, lies above the
    # true onset; the solver reaches the ceiling 1 between the two
    e = pure_pair(p1, s)
    onset = jaeger_shimony_onset(p1, s)
    assert e.plateau_measurement.rate > onset + 0.01
    r = solve(e, onset + 0.01)
    assert r.converged and r.certificate.optimal
    assert abs(r.p_rs - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# hard ensembles at the default sweep cap

@pytest.mark.parametrize("grids, sweeps, not_converged, uncertified", [
    ([(fig1, 0.01)], 881, 0, 0),
    ([(fig1, 1e-3)], 852, 0, 0),
    ([(fig1, 1e-4)], 863, 0, 0),
    ([(fig1, 1e-5)], 1323, 0, 0),
    ([(fig1, 1e-6)], 2186, 3, 28),
    ([(family_a, 2), (family_a, 3)], 10668, 7, 7),
    ([(family_c, 2)], 5975, 0, 0),
    ([(family_c, 4)], 6339, 3, 3),
], ids=["B-theta-0.01", "B-theta-1e-3", "B-theta-1e-4", "B-theta-1e-5", "B-theta-1e-6",
        "A-d-4", "C-d-8-N-2", "C-d-8-N-4"])
def test_hard_ensembles_at_the_default_cap(grids, sweeps, not_converged, uncertified):
    # the solver's counts on its three hard families are bounds no change may
    # exceed: total sweeps (with 2 % room for the last bits of LAPACK),
    # points that end at the cap, and points whose certificate fails
    results = [r for family, arg in grids
               for r in solve_grid(family(arg), max_iterations=500)]
    assert sum(r.iterations for r in results) <= sweeps * 1.02
    assert sum(not r.converged for r in results) <= not_converged
    assert sum(not r.certificate.optimal for r in results) <= uncertified
