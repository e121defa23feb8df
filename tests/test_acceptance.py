"""Acceptance suite: seven end-to-end checks, one test per criterion.

Each test prints a single pass/fail line under pytest -v.  Expected values
come from three kinds of oracle, all independent of the solver under test:
the closed-form trade-off curve of the symmetric qubit pair, plateau
ceilings frozen ahead of time from the scalar-invariant formula (confirmed
against the eigenvalue route and the analytic family maximum), and a
trace-norm minimum-error oracle for two states.
"""

import math
import time

import numpy as np
import pytest

from closed_forms import (
    SymmetricQubitProblem,
    envelope_prs,
    phi_max_and_prs_max,
    plateau_onset_pi,
    prs_max_from_invariants,
    qubit_quadratic_a,
)
from conftest import (
    helstrom_two_state,
    plain_iteration,
    random_ensemble,
    random_povm,
    sweep_once,
)
from povmlab.bounds import max_relative_success
from povmlab.certificate import check
from povmlab.cli import default_sweep_grid
from povmlab.solver import (
    initial_povm,
    povm_violations,
    solve,
    solve_grid,
    success_metrics,
)

ETAS = (0.7, 0.8, 0.9, 1.0)
THETA = math.pi / 4

# Plateau ceilings at theta = pi/4, frozen before the solver was written.
# Each value was computed three independent ways (scalar-invariant closed
# form, generalized-eigenvalue route, analytic family maximum); the three
# routes agreed to 4.5e-16 or better.
PLATEAU_ORACLE = {
    0.7: 0.78482596056990572,
    0.8: 0.84299717028501764,
    0.9: 0.91251432366269514,
    1.0: 1.0,
}


@pytest.fixture(scope="session")
def sweep_solves():
    """Solve the four-curve benchmark grid once, each curve as one lockstep
    grid as the CLI does; criteria 1, 2, 4, 5 share it."""
    started = time.perf_counter()
    records = []
    for eta in ETAS:
        p = SymmetricQubitProblem(eta, THETA)
        e = p.ensemble()
        targets = [float(t) for t in default_sweep_grid(plateau_onset_pi(p), points=25)]
        results = solve_grid([(e, t) for t in targets])
        records += [(p, e, t, r) for t, r in zip(targets, results)]
    elapsed = time.perf_counter() - started
    print(f"\n[sweep fixture] {len(records)} solves in {elapsed:.2f}s")
    return records


def log_linear_r2(history):
    """R-squared of a straight-line fit to log10(change) vs iteration."""
    y = np.log10([h for h in history if h > 0.0])
    if y.size < 4:
        return 1.0
    x = np.arange(y.size, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _assert_each_onset_sampled_once(sweep_solves):
    """Each curve's grid holds its plateau onset eta cos(theta) once."""
    onsets = [p.eta for p, _, t, _ in sweep_solves if t == plateau_onset_pi(p)]
    assert onsets == list(ETAS)


def test_criterion_1_sweep_matches_analytic_curve(sweep_solves):
    _assert_each_onset_sampled_once(sweep_solves)
    worst = 0.0
    for p, _, target, r in sweep_solves:
        expected = envelope_prs(p, target)
        worst = max(worst, abs(r.p_rs - expected))
    print(f"max |delta P_RS| over {len(sweep_solves)} points: {worst:.3e}")
    assert worst <= 1e-6


def test_criterion_2_plateau_values(sweep_solves):
    for eta in ETAS:
        p = SymmetricQubitProblem(eta, THETA)
        bound = max_relative_success(p.ensemble()).prs_max
        assert bound == pytest.approx(PLATEAU_ORACLE[eta], abs=1e-7)
        # deepest grid point sits well inside the plateau for every eta
        deep = [r for q, _, t, r in sweep_solves
                if q.eta == eta and t == 0.84]
        assert len(deep) == 1
        assert deep[0].p_rs == pytest.approx(PLATEAU_ORACLE[eta], abs=1e-7)


def test_criterion_3_minimum_error_endpoint():
    rng = np.random.default_rng(2024)
    # near-degenerate instances (an eigenvalue of p1 rho1 - p2 rho2 close to
    # zero) are slow for the plain map; the accelerated solve needs at most
    # 39 sweeps on these 50
    for k in range(50):
        dim = 2 if k < 25 else 3
        e = random_ensemble(rng, dim, 2)
        r = solve(e, 0.0, max_iterations=200)
        assert r.converged
        oracle = helstrom_two_state(e)
        assert r.p_s == pytest.approx(oracle, abs=1e-8)


def test_criterion_4_convergence_rate(sweep_solves):
    # the accelerated solve from the plateau start: sweep cap per point, and
    # machine-independent totals over the grid (the plain map takes 4304
    # sweeps and 11615 rate evaluations, and the accelerated one from the
    # uninformative start 832 and 2545); the 52 points on the plateau, its
    # onset included, take no sweeps
    worst_iters = 0
    for p, _, target, r in sweep_solves:
        assert r.converged
        assert r.final_change <= 1e-12
        assert (r.iterations == 0) == (target >= plateau_onset_pi(p))
        worst_iters = max(worst_iters, r.iterations)
    sweeps = sum(r.iterations for *_, r in sweep_solves)
    evaluations = sum(r.rate_evaluations for *_, r in sweep_solves)
    print(f"max iterations: {worst_iters}, {sweeps} sweeps, "
          f"{evaluations} rate evaluations")
    assert sum(r.iterations == 0 for *_, r in sweep_solves) == 52
    assert worst_iters <= 12
    assert sweeps <= 360
    assert evaluations <= 1150
    # the plain map it accelerates converges linearly, within 200 sweeps,
    # on targets 0.08 or more from the onset. Nearer, its rate tends to 1,
    # and at the onset, which the solver answers in closed form, it is
    # sublinear: after 200 sweeps its change is still above 1e-6
    worst_plain = 0
    worst_r2 = 1.0
    for eta in ETAS:
        p = SymmetricQubitProblem(eta, THETA)
        e, onset = p.ensemble(), plateau_onset_pi(p)
        for target in np.concatenate([np.linspace(0.0, onset - 0.08, 13),
                                      np.linspace(onset + 0.08, 0.84, 12)]).tolist():
            _, _, history = plain_iteration(e, target, max_iterations=200)
            assert history[-1] <= 1e-12
            worst_plain = max(worst_plain, len(history))
            worst_r2 = min(worst_r2, log_linear_r2(history))
        _, _, history = plain_iteration(e, onset, max_iterations=200)
        assert history[-1] > 1e-6
    print(f"plain map: max iterations {worst_plain}, worst log-linear R^2: {worst_r2:.4f}")
    assert worst_r2 >= 0.95


def _assert_certified(e, r):
    cert = check(e, r.povm)
    assert max(cert.extremal_residuals) <= 1e-8
    finite = [m for m in cert.positivity_margins if not math.isnan(m)]
    assert min(finite) >= -1e-9
    assert -1e-12 <= cert.dual_bound - r.p_s <= 1e-8
    assert cert.optimal


def test_criterion_5_certificates(sweep_solves):
    _assert_each_onset_sampled_once(sweep_solves)
    for _, e, _, r in sweep_solves:
        _assert_certified(e, r)
    rng = np.random.default_rng(515)
    shapes = [(2, 2), (2, 3), (3, 2), (3, 3)]
    targets = [0.0, 0.05, 0.15]
    for k in range(50):
        dim, n_states = shapes[k % 4]
        e = random_ensemble(rng, dim, n_states)
        r = solve(e, targets[k % 3], max_iterations=20000)
        assert r.converged
        _assert_certified(e, r)


def test_criterion_6_route_equivalence():
    rng = np.random.default_rng(606)
    for _ in range(100):
        e = random_ensemble(rng, 2, 2)
        eig_route = max_relative_success(e).per_state_a
        for j in range(2):
            quad_route = qubit_quadratic_a(e, j)
            assert quad_route == pytest.approx(eig_route[j], abs=1e-10)

    for eta in np.linspace(0.05, 1.0, 20):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 20):
            p = SymmetricQubitProblem(float(eta), float(theta))
            purity = (1.0 + eta * eta) / 2.0
            overlap = (1.0 + eta * eta * math.cos(2.0 * theta)) / 2.0
            closed = prs_max_from_invariants(purity, overlap)
            _, family_max = phi_max_and_prs_max(p)
            assert closed == pytest.approx(family_max, abs=1e-12)


def test_criterion_7_invariants_and_weak_duality():
    rng = np.random.default_rng(707)
    cases = [(SymmetricQubitProblem(eta, THETA).ensemble(), t)
             for eta in ETAS for t in (0.0, 0.3, 0.84)]
    cases += [(random_ensemble(rng, dim, n), t)
              for dim in (2, 3) for n in (2, 3) for t in (0.0, 0.1)]
    for e, target in cases:
        sigma = e.average_state
        povm = initial_povm(e, target)
        for _ in range(60):
            new_povm, _ = sweep_once(e, povm, target)
            assert not povm_violations(new_povm)
            tracked = float(np.trace(sigma @ new_povm.elements[0]).real)
            assert abs(tracked - target) <= 1e-10
            change = max(
                np.linalg.norm(x - y)
                for x, y in zip(new_povm.elements, povm.elements)
            )
            povm = new_povm
            if change <= 1e-13:
                break

    checked = 0
    for eta, target in ((0.9, 0.3), (0.7, 0.2)):
        p = SymmetricQubitProblem(eta, THETA)
        e = p.ensemble()
        cert = check(e, solve(e, target).povm)
        assert cert.optimal
        trace = float(np.trace(cert.lam).real)
        for _ in range(500):
            candidate = random_povm(rng, 2, 3)
            m = success_metrics(e, candidate)
            assert m.p_s <= trace - cert.a * m.p_i + 1e-8
            checked += 1
    assert checked == 1000
