import math

import numpy as np
import pytest

from closed_forms import (
    SymmetricQubitProblem,
    analytic_povm,
    phi_max_and_prs_max,
    plateau_onset_pi,
)
from conftest import at_rate, random_ensemble, random_povm
from grids import digest, fig1, onset_window
from povmlab.certificate import SingularMultiplierError, check, check_grid
from povmlab.cli import default_sweep_grid
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair
from povmlab.solver import Povm, initial_povm, solve, solve_grid, success_metrics

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def orthogonal_projective() -> tuple[StateEnsemble, Povm]:
    e = StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.5]))
    povm = Povm((np.zeros((2, 2), dtype=complex), PROJ0, PROJ1))
    return e, povm


def test_helstrom_branch_multipliers():
    e, povm = orthogonal_projective()
    cert = check(e, povm)
    assert cert.a is None
    assert np.allclose(cert.lam, (PROJ0 + PROJ1) / 2)


def test_helstrom_branch_certificate_zero_gap():
    e, povm = orthogonal_projective()
    cert = check(e, povm)
    assert cert.optimal
    assert cert.dual_bound == pytest.approx(1.0, abs=1e-12)
    assert math.isnan(cert.positivity_margins[0])
    assert cert.extremal_residuals[0] == 0.0
    assert abs(cert.dual_bound - success_metrics(e, povm).p_s) <= 1e-12


def test_scalar_multiplier_equals_plateau_value():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    phi_max, prs_max = phi_max_and_prs_max(p)
    cert = check(p.ensemble(), analytic_povm(p, phi_max))
    assert cert.a == pytest.approx(prs_max, abs=1e-10)


def test_analytic_family_certified_up_to_plateau():
    for eta, theta in ((0.7, math.pi / 4), (0.9, math.pi / 4), (0.9, math.pi / 8)):
        p = SymmetricQubitProblem(eta, theta)
        e = p.ensemble()
        phi_max, _ = phi_max_and_prs_max(p)
        for phi in np.linspace(math.pi / 2 + 1e-3, phi_max, 7):
            povm = analytic_povm(p, float(phi))
            cert = check(e, povm)
            assert cert.optimal, (eta, theta, phi)
            assert max(cert.extremal_residuals) <= 1e-8
            gap = cert.dual_bound - success_metrics(e, povm).p_s
            assert -1e-12 <= gap <= 1e-8


def test_family_past_plateau_is_stationary_but_not_optimal():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    phi_max, _ = phi_max_and_prs_max(p)
    cert = check(e, analytic_povm(p, phi_max + 0.2))
    assert max(cert.extremal_residuals) <= 1e-8
    assert min(m for m in cert.positivity_margins if not math.isnan(m)) < -1e-9
    assert not cert.optimal


def test_perturbed_povm_fails_with_visible_residual():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    phi_max, _ = phi_max_and_prs_max(p)
    base = analytic_povm(p, phi_max)
    th = 0.1
    u = np.array([[math.cos(th), -math.sin(th)],
                  [math.sin(th), math.cos(th)]], dtype=complex)
    rotated = u @ base.elements[1] @ u.conj().T
    reclosed = np.eye(2) - rotated - base.elements[2]
    cert = check(e, Povm((reclosed, rotated, base.elements[2])))
    assert not cert.optimal
    assert max(cert.extremal_residuals) > 1e-3


def test_solver_output_is_certified_on_family():
    p = SymmetricQubitProblem(0.8, math.pi / 4)
    e = p.ensemble()
    for target in (0.0, 0.15, 0.4, 0.75):
        r = solve(e, target)
        assert r.converged
        cert = check(e, r.povm)
        assert cert.optimal, target
        assert -1e-12 <= cert.dual_bound - r.p_s <= 1e-8


def test_certificate_a_matches_solver_a():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.25)
    cert = check(e, r.povm)
    assert cert.a == pytest.approx(r.a, abs=1e-8)


def test_weak_duality_against_random_povms():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    r = solve(e, 0.3)
    cert = check(e, r.povm)
    assert cert.optimal
    trace = float(np.trace(cert.lam).real)
    rng = np.random.default_rng(41)
    for _ in range(200):
        candidate = random_povm(rng, 2, 3)
        m = success_metrics(e, candidate)
        assert m.p_s <= trace - cert.a * m.p_i + 1e-8


def test_random_povms_have_a_real_gap():
    # the dual bound of a non-optimal candidate cannot equal its success rate
    rng = np.random.default_rng(43)
    cases = [(symmetric_qubit_pair(0.9, math.pi / 4), 3)] * 100
    cases += [(random_ensemble(rng, 3, 3), 4) for _ in range(20)]
    for e, n_outcomes in cases:
        candidate = random_povm(rng, e.dim, n_outcomes)
        cert = check(e, candidate)
        assert not cert.optimal
        assert cert.dual_bound - success_metrics(e, candidate).p_s > 1e-3


def test_dual_bound_holds_at_the_candidate_rate():
    # weak duality: any candidate's own dual bound is at least the optimum
    # at the candidate's inconclusive rate
    rng = np.random.default_rng(44)
    cases = [(symmetric_qubit_pair(eta, math.pi / 4), t)
             for eta in (0.7, 0.9) for t in (0.0, 0.2, 0.5)]
    cases += [(random_ensemble(rng, dim, n), t)
              for dim, n in ((2, 3), (3, 2), (3, 3), (3, 3)) for t in (0.0, 0.1)]
    for e, t in cases:
        best = solve(e, t, max_iterations=20000)
        assert best.converged
        for _ in range(100):
            candidate = at_rate(e, random_povm(rng, e.dim, e.n_states + 1), t)
            assert success_metrics(e, candidate).p_i == pytest.approx(t, abs=1e-14)
            assert check(e, candidate).dual_bound >= best.p_s, (t, e.dim)


def test_singular_multiplier_on_idempotent_inconclusive():
    # an exactly idempotent inconclusive element makes the scalar equation
    # degenerate: Tr[sigma Pi_0 Pi_0] = Tr[sigma Pi_0]
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    povm = Povm((PROJ0, 0.5 * PROJ1, 0.5 * PROJ1))
    with pytest.raises(SingularMultiplierError):
        check(e, povm)


def test_mismatched_povm_rejected():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    povm = Povm((np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)))
    with pytest.raises(ValueError):
        check(e, povm)


def test_lambda_is_hermitian_and_asymmetry_reported():
    rng = np.random.default_rng(42)
    e = random_ensemble(rng, 3, 3)
    r = solve(e, 0.2)
    cert = check(e, r.povm)
    assert np.allclose(cert.lam, cert.lam.conj().T)
    assert cert.lambda_asymmetry <= 1e-10
    # a deliberately non-stationary candidate shows visible asymmetry
    candidate = random_povm(rng, 3, 4)
    cert_bad = check(e, candidate)
    assert cert_bad.lambda_asymmetry > 1e-8
    assert not cert_bad.optimal


# ---------------------------------------------------------------------------
# the stacked certificate

def _one_point(e, povm):
    try:
        return check(e, povm)
    except SingularMultiplierError as exc:
        return exc


def _assert_grid_matches_one_point_checks(pairs):
    grid = check_grid(pairs)
    assert len(grid) == len(pairs)
    for (e, povm), outcome in zip(pairs, grid):
        assert digest(outcome) == digest(_one_point(e, povm))
    return grid


def test_check_grid_matches_check_on_the_fig1_grid_and_onset_window():
    points = []
    for eta in (0.7, 0.8, 0.9, 1.0):
        p = SymmetricQubitProblem(eta, math.pi / 4)
        points += [(p.ensemble(), float(t)) for t in default_sweep_grid(plateau_onset_pi(p))]
    for grid, cap in ((points, 500), (onset_window(), 1000)):
        certs = _assert_grid_matches_one_point_checks(
            [(e, r.povm) for (e, _), r in zip(grid, solve_grid(grid, max_iterations=cap))])
        assert all(c.optimal for c in certs)


@pytest.mark.parametrize("theta, window", [(math.pi / 4, False), (math.pi / 4, True),
                                           (1e-5, False), (1e-8, False)],
                         ids=["fig1", "onset-window", "fig1-theta-1e-5", "fig1-theta-1e-8"])
def test_every_result_carries_the_certificate_of_its_povm(theta, window):
    # the fig1 grid at theta, or the onset window of the eta = 0.9 pair:
    # the certificate a result stopped with is its POVM's, bit for bit,
    # including the points that ran into the cap or were not certified
    points = onset_window() if window else fig1(theta)
    for (e, _), r in zip(points, solve_grid(points)):
        assert digest(r.certificate) == digest(_one_point(e, r.povm))


@pytest.mark.parametrize("eta, theta, window", [
    *((eta, math.pi / 4, False) for eta in (0.7, 0.8, 0.9, 1.0)),
    (0.9, math.pi / 4, True),
    *((eta, 1e-3, False) for eta in (0.7, 0.8, 0.9, 1.0)),
], ids=["fig1-eta-0.7", "fig1-eta-0.8", "fig1-eta-0.9", "fig1-eta-1.0", "onset-window",
        "theta-1e-3-eta-0.7", "theta-1e-3-eta-0.8", "theta-1e-3-eta-0.9",
        "theta-1e-3-eta-1.0"])
def test_every_certified_point_bounds_every_other_point(eta, theta, window):
    # the dual constraints do not involve the rate, so certified point k's
    # line dual_bound + a (p_i - t) bounds the optimal success rate at every
    # rate t on its ensemble (weak duality across the curve): a wrong a or
    # lam at any point breaks it at some other point of the fig1 grid at
    # eta and theta, or of the onset window of the eta = 0.9 pair
    points = onset_window() if window else fig1(theta, etas=(eta,))
    targets = [t for _, t in points]
    results = solve_grid(points, max_iterations=1000 if window else 500)
    assert all(r.certificate.optimal for r in results)
    for r in results:
        cert = r.certificate
        for t, other in zip(targets, results):
            assert cert.dual_bound + (cert.a or 0.0) * (r.p_i - t) >= other.p_s - 1e-12


@pytest.mark.parametrize("eta, widest", [(0.7, 2.14e-4), (0.8, 3.77e-4), (0.9, 6.54e-4),
                                         (1.0, 1.14e-3)])
def test_widest_certified_band_on_the_fig1_grid(eta, widest):
    # the optimal success rate between the grid's points lies in a band:
    # below it the chord through neighbouring certified points (a mix of
    # two POVMs), above it the least of the certified points' lines
    # dual_bound + a (p_i - t). The upper edge is concave and piecewise
    # linear, so on each chord the gap is widest at a grid point or where
    # two lines cross
    points = fig1(etas=(eta,))
    targets = np.array([t for _, t in points])
    results = solve_grid(points)
    assert all(r.certificate.optimal for r in results)
    slope = np.array([r.certificate.a or 0.0 for r in results])
    intercept = np.array([r.certificate.dual_bound for r in results]) + slope * np.array(
        [r.p_i for r in results])
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = ((intercept[:, None] - intercept) / (slope[:, None] - slope)).ravel()
    at = np.concatenate([targets, crossings[(crossings >= 0.0) & (crossings <= targets[-1])]])
    upper = (intercept[:, None] - slope[:, None] * at).min(axis=0)
    lower = np.interp(at, targets, [r.p_s for r in results])
    assert (upper - lower).max() <= 1.1 * widest


@pytest.mark.parametrize("n_states", [2, 3, 4])
def test_check_grid_matches_check_on_random_ensembles(n_states):
    rng = np.random.default_rng(60 + n_states)
    for dim in range(2, 17):
        pairs = []
        for _ in range(2):
            e = random_ensemble(rng, dim, n_states)
            pairs += [(e, random_povm(rng, dim, n_states + 1)), (e, initial_povm(e, 0.3))]
            if dim <= 6:
                pairs += [(e, r.povm) for r in solve_grid([(e, 0.0), (e, 0.4)],
                                                          max_iterations=200)]
        _assert_grid_matches_one_point_checks(pairs)


def test_check_grid_keeps_a_singular_point_to_itself():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    helstrom, solved = (r.povm for r in solve_grid([(e, 0.0), (e, 0.3)]))
    orthogonal, projective = orthogonal_projective()
    singular = Povm((PROJ0, 0.5 * PROJ1, 0.5 * PROJ1))
    grid = _assert_grid_matches_one_point_checks(
        [(e, helstrom), (e, singular), (orthogonal, projective), (e, solved), (e, singular)])
    assert isinstance(grid[1], SingularMultiplierError)
    assert isinstance(grid[4], SingularMultiplierError)
    for k in (0, 2):
        assert grid[k].a is None and math.isnan(grid[k].positivity_margins[0])
    assert all(grid[k].optimal for k in (0, 2, 3))
    assert grid[3].a is not None


def test_check_grid_rejects_mixed_shapes():
    rng = np.random.default_rng(61)
    e2, e3 = random_ensemble(rng, 2, 2), random_ensemble(rng, 3, 2)
    with pytest.raises(ValueError, match="share"):
        check_grid([(e2, initial_povm(e2, 0.1)), (e3, initial_povm(e3, 0.1))])
    with pytest.raises(ValueError):
        check_grid([(e2, initial_povm(e3, 0.1))])
    assert check_grid([]) == []
