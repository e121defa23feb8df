import math

import numpy as np
import pytest

from closed_forms import (
    InfeasibleRateError,
    SymmetricQubitProblem,
    analytic_pi,
    analytic_povm,
    analytic_prs,
    envelope_prs,
    family_pi_supremum,
    phi_for_pi,
    phi_max_and_prs_max,
    plateau_onset_pi,
)
from povmlab.bounds import max_relative_success
from povmlab.certificate import check
from povmlab.solver import povm_violations, success_metrics

ETAS = (0.5, 0.7, 0.9, 1.0)
THETAS = (math.pi / 8, math.pi / 4, 3 * math.pi / 8)


def test_problem_parameter_ranges():
    for eta, theta in ((0.0, 1.0), (1.2, 1.0), (0.5, 0.0), (0.5, math.pi / 2)):
        with pytest.raises(ValueError):
            SymmetricQubitProblem(eta, theta)
    SymmetricQubitProblem(1.0, math.pi / 4)  # boundary eta = 1 allowed


def test_povm_at_projective_edge():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    povm = analytic_povm(p, math.pi / 2)
    assert np.allclose(povm.inconclusive, 0.0, atol=1e-15)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(povm.elements[1], np.outer(plus, plus), atol=1e-15)
    assert np.allclose(povm.elements[2], np.outer(minus, minus), atol=1e-15)


def test_povm_at_two_thirds_pi():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    povm = analytic_povm(p, 2 * math.pi / 3)
    assert povm.inconclusive[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert povm.inconclusive[1, 1] == pytest.approx(0.0, abs=1e-15)


def test_povm_closes_exactly_across_range():
    p = SymmetricQubitProblem(0.7, math.pi / 8)
    for phi in np.linspace(math.pi / 2, math.pi - 1e-6, 50):
        povm = analytic_povm(p, float(phi))
        assert povm_violations(povm) == []
        total = sum(povm.elements)
        assert np.linalg.norm(total - np.eye(2), "fro") <= 1e-13


def test_povm_rejects_out_of_range_angle():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    for phi in (0.0, math.pi / 2 - 1e-9, math.pi, 4.0):
        with pytest.raises(ValueError):
            analytic_povm(p, phi)


def test_prs_closed_form_edges():
    p = SymmetricQubitProblem(0.8, math.pi / 4)
    assert analytic_prs(p, math.pi / 2) == pytest.approx(
        (1 + 0.8 * math.sin(math.pi / 4)) / 2, abs=1e-14)
    assert analytic_prs(p, math.pi - 1e-8) == pytest.approx(0.5, abs=1e-7)
    pure = SymmetricQubitProblem(1.0, math.pi / 4)
    assert analytic_prs(pure, 3 * math.pi / 4) == pytest.approx(1.0, abs=1e-14)


def test_pi_closed_form_edges():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    assert analytic_pi(p, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    sup = family_pi_supremum(p)
    assert analytic_pi(p, math.pi - 1e-7) == pytest.approx(sup, abs=1e-6)
    assert analytic_pi(p, math.pi - 1e-7) < sup
    expected = 0.5 * (1 + 0.9 * math.cos(math.pi / 4)) * (2.0 / 3.0)
    assert analytic_pi(p, 2 * math.pi / 3) == pytest.approx(expected, abs=1e-14)


def test_phi_for_pi_round_trip():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    assert phi_for_pi(p, 0.0) == pytest.approx(math.pi / 2, abs=1e-14)
    target = analytic_pi(p, 2 * math.pi / 3)
    assert phi_for_pi(p, target) == pytest.approx(2 * math.pi / 3, abs=1e-12)
    for t in np.linspace(0.0, family_pi_supremum(p) - 1e-6, 25):
        phi = phi_for_pi(p, float(t))
        assert analytic_pi(p, phi) == pytest.approx(float(t), abs=1e-12)


def test_phi_for_pi_infeasible_targets():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    with pytest.raises(InfeasibleRateError):
        phi_for_pi(p, family_pi_supremum(p))
    with pytest.raises(InfeasibleRateError):
        phi_for_pi(p, -0.1)


def test_phi_for_pi_clamp_is_explicit():
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    onset = plateau_onset_pi(p)
    phi_max, _ = phi_max_and_prs_max(p)
    # past the onset the family angle is returned as is, never capped
    assert phi_for_pi(p, onset + 0.05) > phi_max


def test_plateau_values():
    pure = SymmetricQubitProblem(1.0, math.pi / 4)
    phi_max, prs_max = phi_max_and_prs_max(pure)
    assert phi_max == pytest.approx(3 * math.pi / 4, abs=1e-14)
    assert prs_max == pytest.approx(1.0, abs=1e-14)

    p = SymmetricQubitProblem(0.9, math.pi / 4)
    assert phi_max_and_prs_max(p)[1] == pytest.approx(0.91251432366269514, abs=1e-12)

    near_orth = SymmetricQubitProblem(0.5, math.pi / 2 - 1e-8)
    phi_max, prs_max = phi_max_and_prs_max(near_orth)
    assert phi_max == pytest.approx(math.pi / 2, abs=1e-7)
    assert prs_max == pytest.approx(0.75, abs=1e-7)


def test_prs_max_is_the_curve_value_at_phi_max():
    for eta in ETAS:
        for theta in THETAS:
            p = SymmetricQubitProblem(eta, theta)
            phi_max, prs_max = phi_max_and_prs_max(p)
            assert analytic_prs(p, phi_max) == pytest.approx(prs_max, abs=1e-12)


def test_onset_rate_sits_on_the_curve():
    for eta in ETAS:
        p = SymmetricQubitProblem(eta, math.pi / 4)
        phi_max, _ = phi_max_and_prs_max(p)
        assert analytic_pi(p, phi_max) == pytest.approx(plateau_onset_pi(p), abs=1e-12)


def test_metrics_reproduce_closed_forms_on_grid():
    for eta in ETAS:
        for theta in THETAS:
            p = SymmetricQubitProblem(eta, theta)
            e = p.ensemble()
            for phi in np.linspace(math.pi / 2, math.pi - 0.01, 12):
                m = success_metrics(e, analytic_povm(p, float(phi)))
                assert m.p_rs == pytest.approx(analytic_prs(p, float(phi)), abs=1e-12)
                assert m.p_i == pytest.approx(analytic_pi(p, float(phi)), abs=1e-12)


def test_family_certified_optimal_up_to_plateau():
    for eta in (0.5, 0.9):
        for theta in THETAS:
            p = SymmetricQubitProblem(eta, theta)
            e = p.ensemble()
            phi_max, _ = phi_max_and_prs_max(p)
            for phi in np.linspace(math.pi / 2 + 1e-3, phi_max, 5):
                assert check(e, analytic_povm(p, float(phi))).optimal


def test_plateau_matches_bound_module():
    for eta in ETAS:
        for theta in THETAS:
            p = SymmetricQubitProblem(eta, theta)
            _, prs_max = phi_max_and_prs_max(p)
            assert max_relative_success(p.ensemble()).prs_max == pytest.approx(
                prs_max, abs=1e-10)


def test_curve_rises_then_falls_around_phi_max():
    p = SymmetricQubitProblem(0.8, math.pi / 4)
    phi_max, _ = phi_max_and_prs_max(p)
    rising = np.linspace(math.pi / 2, phi_max, 30)
    values = [analytic_prs(p, float(x)) for x in rising]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    falling = np.linspace(phi_max, math.pi - 1e-6, 30)
    values = [analytic_prs(p, float(x)) for x in falling]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_envelope_is_flat_beyond_onset():
    p = SymmetricQubitProblem(0.7, math.pi / 4)
    onset = plateau_onset_pi(p)
    _, prs_max = phi_max_and_prs_max(p)
    assert envelope_prs(p, onset - 1e-9) <= prs_max + 1e-12
    for t in (onset, onset + 0.1, 0.95):
        assert envelope_prs(p, t) == prs_max
    with pytest.raises(ValueError):
        envelope_prs(p, 1.0)
