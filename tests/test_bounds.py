import logging
import math

import numpy as np
import pytest

from closed_forms import (
    SymmetricQubitProblem,
    analytic_povm,
    jaeger_shimony_onset,
    overlaps_and_purities,
    phi_max_and_prs_max,
    plateau_onset_pi,
    prs_max_from_invariants,
    pure_pair,
    qubit_quadratic_a,
)
from conftest import padded, random_density, random_ensemble
from povmlab.bounds import max_relative_success
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair
from povmlab.solver import solve

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)

# frozen from the closed form (1 + eta sin(theta)/sqrt(1 - eta^2 cos^2(theta)))/2
# at theta = pi/4, cross-checked against the eigenvalue and invariant routes
PLATEAU_AT_QUARTER_PI = {
    0.7: 0.78482596056990572,
    0.8: 0.84299717028501764,
    0.9: 0.91251432366269514,
    1.0: 1.0,
}


def mixed_qubit(bloch_z: float) -> np.ndarray:
    return np.diag([(1 + bloch_z) / 2, (1 - bloch_z) / 2]).astype(complex)


def test_identical_states_bound_is_largest_prior():
    rho = mixed_qubit(0.4)
    e = StateEnsemble((rho, rho.copy()), np.array([0.3, 0.7]))
    b = max_relative_success(e)
    assert b.per_state_a == pytest.approx((0.3, 0.7), abs=1e-12)
    assert b.prs_max == pytest.approx(0.7, abs=1e-12)
    assert b.argmax_state == 1


def test_pure_independent_pair_reaches_one():
    e = symmetric_qubit_pair(1.0, math.pi / 4)
    assert max_relative_success(e).prs_max == pytest.approx(1.0, abs=1e-10)


def test_symmetric_pair_closed_form_values():
    for eta, expected in PLATEAU_AT_QUARTER_PI.items():
        e = symmetric_qubit_pair(eta, math.pi / 4)
        b = max_relative_success(e)
        assert b.prs_max == pytest.approx(expected, abs=1e-12), eta
        # both states are equivalent by symmetry
        assert b.per_state_a[0] == pytest.approx(b.per_state_a[1], abs=1e-12)


def test_bound_brackets_hold_random():
    rng = np.random.default_rng(51)
    for dim, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(5):
            e = random_ensemble(rng, dim, n)
            b = max_relative_success(e)
            assert max(e.priors) - 1e-12 <= b.prs_max <= 1.0 + 1e-12
            assert b.kernel_dimension >= 1


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_padded_pair_keeps_the_ceiling():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    b = max_relative_success(e)
    for dim in (3, 4):
        bp = max_relative_success(padded(e, dim))
        assert bp.prs_max == pytest.approx(b.prs_max, abs=1e-14), dim
        assert bp.per_state_a == pytest.approx(b.per_state_a, abs=1e-14), dim
        assert bp.kernel_dimension == b.kernel_dimension


def test_rotated_padded_pair_keeps_the_ceiling():
    rng = np.random.default_rng(55)
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    b = max_relative_success(e)
    for dim in range(3, 17):
        bp = max_relative_success(padded(e, dim, haar_unitary(rng, dim)))
        assert bp.prs_max == pytest.approx(b.prs_max, abs=1e-13), dim
        assert bp.per_state_a == pytest.approx(b.per_state_a, abs=1e-13), dim


@pytest.mark.parametrize("dim, n", [(3, 2), (4, 3), (5, 2), (6, 4)])
def test_independent_pure_states_reach_one(dim, n):
    # N linearly independent pure states are unambiguously distinguishable
    # (Chefles 1998); their average state has rank N < dim
    rng = np.random.default_rng(56 + dim)
    states = []
    for _ in range(n):
        ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        ket /= np.linalg.norm(ket)
        states.append(np.outer(ket, ket.conj()))
    priors = rng.random(n) + 0.1
    b = max_relative_success(StateEnsemble(tuple(states), priors / priors.sum()))
    assert b.prs_max == pytest.approx(1.0, abs=1e-12)
    assert b.per_state_a == pytest.approx([1.0] * n, abs=1e-12)


def test_quadratic_route_identical_states():
    rho = mixed_qubit(0.3)
    e = StateEnsemble((rho, rho.copy()), np.array([0.5, 0.5]))
    assert qubit_quadratic_a(e, 0) == pytest.approx(0.5, abs=1e-10)


def test_quadratic_route_symmetric_pair():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    assert qubit_quadratic_a(e, 0) == pytest.approx(
        PLATEAU_AT_QUARTER_PI[0.9], abs=1e-10)
    e = symmetric_qubit_pair(1.0, math.pi / 4)
    assert qubit_quadratic_a(e, 0) == pytest.approx(1.0, abs=1e-10)


def test_quadratic_route_agrees_with_eigenvalue_route():
    rng = np.random.default_rng(52)
    for _ in range(50):
        e = random_ensemble(rng, 2, 2)
        b = max_relative_success(e)
        for j in range(2):
            assert abs(qubit_quadratic_a(e, j) - b.per_state_a[j]) <= 1e-10


def test_quadratic_route_rejects_pure_average_state():
    ket = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    rho = np.outer(ket, ket.conj())
    e = StateEnsemble((rho, rho.copy()), np.array([0.4, 0.6]))
    assert max_relative_success(e).per_state_a == pytest.approx((0.4, 0.6), abs=1e-12)
    with pytest.raises(ValueError, match="pure average state"):
        qubit_quadratic_a(e, 0)


def test_quadratic_route_input_validation():
    e3 = random_ensemble(np.random.default_rng(53), 3, 2)
    with pytest.raises(ValueError):
        qubit_quadratic_a(e3, 0)
    e2 = symmetric_qubit_pair(0.9, math.pi / 4)
    with pytest.raises(IndexError):
        qubit_quadratic_a(e2, 2)


def test_invariants_closed_form_endpoints():
    assert prs_max_from_invariants(0.8, 0.8) == pytest.approx(0.5)
    assert prs_max_from_invariants(1.0, 0.0) == pytest.approx(1.0)


def test_invariants_closed_form_matches_family():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    o, p = overlaps_and_purities(e)
    value = prs_max_from_invariants(float(p[0]), float(o[0, 1]))
    assert value == pytest.approx(PLATEAU_AT_QUARTER_PI[0.9], abs=1e-12)


def test_invariants_closed_form_domain():
    with pytest.raises(ValueError):
        prs_max_from_invariants(0.4, 0.2)
    with pytest.raises(ValueError):
        prs_max_from_invariants(1.1, 0.2)
    with pytest.raises(ValueError):
        prs_max_from_invariants(0.8, 0.9)
    with pytest.raises(ValueError):
        prs_max_from_invariants(1.0, 1.0)


def test_plateau_direction_symmetric_pair_is_family_projector():
    # the two states tie, and their common scale gives the analytic family's
    # conclusive elements at the plateau angle
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    b = max_relative_success(e)
    plateau = e.plateau_measurement
    assert plateau.bound.prs_max == b.prs_max
    phi_max, _ = phi_max_and_prs_max(p)
    family = analytic_povm(p, phi_max).conclusive
    assert np.max(np.abs(plateau.conclusive - family)) <= 1e-12
    # each element is the common scale times a projector of rank kernel_dimension
    for x in plateau.conclusive:
        unit = x / np.linalg.norm(x, 2)
        assert np.trace(unit).real == pytest.approx(b.kernel_dimension, abs=1e-9)
        assert np.allclose(unit @ unit, unit, atol=1e-9)


@pytest.mark.parametrize("eta", [0.7, 0.8, 0.9, 1.0])
def test_plateau_pi_is_the_onset_of_the_symmetric_pair(eta):
    p = SymmetricQubitProblem(eta, math.pi / 4)
    e = p.ensemble()
    assert abs(e.plateau_measurement.rate - plateau_onset_pi(p)) <= 1e-15


@pytest.mark.parametrize("s", [0.2, 0.6, 0.9])
def test_plateau_pi_is_the_jaeger_shimony_onset_at_equal_priors(s):
    # both pure states attain the ceiling 1, and at equal priors the common
    # scale gives the least unambiguous failure rate, s
    e = pure_pair(0.5, s)
    assert abs(e.plateau_measurement.rate - jaeger_shimony_onset(0.5, s)) <= 1e-15


def test_plateau_direction_orthogonal_pure_pair():
    e = StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.5]))
    plateau = e.plateau_measurement
    assert np.allclose(plateau.conclusive, e.states, atol=1e-9)
    assert plateau.rate == pytest.approx(0.0, abs=1e-12)


def test_plateau_direction_identical_states_degenerates_to_identity():
    rho = mixed_qubit(0.2)
    e = StateEnsemble((rho, rho.copy()), np.array([0.5, 0.5]))
    plateau = e.plateau_measurement
    assert np.allclose(plateau.conclusive, [np.eye(2) / 2, np.eye(2) / 2])
    assert plateau.rate == pytest.approx(0.0, abs=1e-12)


def test_plateau_direction_padded_pair_is_padded_qubit_direction():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    plateau = e.plateau_measurement
    for dim in (3, 4):
        ep = padded(e, dim)
        bp = max_relative_success(ep)
        expected = np.zeros((2, dim, dim), dtype=complex)
        expected[:, :2, :2] = plateau.conclusive
        assert bp.kernel_dimension == 1
        padded_plateau = ep.plateau_measurement
        assert np.max(np.abs(padded_plateau.conclusive - expected)) <= 1e-12
        assert padded_plateau.rate == pytest.approx(plateau.rate, abs=1e-14)


def test_plateau_direction_padded_identical_states_is_support():
    rho = mixed_qubit(0.2)
    e = padded(StateEnsemble((rho, rho.copy()), np.array([0.5, 0.5])), 3)
    b = max_relative_success(e)
    assert b.kernel_dimension == 2
    plateau = e.plateau_measurement
    assert np.allclose(plateau.conclusive, [np.diag([0.5, 0.5, 0.0])] * 2, atol=1e-12)


def test_plateau_direction_of_one_state_is_its_kernel_projector():
    # no tie: the maximizer's element is the projector onto the kernel of
    # prs_max sigma - p_j rho_j, the others are zero, and the rate is
    # 1 - Tr[sigma P]
    for k, (dim, n_states) in enumerate([(2, 2), (3, 3), (4, 2)]):
        e = random_ensemble(np.random.default_rng(60 + k), dim, n_states)
        b = max_relative_success(e)
        plateau = e.plateau_measurement
        j = b.argmax_state
        proj = plateau.conclusive[j]
        assert np.allclose(proj @ proj, proj, atol=1e-12)
        gap = b.prs_max * e.average_state - e.priors[j] * e.states[j]
        assert np.linalg.norm(gap @ proj) <= 1e-12
        assert np.trace(proj).real == pytest.approx(b.kernel_dimension, abs=1e-12)
        others = np.delete(plateau.conclusive, j, axis=0)
        assert not others.any()
        assert plateau.rate == pytest.approx(
            1.0 - np.trace(e.average_state @ proj).real, abs=1e-15)


def test_plateau_measurement_without_a_kernel_has_no_rate(caplog):
    # the states are 1e-8 apart in angle, and the maximizer's limiting
    # operator has no |eigenvalue| below KERNEL_RTOL times its largest one
    e = symmetric_qubit_pair(0.3, 1e-8)
    with caplog.at_level(logging.WARNING):
        plateau = e.plateau_measurement
    assert plateau.rate is None and plateau.conclusive is None
    assert plateau.bound == max_relative_success(e)
    assert [(rec.name, rec.levelno) for rec in caplog.records] == [
        ("povmlab.bounds", logging.WARNING)]
    assert caplog.records[0].getMessage().startswith("no plateau measurement: no kernel")


def test_solver_never_beats_the_bound():
    p = SymmetricQubitProblem(0.8, math.pi / 4)
    e = p.ensemble()
    prs_max = max_relative_success(e).prs_max
    for target in (0.0, 0.2, 0.45, 0.75):
        r = solve(e, target)
        assert r.p_rs <= prs_max + 1e-7
    assert solve(e, 0.75).p_rs == pytest.approx(prs_max, abs=1e-6)


def test_bound_on_nearly_singular_average_state():
    # sigma has smallest eigenvalue 7.5e-9: invertible, but sigma^{-1/2} is
    # large enough that its products carry round-off asymmetry near 1e-9
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rho1 = q @ np.diag([0.7, 0.3 - 1e-8, 1e-8]) @ q.conj().T
    ket = q @ np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
    rho2 = 0.5 * np.outer(ket, ket.conj()) + 0.5 * rho1
    e = StateEnsemble((rho1, rho2), np.array([0.5, 0.5]))
    b = max_relative_success(e)
    sig = e.average_state
    reference = [p * max(np.linalg.eigvals(np.linalg.solve(sig, rho)).real)
                 for p, rho in zip(e.priors, e.states)]
    assert b.per_state_a == pytest.approx(reference, rel=1e-6)
    proj = e.plateau_measurement.conclusive[b.argmax_state]
    assert np.allclose(proj @ proj, proj, atol=1e-10)
