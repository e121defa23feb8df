import math

import numpy as np
import pytest

from conftest import random_density, random_ensemble
from povmlab.bounds import (
    InconsistentBoundError,
    RankDeficientEnsembleError,
    max_relative_success,
    plateau_povm_direction,
    prs_max_from_invariants,
    qubit_quadratic_a,
)
from povmlab.ensemble import (
    StateEnsemble,
    average_state,
    overlaps_and_purities,
    symmetric_qubit_pair,
)
from povmlab.qubit_analytic import (
    SymmetricQubitProblem,
    analytic_povm,
    phi_max_and_prs_max,
)
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


def test_rank_deficient_average_rejected():
    e = StateEnsemble((PROJ0, PROJ0.copy()), np.array([0.5, 0.5]))
    with pytest.raises(RankDeficientEnsembleError):
        max_relative_success(e)


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
    p = SymmetricQubitProblem(0.9, math.pi / 4)
    e = p.ensemble()
    b = max_relative_success(e)
    proj = plateau_povm_direction(e, b)
    assert np.trace(proj).real == pytest.approx(b.kernel_dimension, abs=1e-9)
    assert np.allclose(proj @ proj, proj, atol=1e-9)
    # the limiting conclusive element of the analytic family at the plateau
    # angle lies inside this kernel
    phi_max, _ = phi_max_and_prs_max(p)
    direction = analytic_povm(p, phi_max).elements[1 + b.argmax_state]
    direction = direction / np.trace(direction).real
    assert np.trace(proj @ direction).real == pytest.approx(1.0, abs=1e-9)


def test_plateau_direction_orthogonal_pure_pair():
    e = StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.5]))
    b = max_relative_success(e)
    proj = plateau_povm_direction(e, b)
    assert np.allclose(proj, e.states[b.argmax_state], atol=1e-9)


def test_plateau_direction_identical_states_degenerates_to_identity():
    rho = mixed_qubit(0.2)
    e = StateEnsemble((rho, rho.copy()), np.array([0.5, 0.5]))
    proj = plateau_povm_direction(e, max_relative_success(e))
    assert np.allclose(proj, np.eye(2))


def test_plateau_direction_checks_ensemble_size():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    b = max_relative_success(random_ensemble(np.random.default_rng(54), 2, 3))
    with pytest.raises(ValueError):
        plateau_povm_direction(e, b)


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
    sig = average_state(e)
    reference = [p * max(np.linalg.eigvals(np.linalg.solve(sig, rho)).real)
                 for p, rho in zip(e.priors, e.states)]
    assert b.per_state_a == pytest.approx(reference, rel=1e-6)
    proj = plateau_povm_direction(e, b)
    assert np.allclose(proj @ proj, proj, atol=1e-10)
