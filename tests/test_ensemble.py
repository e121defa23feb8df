import math

import numpy as np
import pytest

from conftest import random_ensemble
from povmlab import ensemble as ensemble_module
from povmlab.bounds import (
    PlateauBound,
    max_relative_success,
    plateau_povm_direction,
    qubit_quadratic_a,
)
from povmlab.certificate import check
from povmlab.ensemble import (
    EnsembleValidationError,
    StateEnsemble,
    average_state,
    min_eigenvalue_of_average,
    overlaps_and_purities,
    symmetric_qubit_pair,
    validate,
)
from povmlab.solver import initial_povm, solve


PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def orthogonal_pair() -> StateEnsemble:
    return StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.5]))


def test_valid_orthogonal_pair():
    assert validate(orthogonal_pair()) == []


def test_priors_sum_violation():
    e = StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.6]))
    messages = [v.message for v in validate(e)]
    assert any("sum" in m for m in messages)


def test_trace_violation():
    e = StateEnsemble((PROJ0, 0.9 * PROJ1), np.array([0.5, 0.5]))
    bad = [v for v in validate(e) if "trace" in v.message]
    assert bad and bad[0].index == 1
    assert bad[0].residual == pytest.approx(0.1, abs=1e-12)


def test_single_state_flagged():
    e = StateEnsemble((PROJ0,), np.array([1.0]))
    assert any("at least 2" in v.message for v in validate(e))


def test_nonpositive_prior_flagged():
    e = StateEnsemble((PROJ0, PROJ1), np.array([1.0, 0.0]))
    assert any("positive" in v.message for v in validate(e))


def test_non_hermitian_state_flagged():
    skew = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    e = StateEnsemble((PROJ0, skew), np.array([0.5, 0.5]))
    assert any("Hermitian" in v.message for v in validate(e))


def test_negative_state_flagged():
    e = StateEnsemble((PROJ0, np.diag([1.1, -0.1]).astype(complex)),
                      np.array([0.5, 0.5]))
    assert any("eigenvalue" in v.message for v in validate(e))


def test_require_valid_raises_with_violations():
    e = StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.6]))
    with pytest.raises(EnsembleValidationError) as err:
        e.require_valid()
    assert err.value.violations


def test_structural_rejections():
    with pytest.raises(ValueError):
        StateEnsemble((PROJ0, np.eye(3, dtype=complex)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        StateEnsemble((PROJ0, PROJ1), np.array([1.0]))
    with pytest.raises(ValueError):
        StateEnsemble((), np.array([]))
    with pytest.raises(ValueError):
        StateEnsemble((PROJ0, np.full((2, 2), np.nan, dtype=complex)),
                      np.array([0.5, 0.5]))


def test_average_identical_states():
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    e = StateEnsemble((rho, rho.copy()), np.array([0.3, 0.7]))
    assert np.allclose(average_state(e), rho)


def test_average_orthogonal_pair():
    assert np.allclose(average_state(orthogonal_pair()), np.eye(2) / 2)


def test_average_symmetric_pair_is_diagonal():
    eta, theta = 0.9, np.pi / 4
    sig = average_state(symmetric_qubit_pair(eta, theta))
    expected = np.diag([(1 + eta * np.cos(theta)) / 2,
                        (1 - eta * np.cos(theta)) / 2])
    assert np.allclose(sig, expected, atol=1e-14)


def test_average_is_density_matrix_random():
    rng = np.random.default_rng(21)
    for dim, n in ((2, 2), (3, 3), (4, 2)):
        e = random_ensemble(rng, dim, n)
        sig = average_state(e)
        assert abs(np.trace(sig).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(sig)[0] >= -1e-10


def test_overlaps_pure_orthogonal():
    o, p = overlaps_and_purities(orthogonal_pair())
    assert np.allclose(p, [1.0, 1.0])
    assert o[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_overlaps_maximally_mixed():
    eye2 = np.eye(2, dtype=complex) / 2
    e = StateEnsemble((eye2, eye2.copy()), np.array([0.5, 0.5]))
    o, p = overlaps_and_purities(e)
    assert np.allclose(p, [0.5, 0.5])
    assert o[0, 1] == pytest.approx(0.5)


def test_overlaps_symmetric_pair_closed_forms():
    eta, theta = 0.9, np.pi / 4
    o, p = overlaps_and_purities(symmetric_qubit_pair(eta, theta))
    assert p[0] == pytest.approx((1 + eta**2) / 2, abs=1e-14)
    assert p[1] == pytest.approx(p[0], abs=1e-14)
    # brute-force cross-check of the cross overlap
    assert o[0, 1] == pytest.approx((1 + eta**2 * np.cos(2 * theta)) / 2, abs=1e-14)
    assert o[0, 0] == pytest.approx(p[0], abs=1e-14)


def test_overlap_matrix_is_gram_psd_random():
    rng = np.random.default_rng(22)
    for _ in range(10):
        e = random_ensemble(rng, 3, 4)
        o, _ = overlaps_and_purities(e)
        assert np.allclose(o, o.T)
        assert np.linalg.eigvalsh(o)[0] >= -1e-10


def test_symmetric_pair_orthogonal_limit():
    e = symmetric_qubit_pair(1.0, np.pi / 2 - 1e-12)
    o, p = overlaps_and_purities(e)
    assert np.allclose(p, [1.0, 1.0])
    assert o[0, 1] == pytest.approx(0.0, abs=1e-10)


def test_symmetric_pair_rejects_boundaries():
    for eta, theta in ((0.0, np.pi / 4), (1.1, np.pi / 4),
                       (0.5, 0.0), (0.5, np.pi / 2)):
        with pytest.raises(ValueError):
            symmetric_qubit_pair(eta, theta)


def test_symmetric_pair_always_validates():
    rng = np.random.default_rng(23)
    for _ in range(20):
        eta = rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.05, np.pi / 2 - 0.05)
        assert validate(symmetric_qubit_pair(eta, theta)) == []


def test_min_eigenvalue_of_average():
    assert min_eigenvalue_of_average(orthogonal_pair()) == pytest.approx(0.5)
    pure = StateEnsemble((PROJ0, PROJ0.copy()), np.array([0.5, 0.5]))
    assert min_eigenvalue_of_average(pure) == pytest.approx(0.0, abs=1e-14)


def test_states_are_read_only():
    e = orthogonal_pair()
    with pytest.raises(ValueError):
        e.states[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        e.priors[0] = 5.0


@pytest.mark.parametrize("entry", [
    lambda e: solve(e, 0.2),
    lambda e: check(e, initial_povm(e, 0.2)),
    max_relative_success,
    lambda e: plateau_povm_direction(e, PlateauBound(0.9, (0.9, 0.8), 0, 1)),
    lambda e: qubit_quadratic_a(e, 0),
], ids=["solve", "check", "max_relative_success", "plateau_povm_direction",
        "qubit_quadratic_a"])
def test_entry_points_reject_invalid_ensemble(entry):
    e = StateEnsemble((PROJ0, PROJ1), np.array([0.5, 0.6]))
    for _ in range(2):  # the remembered report keeps raising
        with pytest.raises(EnsembleValidationError):
            entry(e)


def test_validation_runs_once_per_ensemble(monkeypatch):
    calls = []
    real = ensemble_module.validate
    monkeypatch.setattr(ensemble_module, "validate",
                        lambda e: calls.append(e) or real(e))
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    r = solve(e, 0.2)
    check(e, r.povm)
    max_relative_success(e)
    assert len(calls) == 1
