import copy
import math
import pickle

import numpy as np
import pytest

from closed_forms import overlaps_and_purities, qubit_quadratic_a
from conftest import random_ensemble
from povmlab import ensemble as ensemble_module
from povmlab.bounds import max_relative_success
from povmlab.certificate import check
from povmlab.ensemble import (
    EnsembleValidationError,
    StateEnsemble,
    symmetric_qubit_pair,
    validate,
)
from povmlab.hermitian import psd_root
from povmlab.solver import Povm, initial_povm, solve


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


@pytest.mark.parametrize("asymmetry, flagged", [(5e-13, False), (5e-12, True)])
def test_state_hermiticity_tolerance(asymmetry, flagged):
    # max|A - A†| is twice the off-diagonal skew
    skew = np.array([[0.0, asymmetry / 2], [-asymmetry / 2, 0.0]], dtype=complex)
    e = StateEnsemble((PROJ0, np.eye(2) / 2 + skew), np.array([0.5, 0.5]))
    report = validate(e)
    if not flagged:
        assert report == []
        return
    assert [v.message for v in report] == [
        f"state 1 is not Hermitian (asymmetry {asymmetry:.3e})"]
    assert report[0].residual == pytest.approx(asymmetry) and report[0].index == 1


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
    with pytest.raises(ValueError, match="share one shape"):
        StateEnsemble([PROJ0, np.eye(3, dtype=complex) / 3], np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="square"):
        StateEnsemble(np.zeros((2, 2, 3), dtype=complex), np.array([0.5, 0.5]))
    # one stacked array is the same ensemble as its matrices in a tuple
    stacked = StateEnsemble(np.array([PROJ0, PROJ1]), np.array([0.5, 0.5]))
    assert stacked.states.shape == (2, 2, 2)
    assert np.array_equal(stacked.states, orthogonal_pair().states)
    with pytest.raises(ValueError):
        StateEnsemble((np.zeros((2, 3)), np.zeros((2, 3))), np.array([0.5, 0.5]))
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
    assert np.allclose(e.average_state, rho)


def test_average_orthogonal_pair():
    assert np.allclose(orthogonal_pair().average_state, np.eye(2) / 2)


def test_average_symmetric_pair_is_diagonal():
    eta, theta = 0.9, np.pi / 4
    sig = symmetric_qubit_pair(eta, theta).average_state
    expected = np.diag([(1 + eta * np.cos(theta)) / 2,
                        (1 - eta * np.cos(theta)) / 2])
    assert np.allclose(sig, expected, atol=1e-14)


def test_average_is_density_matrix_random():
    rng = np.random.default_rng(21)
    for dim, n in ((2, 2), (3, 3), (4, 2)):
        e = random_ensemble(rng, dim, n)
        sig = e.average_state
        assert abs(np.trace(sig).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(sig)[0] >= -1e-10


def test_average_is_the_prior_weighted_sum_computed_once():
    rng = np.random.default_rng(22)
    for e in (symmetric_qubit_pair(0.9, math.pi / 4), random_ensemble(rng, 5, 3)):
        sig = e.average_state
        mixture = sum(p * rho for p, rho in zip(e.priors, e.states))
        expected = (mixture + mixture.conj().T) / 2.0
        assert sig.tobytes() == expected.tobytes()
        assert not sig.flags.writeable
        with pytest.raises(ValueError):
            sig[0, 0] = 1.0
        assert e.average_state is sig
        # and so is its root, decomposed once for every caller
        root = e.average_root
        assert all(a.tobytes() == b.tobytes() for a, b in zip(root, psd_root(sig)))
        assert not any(a.flags.writeable for a in root)
        assert e.average_root is root


def test_unpickled_ensemble_recomputes_its_average():
    e = random_ensemble(np.random.default_rng(23), 3, 2)
    sig = e.average_state
    copy = pickle.loads(pickle.dumps(e))
    again = copy.average_state
    assert again is not sig and again.tobytes() == sig.tobytes()
    assert not again.flags.writeable


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
    assert np.linalg.eigvalsh(orthogonal_pair().average_state)[0] == pytest.approx(0.5)
    pure = StateEnsemble((PROJ0, PROJ0.copy()), np.array([0.5, 0.5]))
    assert np.linalg.eigvalsh(pure.average_state)[0] == pytest.approx(0.0, abs=1e-14)


def test_states_are_read_only():
    e = orthogonal_pair()
    with pytest.raises(ValueError):
        e.states[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        e.priors[0] = 5.0
    # the caller's own arrays are copied, not frozen
    rho0, rho1, priors = PROJ0.copy(), PROJ1.copy(), np.array([0.5, 0.5])
    e = StateEnsemble((rho0, rho1), priors)
    povm = Povm((rho0, rho1))
    rho0[0, 0] = rho1[1, 1] = priors[0] = 5.0
    assert np.array_equal(e.states, [PROJ0, PROJ1]) and np.array_equal(e.priors, [0.5, 0.5])
    assert np.array_equal(povm.elements, [PROJ0, PROJ1])
    with pytest.raises(ValueError):
        povm.elements[1][0, 0] = 5.0


def test_unpickled_ensemble_is_read_only():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    copy = pickle.loads(pickle.dumps(e))
    assert np.array_equal(copy.states, e.states) and np.array_equal(copy.priors, e.priors)
    assert not copy.states.flags.writeable and not copy.priors.flags.writeable
    assert not validate(copy)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copied_ensemble_is_read_only(duplicate):
    # a copy goes through the constructor, like an unpickled one
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    twin = duplicate(e)
    assert np.array_equal(twin.states, e.states) and np.array_equal(twin.priors, e.priors)
    assert not twin.states.flags.writeable and not twin.priors.flags.writeable
    # ensembles compare and hash by identity
    assert twin != e and len({e, twin, e}) == 2


def test_repr_names_the_fields():
    e = orthogonal_pair()
    povm = Povm((PROJ0, PROJ1))
    assert repr(e) == f"StateEnsemble(states={e.states!r}, priors={e.priors!r})"
    assert repr(povm) == f"Povm(elements={povm.elements!r})"


def test_ensemble_rejects_assignment():
    e = symmetric_qubit_pair(0.9, math.pi / 4)
    e.require_valid()
    for name in ("states", "priors", "dim", "_violations", "label"):
        with pytest.raises(AttributeError):
            setattr(e, name, np.eye(2))
    with pytest.raises(AttributeError):
        del e.states
    assert np.array_equal(e.states, symmetric_qubit_pair(0.9, math.pi / 4).states)
    assert not hasattr(e, "label")
    # the cached properties, before their first read and after it
    derived = ("average_state", "average_root", "plateau_measurement")
    assert not any(name in vars(e) for name in derived)
    for name in derived:
        for _ in range(2):
            with pytest.raises(AttributeError):
                setattr(e, name, np.eye(2))
            with pytest.raises(AttributeError):
                delattr(e, name)
            assert getattr(e, name) is getattr(e, name)
    assert not e.average_state.flags.writeable
    assert not any(field.flags.writeable for field in e.average_root)
    assert not e.plateau_measurement.conclusive.flags.writeable


def test_violation_is_a_record():
    bad = StateEnsemble((PROJ0, PROJ1), np.array([0.6, 0.6]))
    violation, = validate(bad)
    assert violation.index is None and str(violation) == violation.message
    assert pickle.loads(pickle.dumps(violation)) == violation
    assert violation._replace(index=1) == (violation.message, violation.residual, 1)


@pytest.mark.parametrize("entry", [
    lambda e: solve(e, 0.2),
    lambda e: check(e, initial_povm(e, 0.2)),
    max_relative_success,
    lambda e: e.plateau_measurement,
    lambda e: qubit_quadratic_a(e, 0),
], ids=["solve", "check", "max_relative_success", "plateau_measurement",
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
