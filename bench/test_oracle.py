"""Properties of the benchmark's closed-form oracle.

Run with ``python3 -m pytest bench``. The oracle must hold up on its own,
since the benchmark judges povmlab by it.
"""

import math

import numpy as np
import pytest

import oracle

PAIRS = [(0.7, math.pi / 4), (0.9, math.pi / 4), (1.0, math.pi / 4), (0.6, 0.4), (0.95, 1.2)]


def _check_povm(elements, dim):
    total = sum(elements)
    assert np.allclose(total, np.eye(dim), atol=1e-12)
    for m in elements:
        assert np.allclose(m, m.conj().T, atol=0)
        assert np.linalg.eigvalsh(m)[0] >= -1e-12


@pytest.mark.parametrize("eta,theta", PAIRS)
def test_family_closes_is_psd_and_meets_its_rates(eta, theta):
    states = oracle.pair_states(eta, theta)
    for phi in np.linspace(math.pi / 2, math.acos(-eta * math.cos(theta)), 9):
        povm = oracle.family_povm(float(phi))
        _check_povm(povm, 2)
        p_s, p_i = oracle.rates(states, povm)
        sigma = 0.5 * (states[0] + states[1])
        assert p_i == pytest.approx(np.trace(sigma @ povm[0]).real, abs=1e-15)
        assert p_i == pytest.approx(oracle.family_pi(eta, theta, float(phi)), abs=1e-12)
        assert p_s / (1 - p_i) == pytest.approx(oracle.family_prs(eta, theta, float(phi)),
                                                abs=1e-12)


@pytest.mark.parametrize("eta,theta", PAIRS)
def test_envelope_rises_to_the_plateau_at_the_onset(eta, theta):
    onset = oracle.onset(eta, theta)
    assert onset == pytest.approx(oracle.family_pi(eta, theta, math.acos(-onset)), abs=1e-12)
    below = [oracle.envelope(eta, theta, t) for t in np.linspace(0, onset, 50, endpoint=False)]
    assert all(b < a for b, a in zip(below, below[1:]))
    assert below[-1] < oracle.plateau(eta, theta)
    assert oracle.envelope(eta, theta, onset - 1e-9) == pytest.approx(
        oracle.plateau(eta, theta), abs=1e-6)
    assert oracle.envelope(eta, theta, min(onset + 0.1, 0.99)) == oracle.plateau(eta, theta)
    assert oracle.phi_at(eta, theta, 0.3 * onset) == pytest.approx(
        _bisect_phi(eta, theta, 0.3 * onset), abs=1e-12)


def _bisect_phi(eta, theta, target):
    lo, hi = math.pi / 2, math.pi - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if oracle.family_pi(eta, theta, mid) < target else (lo, mid)
    return lo


def test_plateau_is_the_ceiling_of_the_pair():
    for eta, theta in PAIRS:
        assert oracle.ceiling(oracle.pair_states(eta, theta)) == pytest.approx(
            oracle.plateau(eta, theta), abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_embedding_keeps_rates_optimum_and_ceiling(k):
    rng = np.random.default_rng(k)
    eta, theta = 0.8, 0.7
    u = oracle.random_unitary(2 * k, rng)
    assert np.allclose(u @ u.conj().T, np.eye(2 * k), atol=1e-12)
    states = oracle.embedded_pair(eta, theta, k, u)
    for rho in states:
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho)[0] > 0
    t = 0.5 * oracle.onset(eta, theta)
    phi = oracle.phi_at(eta, theta, t)
    povm = oracle.embedded_povm(phi, k, u)
    _check_povm(povm, 2 * k)
    p_s, p_i = oracle.rates(states, povm)
    sigma = 0.5 * (states[0] + states[1])
    assert p_i == pytest.approx(np.trace(sigma @ povm[0]).real, abs=1e-15)
    assert p_i == pytest.approx(t, abs=1e-12)
    assert p_s / (1 - p_i) == pytest.approx(oracle.envelope(eta, theta, t), abs=1e-12)
    assert oracle.ceiling(states) == pytest.approx(oracle.plateau(eta, theta), abs=1e-12)


def test_random_povms_are_valid_and_below_the_envelope():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 8, 16):
        eta, theta = 0.85, 0.9
        states = oracle.embedded_pair(eta, theta, dim // 2, oracle.random_unitary(dim, rng))
        for _ in range(20):
            povm = oracle.random_povm(dim, 3, rng)
            _check_povm(povm, dim)
            p_s, p_i = oracle.rates(states, povm)
            assert p_s / (1 - p_i) < oracle.envelope(eta, theta, p_i)
