"""Shared random-instance generators for the test suite.

All generators take an explicit numpy Generator so every test pins its own
seed; nothing here reads global RNG state.
"""

from __future__ import annotations

import numpy as np

from povmlab import Povm, StateEnsemble, solver
from povmlab.ensemble import average_state
from povmlab.solver import MAX_ITERATIONS, POVM_TOLERANCE, initial_povm


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a complex Gaussian factor G G^dag / Tr."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_ensemble(rng: np.random.Generator, dim: int, n_states: int) -> StateEnsemble:
    """Full-rank states with well-separated priors (each at least 0.1/N)."""
    priors = rng.random(n_states) + 0.1
    priors = priors / priors.sum()
    states = tuple(random_density(rng, dim) for _ in range(n_states))
    return StateEnsemble(states, priors)


def padded(e: StateEnsemble, dim: int, unitary=None) -> StateEnsemble:
    """The ensemble embedded in the leading block of a ``dim``-dim space,
    optionally rotated by ``unitary``; its average state is then singular."""
    states = []
    for rho in e.states:
        big = np.zeros((dim, dim), dtype=complex)
        big[:e.dim, :e.dim] = rho
        states.append(big if unitary is None else unitary @ big @ unitary.conj().T)
    return StateEnsemble(tuple(states), e.priors)


def random_povm(rng: np.random.Generator, dim: int, n_outcomes: int) -> Povm:
    """Random valid POVM: PSD seeds A_k whitened by their sum,
    S^{-1/2} A_k S^{-1/2}, which closes to the identity by construction."""
    seeds = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        seeds.append(g @ g.conj().T)
    total = sum(seeds)
    w, v = np.linalg.eigh(total)
    whiten = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    elements = tuple(whiten @ a @ whiten for a in seeds)
    return Povm(elements)


def at_rate(e: StateEnsemble, povm: Povm, rate: float) -> Povm:
    """The POVM moved to inconclusive rate ``rate`` for ``e``: above it,
    Pi_0 is scaled down and what it loses is added to Pi_1; below it, the
    POVM is mixed toward (I, 0, ..., 0)."""
    p_i = float(np.trace(average_state(e) @ povm.inconclusive).real)
    pi0, pi1, *rest = povm.elements
    if p_i > rate:
        s = rate / p_i
        return Povm((s * pi0, pi1 + (1.0 - s) * pi0, *rest))
    s = (rate - p_i) / (1.0 - p_i)
    return Povm(((1.0 - s) * pi0 + s * np.eye(povm.dim),
                 *((1.0 - s) * m for m in povm.conclusive)))


def helstrom_two_state(e: StateEnsemble) -> float:
    """Independent minimum-error oracle for two states:
    (1 + trace norm of p_1 rho_1 - p_2 rho_2) / 2."""
    assert e.n_states == 2
    gap = e.priors[0] * e.states[0] - e.priors[1] * e.states[1]
    return 0.5 * (1.0 + float(np.sum(np.abs(np.linalg.eigvalsh(gap)))))


def rate_terms(e: StateEnsemble, povm: Povm):
    """The terms of the multiplier search in one sweep of ``povm`` on
    ``e``, as a stack of one point."""
    return solver._sweep_terms(solver._ensemble_terms([e]), povm.elements[None])[1]


def sweep_once(e: StateEnsemble, povm: Povm, target: float):
    """One sweep of the map on ``povm`` with a cold multiplier search: the
    new POVM and the search's outcome, whose ``a`` is the multiplier the
    sweep used. Raises the outcome's InfeasibleTargetError."""
    new, (fit,), _ = solver._sweep(solver._ensemble_terms([e]), povm.elements[None],
                                   [target], [None])
    if fit.error is not None:
        raise fit.error
    return Povm(new[0]), fit


def plain_iteration(e: StateEnsemble, target: float,
                    max_iterations: int = MAX_ITERATIONS):
    """The unaccelerated map: :func:`sweep_once` from the default start
    until the largest element change is within POVM_TOLERANCE or
    ``max_iterations`` sweeps ran. Returns the last POVM, the last ``a``
    and the change of every sweep."""
    povm, a = initial_povm(e, target), None
    history: list[float] = []
    while len(history) < max_iterations and (
            not history or history[-1] > POVM_TOLERANCE):
        new, fit = sweep_once(e, povm, target)
        a = fit.a
        history.append(max(float(np.linalg.norm(n - o))
                           for n, o in zip(new.elements, povm.elements)))
        povm = new
    return povm, a, history
