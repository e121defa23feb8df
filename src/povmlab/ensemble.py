"""Discrimination problem data: mixed states with prior probabilities.

A :class:`StateEnsemble` holds N density matrices and their priors. The
constructor enforces only structure (square matrices of one common
dimension, one prior per state); the physics invariants are checked by
:func:`validate`, which returns a report instead of raising so that callers
can inspect files of unknown quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hermitian import (
    HERMITICITY_ATOL,
    PSD_EIGENVALUE_FLOOR,
    frozen,
    herm,
    min_eigenvalue,
    trace_product,
)

PRIOR_SUM_ATOL = 1e-12
TRACE_ATOL = 1e-10


@dataclass(frozen=True)
class Violation:
    """One failed invariant with the measured residual."""

    message: str
    residual: float
    index: int | None = None

    def __str__(self) -> str:
        return self.message


class EnsembleValidationError(ValueError):
    """Raised when an operation requires a valid ensemble and got violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


@dataclass(frozen=True)
class StateEnsemble:
    """N candidate states with strictly positive priors summing to one."""

    states: tuple[np.ndarray, ...]
    priors: np.ndarray

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=np.complex128) for s in self.states)
        priors = np.asarray(self.priors, dtype=np.float64)
        if len(states) < 1:
            raise ValueError("ensemble needs at least one state")
        if priors.ndim != 1 or priors.size != len(states):
            raise ValueError(
                f"got {priors.size} priors for {len(states)} states"
            )
        dim = states[0].shape[0] if states[0].ndim == 2 else -1
        for j, s in enumerate(states):
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise ValueError(f"state {j} is not a square matrix: shape {s.shape}")
            if s.shape[0] != dim:
                raise ValueError(
                    f"state {j} has dimension {s.shape[0]}, expected {dim}"
                )
        if not (np.all(np.isfinite(priors)) and all(np.all(np.isfinite(s)) for s in states)):
            raise ValueError("ensemble entries must be finite")
        object.__setattr__(self, "states", tuple(frozen(s) for s in states))
        object.__setattr__(self, "priors", frozen(priors))

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        # States and priors are read-only, so one report serves every caller.
        return tuple(validate(self))

    def require_valid(self) -> "StateEnsemble":
        """Raise :class:`EnsembleValidationError` unless :func:`validate` is
        clean; the report is computed on the first call only."""
        if self._violations:
            raise EnsembleValidationError(list(self._violations))
        return self


def validate(e: StateEnsemble) -> list[Violation]:
    """Check every ensemble invariant; empty report means valid.

    Checked: at least two states, strictly positive priors summing to one,
    and per state Hermiticity, positive semidefiniteness, and unit trace.
    """
    report: list[Violation] = []
    if e.n_states < 2:
        report.append(
            Violation(f"ensemble has {e.n_states} state(s), need at least 2",
                      residual=float(2 - e.n_states))
        )
    for j, p in enumerate(e.priors):
        if p <= 0:
            report.append(
                Violation(f"prior {j} is {p:.17g}, must be strictly positive",
                          residual=float(p), index=j)
            )
    s = float(np.sum(e.priors))
    if abs(s - 1.0) > PRIOR_SUM_ATOL:
        report.append(
            Violation(f"priors sum to {s:.17g}", residual=abs(s - 1.0))
        )
    for j, rho in enumerate(e.states):
        asym = float(np.max(np.abs(rho - rho.conj().T)))
        if asym > HERMITICITY_ATOL:
            report.append(
                Violation(f"state {j} is not Hermitian (asymmetry {asym:.3e})",
                          residual=asym, index=j)
            )
            continue  # eigenvalue checks need a Hermitian matrix
        wmin = float(np.linalg.eigvalsh(herm(rho))[0])
        if wmin < PSD_EIGENVALUE_FLOOR:
            report.append(
                Violation(f"state {j} has negative eigenvalue {wmin:.3e}",
                          residual=wmin, index=j)
            )
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > TRACE_ATOL:
            report.append(
                Violation(f"state {j} trace deviates from 1 by {abs(tr - 1.0):.3e}",
                          residual=abs(tr - 1.0), index=j)
            )
    return report


def average_state(e: StateEnsemble) -> np.ndarray:
    """Prior-weighted mixture of the ensemble states (unit trace, PSD)."""
    sig = sum(p * rho for p, rho in zip(e.priors, e.states))
    return frozen(herm(sig))


def overlaps_and_purities(e: StateEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise trace overlaps Tr[rho_j rho_k]; the diagonal holds the purities."""
    n = e.n_states
    overlaps = np.empty((n, n), dtype=np.float64)
    for j in range(n):
        for k in range(j, n):
            overlaps[j, k] = overlaps[k, j] = trace_product(e.states[j], e.states[k])
    return frozen(overlaps), frozen(overlaps.diagonal().copy())


def symmetric_qubit_pair(eta: float, theta: float) -> StateEnsemble:
    """Two equally likely qubit states of equal purity, symmetric about z.

    The states are eta * |psi><psi| + (1 - eta)/2 * identity built from the
    pure pair |psi_{1,2}> = cos(theta/2)|0> +/- sin(theta/2)|1>. eta in
    (0, 1] sets the purity (1 + eta^2)/2; theta in (0, pi/2) sets the
    separation angle.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if not 0.0 < theta < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    states = []
    for sign in (+1.0, -1.0):
        ket = np.array([c, sign * s], dtype=np.complex128)
        rho = eta * np.outer(ket, ket.conj()) + (1.0 - eta) / 2.0 * np.eye(2)
        states.append(rho)
    return StateEnsemble(states=tuple(states), priors=np.array([0.5, 0.5]))


def min_eigenvalue_of_average(e: StateEnsemble) -> float:
    """Smallest eigenvalue of the average state; positive iff it is invertible."""
    return min_eigenvalue(average_state(e))
