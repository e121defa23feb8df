"""Discrimination problem data: the states with their priors, and the
measurements on them.

A :class:`StateEnsemble` holds N density matrices, as one read-only
(N, d, d) array, and their priors; a :class:`Povm` holds the N+1 elements
of a measurement on them, outcome 0 the inconclusive one, as another. The
constructors enforce only structure (square matrices of one common
dimension, one prior per state, finite entries); the physics invariants
of an ensemble are checked by :func:`validate`, which returns a report
instead of raising so that callers can inspect files of unknown quality.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .hermitian import PsdRoot, frozen, herm, operator_stack, psd_root

if TYPE_CHECKING:
    from .bounds import PlateauMeasurement

# Asymmetry above this is a genuine error, below it is round-off.
HERMITICITY_ATOL = 1e-12
# Eigenvalues above this floor count as nonnegative; separates real
# negativity from round-off at dimensions up to a few dozen.
PSD_EIGENVALUE_FLOOR = -1e-10
PRIOR_SUM_ATOL = 1e-12
TRACE_ATOL = 1e-10


class Violation(namedtuple("Violation", "message residual index", defaults=(None,))):
    """One failed invariant: its ``message``, the measured ``residual``
    (a float) and the ``index`` of the offending state or element, None
    when the invariant concerns the whole set."""

    __slots__ = ()

    def __str__(self) -> str:
        return self.message


class EnsembleValidationError(ValueError):
    """Raised when an operation requires a valid ensemble and got violations."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(v.message for v in violations))


class _ReadOnly:
    """Base of the data types: assigning or deleting any attribute raises
    AttributeError, and pickling and copying call the constructor on the
    attributes a subclass names in ``_fields``, so a copy is read-only too.
    Instances compare and hash by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class StateEnsemble(_ReadOnly):
    """N candidate states with strictly positive priors summing to one.

    ``states`` may be given as a sequence of matrices or one stacked array;
    it is kept, like ``priors``, as a read-only copy: ``states`` as an
    (N, d, d) complex array, ``priors`` as an (N,) float array. An ensemble
    is immutable and compares and hashes by identity.
    """

    _fields = ("states", "priors")

    def __init__(self, states, priors):
        states = operator_stack(states, "ensemble")
        priors = frozen(np.array(priors, dtype=np.float64))
        if len(states) < 1:
            raise ValueError("ensemble needs at least one state")
        if priors.ndim != 1 or priors.size != len(states):
            raise ValueError(
                f"got {priors.size} priors for {len(states)} states"
            )
        if not np.isfinite(priors).all():
            raise ValueError("ensemble entries must be finite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    def __repr__(self) -> str:
        return f"StateEnsemble(states={self.states!r}, priors={self.priors!r})"

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        # States and priors are read-only, so one report serves every caller.
        return tuple(validate(self))

    @cached_property
    def average_state(self) -> np.ndarray:
        """Prior-weighted mixture of the ensemble states (unit trace, PSD), as
        a read-only array computed on the first read only."""
        sig = sum(p * rho for p, rho in zip(self.priors, self.states))
        return frozen(herm(sig))

    @cached_property
    def average_root(self) -> PsdRoot:
        """:func:`hermitian.psd_root` of :attr:`average_state`, read-only and
        computed on the first read only."""
        return PsdRoot(*map(frozen, psd_root(self.average_state)))

    @cached_property
    def plateau_measurement(self) -> PlateauMeasurement:
        """The measurement that reaches the ceiling from
        :func:`bounds.max_relative_success` at the least inconclusive rate
        found (:func:`bounds._measure_plateau`). Read-only and computed on
        the first read only, like :attr:`average_root`, so its warning is
        logged once per ensemble object; an invalid ensemble raises on every
        read, since no exception is kept."""
        from . import bounds   # imported late: bounds imports this module
        return bounds._measure_plateau(self)

    def require_valid(self) -> "StateEnsemble":
        """Raise :class:`EnsembleValidationError` unless :func:`validate` is
        clean; the report is computed on the first call only."""
        if self._violations:
            raise EnsembleValidationError(list(self._violations))
        return self


class Povm(_ReadOnly):
    """N+1 measurement elements; index 0 is the inconclusive outcome.

    ``elements`` may be given as a sequence of matrices or one stacked
    array; it is kept as a read-only complex (N+1, d, d) copy. A POVM is
    immutable and compares and hashes by identity.

    Invariants (maintained by the solver, checked by
    :func:`solver.povm_violations` against the solver's floors): every
    element PSD within the floor, and the elements sum to the identity
    within round-off.
    """

    _fields = ("elements",)

    def __init__(self, elements):
        elements = operator_stack(elements, "POVM")
        if len(elements) < 2:
            raise ValueError("a POVM needs at least two elements")
        object.__setattr__(self, "elements", elements)

    def __repr__(self) -> str:
        return f"Povm(elements={self.elements!r})"

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    @property
    def n_conclusive(self) -> int:
        return len(self.elements) - 1

    @property
    def inconclusive(self) -> np.ndarray:
        return self.elements[0]

    @property
    def conclusive(self) -> np.ndarray:
        return self.elements[1:]


def hermitian_psd_checks(name: str, stack: np.ndarray, atol: float,
                         floor: float) -> list[tuple[bool, Violation | None]]:
    """Per matrix k of ``stack`` (called ``name k``): whether it lies within
    ``atol`` of Hermitian, and its violation: the asymmetry when it does
    not, else a smallest eigenvalue below ``floor``, else None. The
    eigenvalues of the whole stack come from one call."""
    asyms = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).tolist()
    lows = np.linalg.eigvalsh(herm(stack))[:, 0].tolist()
    checks: list[tuple[bool, Violation | None]] = []
    for k, (asym, wmin) in enumerate(zip(asyms, lows)):
        if asym > atol:
            checks.append((False, Violation(
                f"{name} {k} is not Hermitian (asymmetry {asym:.3e})",
                residual=asym, index=k)))
        elif wmin < floor:
            checks.append((True, Violation(
                f"{name} {k} has negative eigenvalue {wmin:.3e}",
                residual=wmin, index=k)))
        else:
            checks.append((True, None))
    return checks


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
    for j, p in enumerate(e.priors.tolist()):
        if p <= 0:
            report.append(
                Violation(f"prior {j} is {p:.17g}, must be strictly positive",
                          residual=p, index=j)
            )
    s = float(np.sum(e.priors))
    if abs(s - 1.0) > PRIOR_SUM_ATOL:
        report.append(
            Violation(f"priors sum to {s:.17g}", residual=abs(s - 1.0))
        )
    checks = hermitian_psd_checks("state", e.states, HERMITICITY_ATOL, PSD_EIGENVALUE_FLOOR)
    traces = np.trace(e.states, axis1=-2, axis2=-1).tolist()
    for j, (tr, (hermitian, violation)) in enumerate(zip(traces, checks)):
        if violation is not None:
            report.append(violation)
        if not hermitian:
            continue  # the trace check needs a Hermitian matrix
        if abs(tr - 1.0) > TRACE_ATOL:
            report.append(
                Violation(f"state {j} trace deviates from 1 by {abs(tr - 1.0):.3e}",
                          residual=abs(tr - 1.0), index=j)
            )
    return report


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
    return StateEnsemble(states=states, priors=np.array([0.5, 0.5]))

