"""Optimal discrimination of mixed quantum states with a fixed fraction of
inconclusive outcomes.

Given N density matrices with priors, the solver finds the measurement
maximizing the probability of a correct guess while routing a prescribed
fraction of outcomes to an inconclusive result, sweeping the whole range
between minimum-error discrimination (no inconclusive outcomes) and the
regime where the renormalized success rate saturates its ceiling. Optimality
of any candidate measurement can be certified independently through
reconstructed Lagrange multipliers, and the ceiling has a closed form from
a single eigenvalue problem. The test suite carries the closed-form
solution of a symmetric qubit pair as an independent cross-check.
"""

from .bounds import max_relative_success
from .certificate import check
from .ensemble import EnsembleValidationError, StateEnsemble, symmetric_qubit_pair
from .fileio import FileFormatError
from .solver import InfeasibleTargetError, Povm, solve

__version__ = "0.1.0"

__all__ = [
    "EnsembleValidationError",
    "FileFormatError",
    "InfeasibleTargetError",
    "Povm",
    "StateEnsemble",
    "check",
    "max_relative_success",
    "solve",
    "symmetric_qubit_pair",
]
