"""Closed-form oracle for a symmetric pair of equally mixed qubits.

The two states are depolarized versions of pure states tilted by +-theta
from the z axis,

    rho_{1,2} = eta |psi_{1,2}><psi_{1,2}| + (1 - eta)/2 * identity,
    |psi_{1,2}(x)> = cos(x/2)|0> +- sin(x/2)|1>,

with equal priors. The optimal measurement family is parameterized by a
single angle phi in [pi/2, pi): the conclusive elements are the tilted
projectors psi_{1,2}(phi) scaled by 1/(2 sin^2(phi/2)) and the inconclusive
element is (1 - 1/tan^2(phi/2)) |0><0|, which closes to the identity as an
algebraic identity. Success and inconclusive rates then have closed forms,
the trade-off curve rises until cos(phi) = -eta cos(theta) and is flat
beyond, and everything here is evaluated without any linear algebra, which
makes the module an independent oracle for the iterative solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import StateEnsemble, symmetric_qubit_pair
from .solver import Povm

PHI_LO = math.pi / 2.0
PHI_HI = math.pi


class InfeasibleRateError(ValueError):
    """Requested inconclusive rate is outside what the family reaches."""


@dataclass(frozen=True)
class SymmetricQubitProblem:
    """Mixing weight eta in (0, 1] and half-separation theta in (0, pi/2)."""

    eta: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0.0 < self.theta < math.pi / 2.0:
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta}")

    def ensemble(self) -> StateEnsemble:
        return symmetric_qubit_pair(self.eta, self.theta)


def _check_phi(phi: float) -> float:
    if not PHI_LO <= phi < PHI_HI:
        raise ValueError(f"phi must lie in [pi/2, pi), got {phi}")
    return float(phi)


def _tilted_projector(x: float) -> np.ndarray:
    c, s = math.cos(x / 2.0), math.sin(x / 2.0)
    vec = np.array([c, s], dtype=np.complex128)
    return np.outer(vec, vec.conj())


def analytic_povm(p: SymmetricQubitProblem, phi: float) -> Povm:
    """Measurement family member at angle ``phi``.

    Conclusive elements psi_{1,2}(phi) / (2 sin^2(phi/2)); inconclusive
    coefficient 1 - 1/tan^2(phi/2) written as -cos(phi)/sin^2(phi/2) so the
    tangent never blows up near phi = pi. At phi = pi/2 the inconclusive
    element vanishes and the family degenerates to a projective measurement.
    """
    phi = _check_phi(phi)
    s2 = math.sin(phi / 2.0) ** 2
    scale = 1.0 / (2.0 * s2)
    pi1 = scale * _tilted_projector(phi)
    pi2 = scale * _tilted_projector(-phi)
    coeff = -math.cos(phi) / s2
    pi0 = np.zeros((2, 2), dtype=np.complex128)
    pi0[0, 0] = coeff
    return Povm((pi0, pi1, pi2))


def analytic_prs(p: SymmetricQubitProblem, phi: float) -> float:
    """Renormalized success rate along the family:
    (1 + eta cos(phi - theta)) / (2 (1 + eta cos(theta) cos(phi)))."""
    phi = _check_phi(phi)
    num = 1.0 + p.eta * math.cos(phi - p.theta)
    den = 2.0 * (1.0 + p.eta * math.cos(p.theta) * math.cos(phi))
    return num / den


def analytic_pi(p: SymmetricQubitProblem, phi: float) -> float:
    """Inconclusive rate along the family:
    (1/2)(1 + eta cos(theta))(1 - 1/tan^2(phi/2)), zero at phi = pi/2 and
    approaching (1 + eta cos(theta))/2 from below as phi -> pi."""
    phi = _check_phi(phi)
    s2 = math.sin(phi / 2.0) ** 2
    return 0.5 * (1.0 + p.eta * math.cos(p.theta)) * (-math.cos(phi) / s2)


def family_pi_supremum(p: SymmetricQubitProblem) -> float:
    """Least upper bound (1 + eta cos(theta))/2 of the family's inconclusive
    rate; not attained for any phi in the range."""
    return 0.5 * (1.0 + p.eta * math.cos(p.theta))


def phi_for_pi(p: SymmetricQubitProblem, target_pi: float) -> float:
    """Angle whose inconclusive rate equals ``target_pi``.

    Closed-form inverse: tan^2(phi/2) = 1 / (1 - 2 t / (1 + eta cos theta)).
    """
    sup = family_pi_supremum(p)
    if not 0.0 <= target_pi < sup:
        raise InfeasibleRateError(
            f"inconclusive rate {target_pi} outside the family range [0, {sup:.17g})")
    t2 = 1.0 / (1.0 - target_pi / sup)
    return 2.0 * math.atan(math.sqrt(t2))


def phi_max_and_prs_max(p: SymmetricQubitProblem) -> tuple[float, float]:
    """Angle where the trade-off curve flattens and its plateau value.

    cos(phi_max) = -eta cos(theta); the plateau value reduces to
    (1 + eta sin(theta) / sqrt(1 - eta^2 cos^2(theta))) / 2.
    """
    phi_max = math.acos(-p.eta * math.cos(p.theta))
    prs_max = 0.5 * (
        1.0 + p.eta * math.sin(p.theta)
        / math.sqrt(1.0 - (p.eta * math.cos(p.theta)) ** 2)
    )
    return phi_max, prs_max


def plateau_onset_pi(p: SymmetricQubitProblem) -> float:
    """Inconclusive rate at which the trade-off curve flattens; equals
    analytic_pi at the flattening angle and simplifies to eta cos(theta)."""
    return p.eta * math.cos(p.theta)


def envelope_prs(p: SymmetricQubitProblem, target_pi: float) -> float:
    """Optimal trade-off curve: the rising branch of the family below the
    plateau onset and the flat plateau value at or beyond it (the flat part
    extends past the family's own rate range, where extra inconclusive
    weight changes nothing renormalized)."""
    if not 0.0 <= target_pi < 1.0:
        raise ValueError(f"inconclusive rate must lie in [0, 1), got {target_pi}")
    _, prs_max = phi_max_and_prs_max(p)
    if target_pi >= plateau_onset_pi(p):
        return prs_max
    return analytic_prs(p, phi_for_pi(p, target_pi))
