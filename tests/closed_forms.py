"""Closed-form oracles for the test suite, independent of the solver.

Four routes to the paper's numbers that do not go through the solver:

- the symmetric pair of equally mixed qubits, whose optimal measurement
  family, trade-off curve and plateau are known in closed form;
- the ceiling of the renormalized success rate for qubits from the
  scalar invariants Tr[sigma^2], Tr[sigma rho_j], Tr[rho_j^2]
  (:func:`qubit_quadratic_a`), and for the symmetric equal-prior pair in
  the common purity and the overlap (:func:`prs_max_from_invariants` with
  :func:`overlaps_and_purities`);
- N symmetric pure states U^j |psi> in d = N, whose trade-off curve and
  optimal POVM come from water filling (:func:`symmetric_pure_water_filling`);
- two pure states with any priors, whose plateau onset is the least
  failure rate of unambiguous discrimination (:func:`jaeger_shimony_onset`)
  and whose optimal unambiguous measurement is known in closed form
  (:func:`jaeger_shimony_povm`).

The symmetric pair's two states are depolarized versions of pure states
tilted by +-theta from the z axis,

    rho_{1,2} = eta |psi_{1,2}><psi_{1,2}| + (1 - eta)/2 * identity,
    |psi_{1,2}(x)> = cos(x/2)|0> +- sin(x/2)|1>,

with equal priors. The optimal measurement family is parameterized by a
single angle phi in [pi/2, pi): the conclusive elements are the tilted
projectors psi_{1,2}(phi) scaled by 1/(2 sin^2(phi/2)) and the inconclusive
element is (1 - 1/tan^2(phi/2)) |0><0|, which closes to the identity as an
algebraic identity. Success and inconclusive rates then have closed forms,
the trade-off curve rises until cos(phi) = -eta cos(theta) and is flat
beyond, and the family is evaluated without any linear algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from povmlab.bounds import max_relative_success
from povmlab.ensemble import StateEnsemble, symmetric_qubit_pair
from povmlab.hermitian import frozen, herm, psd_root, trace_products
from povmlab.solver import Povm

# Quadratic root must match the eigenvalue route this closely to be selected.
ROOT_SELECTION_ATOL = 1e-8

PHI_LO = math.pi / 2.0
PHI_HI = math.pi


class InfeasibleRateError(ValueError):
    """Requested inconclusive rate is outside what the family reaches."""


class QuadraticRouteError(RuntimeError):
    """The qubit determinant quadratic has no root matching the eigenvalue route."""


@dataclass(frozen=True)
class SymmetricQubitProblem:
    """Mixing weight eta in (0, 1] and half-separation theta in (0, pi/2),
    checked by :func:`symmetric_qubit_pair`."""

    eta: float
    theta: float

    def __post_init__(self):
        self.ensemble()

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


# ---------------------------------------------------------------------------
# the ceiling from scalar invariants

def overlaps_and_purities(e: StateEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise trace overlaps Re Tr[rho_j rho_k] of the states' Hermitian
    parts; the diagonal holds the purities."""
    h = herm(e.states)
    overlaps = np.einsum("jab,kba->jk", h, h).real
    return frozen(overlaps), frozen(overlaps.diagonal().copy())


def qubit_quadratic_a(e: StateEnsemble, j: int) -> float:
    """Ceiling contribution of state ``j`` via the qubit determinant route.

    For dim 2 the condition det[a sigma - p rho] = 0 expands, using
    det M = (Tr[M]^2 - Tr[M^2]) / 2, into

        a^2 (1 - Tr[sigma^2]) - 2 a p (1 - Tr[sigma rho]) + p^2 (1 - Tr[rho^2]) = 0.

    Both roots are computed and the one matching the eigenvalue route is
    returned; the match is asserted, not assumed. The ensemble is
    validated through :func:`max_relative_success`.
    """
    if e.dim != 2:
        raise ValueError(f"the quadratic route applies to qubits only, got dim {e.dim}")
    if not 0 <= j < e.n_states:
        raise IndexError(f"state index {j} out of range for {e.n_states} states")
    reference = max_relative_success(e).per_state_a[j]

    sig = e.average_state
    if psd_root(sig).inverse[0] == 0.0:
        # a pure sigma forces every rho_j = sigma, so all coefficients vanish
        raise ValueError("the quadratic route does not determine a for a pure average state")
    rho = e.states[j]
    p = float(e.priors[j])
    c2 = 1.0 - float(trace_products(sig, sig))
    c1 = -2.0 * p * (1.0 - float(trace_products(sig, rho)))
    c0 = p * p * (1.0 - float(trace_products(rho, rho)))
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        if disc < -1e-14:
            raise QuadraticRouteError(
                f"determinant quadratic has no real root (discriminant {disc:.3e})")
        disc = 0.0
    sq = float(np.sqrt(disc))
    roots = [(-c1 + sq) / (2.0 * c2), (-c1 - sq) / (2.0 * c2)]

    matches = [r for r in roots if abs(r - reference) <= ROOT_SELECTION_ATOL]
    if not matches:
        raise QuadraticRouteError(
            f"no quadratic root within {ROOT_SELECTION_ATOL:g} of the eigenvalue "
            f"route ({reference:.17g}); roots: {roots}")
    root = min(matches, key=lambda r: abs(r - reference))
    assert abs(root - reference) <= 1e-8
    return float(root)


def prs_max_from_invariants(purity: float, overlap: float) -> float:
    """Closed-form ceiling for the symmetric equal-prior qubit pair.

    Valid for two equally pure states with Tr[rho_j^2] = purity and
    Tr[rho_1 rho_2] = overlap:

        (1 + sqrt((purity - overlap) / (2 - purity - overlap))) / 2.
    """
    if not 0.5 <= purity <= 1.0:
        raise ValueError(f"qubit purity must lie in [1/2, 1], got {purity}")
    if overlap > purity:
        raise ValueError(f"overlap {overlap} exceeds purity {purity}")
    rest = 2.0 - purity - overlap
    if rest <= 0.0:
        raise ValueError(f"2 - purity - overlap must be positive, got {rest}")
    return 0.5 * (1.0 + float(np.sqrt((purity - overlap) / rest)))


# ---------------------------------------------------------------------------
# N symmetric pure states

def _orbit(v: np.ndarray) -> list[np.ndarray]:
    """The projectors onto U^j v, j = 0 ... N-1, for U = diag(omega^k) and
    omega = exp(2 pi i / N), N = len(v)."""
    n = len(v)
    phases = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return [np.outer(u, u.conj()) for u in phases * v]


def symmetric_pure_states(c: np.ndarray) -> StateEnsemble:
    """The N states |psi_j> = U^j |psi>, j = 0 ... N-1, with equal priors in
    d = N, where U = diag(omega^k), omega = exp(2 pi i / N), and |psi> =
    sum_k c_k |k> for the unit vector ``c``."""
    n = len(c)
    return StateEnsemble(tuple(_orbit(c)), np.full(n, 1.0 / n))


def symmetric_pure_water_filling(c: np.ndarray, target_pi: float) -> np.ndarray:
    """The amplitudes x_k = min(1/sqrt(N), s/|c_k|) of the optimal covariant
    measurement of :func:`symmetric_pure_states` at inconclusive rate
    ``target_pi``, with the level s fixed by sum_k |c_k|^2 x_k^2 = (1 - t)/N.

    The measurement is Pi_j = U^j |mu><mu| U^-j with mu_k = x_k c_k/|c_k|,
    and Pi_0 = diag(1 - N x_k^2), so Tr[sigma Pi_0] = t for sigma =
    diag(|c_k|^2), and the success rate is |<mu|psi>|^2 = (sum_k |c_k|
    x_k)^2. The amplitudes of the m smallest |c_k| are capped at
    1/sqrt(N), for the least m whose level s^2 = ((1 - t) - sum of those
    |c_k|^2) / (N (N - m)) stays at or below the next |c_k|^2 / N; m = N - 1
    always does.
    """
    n = len(c)
    magnitudes = np.abs(c)
    cut = 0.0                     # sum of the m smallest |c_k|^2
    for m, level in enumerate(np.sort(magnitudes)):
        s2 = ((1.0 - target_pi) - cut) / (n * (n - m))
        if s2 <= level * level / n:
            break
        cut += level * level
    return np.minimum(1.0 / math.sqrt(n), math.sqrt(s2) / magnitudes)


def symmetric_pure_ps(c: np.ndarray, target_pi: float) -> float:
    """Optimal success rate (sum_k |c_k| x_k)^2 at inconclusive rate
    ``target_pi``: (sum_k |c_k|)^2 / N at 0, the square-root measurement's,
    and 1 - t from the plateau onset 1 - N min_k |c_k|^2 on."""
    x = symmetric_pure_water_filling(c, target_pi)
    return float(np.dot(np.abs(c), x)) ** 2


def symmetric_pure_povm(c: np.ndarray, target_pi: float) -> Povm:
    """The optimal covariant POVM of :func:`symmetric_pure_water_filling`,
    its conclusive elements in the order of the states."""
    x = symmetric_pure_water_filling(c, target_pi)
    inconclusive = np.diag(1.0 - len(c) * x * x).astype(np.complex128)
    return Povm((inconclusive, *_orbit(x * c / np.abs(c))))


# ---------------------------------------------------------------------------
# two pure states: the Jaeger-Shimony onset

def pure_pair(p1: float, s: float) -> StateEnsemble:
    """|psi_1> = |0> and |psi_2> = s|0> + sqrt(1 - s^2)|1>, with overlap
    ``s`` in [0, 1) and priors (p1, 1 - p1)."""
    psi2 = np.array([s, math.sqrt(1.0 - s * s)], dtype=np.complex128)
    return StateEnsemble((np.diag([1.0, 0.0]), np.outer(psi2, psi2)), np.array([p1, 1.0 - p1]))


def jaeger_shimony_onset(p1: float, s: float) -> float:
    """The least failure rate of unambiguous discrimination of two pure
    states with overlap ``s`` and priors (p1, 1 - p1), the plateau onset of
    :func:`pure_pair` (Jaeger & Shimony, Phys. Lett. A 197, 83 (1995)):
    2 sqrt(p1 p2) s when s <= sqrt(p_min / p_max), else p_min + p_max s^2."""
    p_min, p_max = sorted((p1, 1.0 - p1))
    if s <= math.sqrt(p_min / p_max):
        return 2.0 * math.sqrt(p_min * p_max) * s
    return p_min + p_max * s * s


def jaeger_shimony_povm(p1: float, s: float) -> Povm:
    """The measurement that reaches :func:`jaeger_shimony_onset` on
    :func:`pure_pair` in the regime s <= sqrt(p_min / p_max): Pi_1 is
    proportional to the projector onto |psi_2^perp> and Pi_2 to the one
    onto |psi_1^perp>, scaled so that state j fails with rate q_j,
    q_1 = sqrt(p2 / p1) s and q_2 = sqrt(p1 / p2) s, and Pi_0 closes them
    to the identity."""
    p2 = 1.0 - p1
    if s > math.sqrt(min(p1, p2) / max(p1, p2)):
        raise ValueError(f"overlap {s} lies beyond the regime of the two-outcome measurement")
    q1, q2 = math.sqrt(p2 / p1) * s, math.sqrt(p1 / p2) * s
    c = math.sqrt(1.0 - s * s)
    perp2 = np.array([c, -s], dtype=np.complex128)
    pi1 = (1.0 - q1) / (c * c) * np.outer(perp2, perp2)
    pi2 = (1.0 - q2) / (c * c) * np.diag([0.0, 1.0])
    return Povm((np.eye(2) - pi1 - pi2, pi1, pi2))
