"""Closed-form reference answers the benchmark checks povmlab against.

Written from the formulas alone and importing nothing from povmlab, so a
fault in the package cannot hide in its own oracle. The problem is the
symmetric pair of equally mixed qubits

    rho_{1,2} = eta |psi_{1,2}><psi_{1,2}| + (1 - eta)/2 I,
    |psi_{1,2}> = cos(theta/2)|0> +- sin(theta/2)|1>,   priors 1/2,

whose optimal measurement at inconclusive rate P_I is a one-angle family
(phi in [pi/2, pi)). The renormalized success rate P_RS = P_S / (1 - P_I)
rises along that family until cos(phi) = -eta cos(theta), i.e. until
P_I = eta cos(theta) (the plateau onset), and stays at the plateau value
beyond it. ``embed`` lifts the pair to dimension 2k as U (rho (x) I/k) U+,
which keeps P_S, P_I, the optimum and the ceiling unchanged.
"""

from __future__ import annotations

import math

import numpy as np


def onset(eta: float, theta: float) -> float:
    """Inconclusive rate at which the trade-off curve turns flat."""
    return eta * math.cos(theta)


def plateau(eta: float, theta: float) -> float:
    """Ceiling of P_RS: (1 + eta sin(theta) / sqrt(1 - eta^2 cos^2(theta))) / 2."""
    c = eta * math.cos(theta)
    return 0.5 * (1.0 + eta * math.sin(theta) / math.sqrt(1.0 - c * c))


def family_pi(eta: float, theta: float, phi: float) -> float:
    """P_I of the family member at ``phi``: (1 + eta cos theta)/2 * (1 - cot^2(phi/2))."""
    return 0.5 * (1.0 + eta * math.cos(theta)) * (-math.cos(phi) / math.sin(phi / 2.0) ** 2)


def family_prs(eta: float, theta: float, phi: float) -> float:
    """P_RS of the family member at ``phi``."""
    return (1.0 + eta * math.cos(phi - theta)) / (
        2.0 * (1.0 + eta * math.cos(theta) * math.cos(phi)))


def phi_at(eta: float, theta: float, pi_target: float) -> float:
    """Family angle with inconclusive rate ``pi_target`` (below the onset)."""
    sup = 0.5 * (1.0 + eta * math.cos(theta))
    return 2.0 * math.atan(math.sqrt(1.0 / (1.0 - pi_target / sup)))


def envelope(eta: float, theta: float, pi_target: float) -> float:
    """Optimal P_RS at inconclusive rate ``pi_target``."""
    if pi_target >= onset(eta, theta):
        return plateau(eta, theta)
    return family_prs(eta, theta, phi_at(eta, theta, pi_target))


def _ket(x: float) -> np.ndarray:
    return np.array([math.cos(x / 2.0), math.sin(x / 2.0)], dtype=np.complex128)


def pair_states(eta: float, theta: float) -> list[np.ndarray]:
    """The two density matrices of the pair."""
    return [eta * np.outer(k, k.conj()) + 0.5 * (1.0 - eta) * np.eye(2)
            for k in (_ket(theta), _ket(-theta))]


def family_povm(phi: float) -> list[np.ndarray]:
    """Optimal measurement at angle ``phi``, inconclusive element first.

    Conclusive elements |psi(+-phi)><psi(+-phi)| / (2 sin^2(phi/2)) and the
    inconclusive element (1 - cot^2(phi/2)) |0><0|; they close to I.
    """
    s2 = math.sin(phi / 2.0) ** 2
    pi0 = np.zeros((2, 2), dtype=np.complex128)
    pi0[0, 0] = -math.cos(phi) / s2
    return [pi0] + [np.outer(k, k.conj()) / (2.0 * s2) for k in (_ket(phi), _ket(-phi))]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary from the QR factorization of a Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def embed(op: np.ndarray, k: int, u: np.ndarray, scale: float) -> np.ndarray:
    """U (op (x) scale * I_k) U+, Hermitian part."""
    m = u @ np.kron(op, scale * np.eye(k)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def embedded_pair(eta: float, theta: float, k: int, u: np.ndarray) -> list[np.ndarray]:
    """The pair lifted to dimension 2k: U (rho (x) I/k) U+ (unit trace kept)."""
    return [embed(rho, k, u, 1.0 / k) for rho in pair_states(eta, theta)]


def embedded_povm(phi: float, k: int, u: np.ndarray) -> list[np.ndarray]:
    """The family member lifted to dimension 2k: U (Pi (x) I_k) U+."""
    return [embed(m, k, u, 1.0) for m in family_povm(phi)]


def random_povm(dim: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """n random PSD elements S^{-1/2} A_j S^{-1/2} with A_j Wishart and S = sum A_j."""
    mats = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(mats))
    s = (v / np.sqrt(w)) @ v.conj().T
    return [(s @ m @ s + (s @ m @ s).conj().T) / 2.0 for m in mats]


def rates(states: list[np.ndarray], povm: list[np.ndarray]) -> tuple[float, float]:
    """(P_S, P_I) for equal priors: P_S = sum_j Tr[Pi_j rho_j] / 2, P_I = Tr[sigma Pi_0]."""
    p = 1.0 / len(states)
    sigma = p * sum(states)
    p_s = sum(p * np.trace(m @ rho).real for m, rho in zip(povm[1:], states))
    return float(p_s), float(np.trace(sigma @ povm[0]).real)


def ceiling(states: list[np.ndarray]) -> float:
    """Largest p_j * top eigenvalue of sigma^{-1/2} rho_j sigma^{-1/2}, equal priors."""
    p = 1.0 / len(states)
    w, v = np.linalg.eigh(p * sum(states))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return max(p * float(np.linalg.eigvalsh(inv_sqrt @ rho @ inv_sqrt)[-1]) for rho in states)
