"""Ceiling of the renormalized success rate and the limiting measurement.

Once enough probability is routed to the inconclusive outcome, the
renormalized success rate p_s / (1 - p_i) stops improving: its supremum
is attained when the operator multiplier degenerates to a multiple of the
average state, lam = a * sigma, and the stationarity system then forces

    det[a sigma - p_j rho_j] = 0    for at least one j,

so the ceiling is a_j = p_j * (largest eigenvalue of sigma^{-1/2} rho_j
sigma^{-1/2}) maximized over j. The conclusive elements of the limiting
measurement live in the kernel of a sigma - p_j* rho_j*. For qubits the
determinant condition is a quadratic in a_j with coefficients built from
the scalar invariants Tr[sigma^2], Tr[sigma rho_j], Tr[rho_j^2], which
gives an independent route to the same number and, for the symmetric
equal-prior pair, a closed form in the overlap and the common purity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import StateEnsemble, average_state
from .hermitian import eig_hermitian, frozen, herm, psd_root, trace_product

# sigma with smaller minimum eigenvalue cannot be inverted reliably.
SIGMA_MIN_EIGENVALUE = 1e-12
# Quadratic root must match the eigenvalue route this closely to be selected.
ROOT_SELECTION_ATOL = 1e-8
# Relative threshold below which eigenvalues of a*sigma - p*rho count as kernel.
KERNEL_RTOL = 1e-9
# Top-eigenvalue multiplicity is counted within this relative spread.
DEGENERACY_RTOL = 1e-10


class RankDeficientEnsembleError(ValueError):
    """The average state is singular, so the plateau analysis does not apply."""


class InconsistentBoundError(RuntimeError):
    """The limiting operator shows no numerical kernel at the computed ceiling."""


@dataclass(frozen=True)
class PlateauBound:
    """Per-state ceilings a_j, their maximum, and the maximizer.

    ``kernel_dimension`` is the multiplicity of the top eigenvalue of
    sigma^{-1/2} rho_j* sigma^{-1/2}, i.e. the dimension of the subspace
    the limiting conclusive element for state j* is confined to.
    """

    prs_max: float
    per_state_a: tuple[float, ...]
    argmax_state: int
    kernel_dimension: int


def _inverse_sqrt_of_average(e: StateEnsemble) -> np.ndarray:
    root = psd_root(average_state(e))
    wmin = float(root.eigenvalues[0])
    if wmin <= SIGMA_MIN_EIGENVALUE:
        raise RankDeficientEnsembleError(
            f"average state has minimum eigenvalue {wmin:.3e}; "
            f"the ceiling requires it invertible (> {SIGMA_MIN_EIGENVALUE:g})")
    # Every root value exceeds 1e-6 here, far above the pseudoinverse
    # cutoff, so the pseudoinverse is the inverse square root.
    return root.pinv_matrix()


def max_relative_success(e: StateEnsemble) -> PlateauBound:
    """Largest renormalized success rate any measurement can reach.

    a_j is p_j times the top eigenvalue of the Hermitian-congruent product
    sigma^{-1/2} rho_j sigma^{-1/2} (same spectrum as sigma^{-1} rho_j but
    numerically symmetric); the ceiling is the largest a_j.
    """
    e.require_valid()
    inv_sqrt = _inverse_sqrt_of_average(e)
    per_state = []
    kernel_dims = []
    for p, rho in zip(e.priors, e.states):
        w, _ = eig_hermitian(inv_sqrt @ rho @ inv_sqrt)
        top = float(w[-1])
        per_state.append(float(p) * top)
        mult = int(np.sum(w >= top * (1.0 - DEGENERACY_RTOL))) if top > 0 else len(w)
        kernel_dims.append(mult)
    argmax = int(np.argmax(per_state))
    return PlateauBound(
        prs_max=per_state[argmax],
        per_state_a=tuple(per_state),
        argmax_state=argmax,
        kernel_dimension=kernel_dims[argmax],
    )


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

    sig = average_state(e)
    rho = e.states[j]
    p = float(e.priors[j])
    c2 = 1.0 - trace_product(sig, sig)
    c1 = -2.0 * p * (1.0 - trace_product(sig, rho))
    c0 = p * p * (1.0 - trace_product(rho, rho))
    if c2 <= 0.0:
        # pure average state: the quadratic degenerates to a linear equation
        roots = [-c0 / c1] if c1 != 0.0 else []
    else:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            if disc < -1e-14:
                raise InconsistentBoundError(
                    f"determinant quadratic has no real root (discriminant {disc:.3e})")
            disc = 0.0
        sq = float(np.sqrt(disc))
        roots = [(-c1 + sq) / (2.0 * c2), (-c1 - sq) / (2.0 * c2)]

    matches = [r for r in roots if abs(r - reference) <= ROOT_SELECTION_ATOL]
    if not matches:
        raise InconsistentBoundError(
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


def plateau_povm_direction(e: StateEnsemble, bound: PlateauBound) -> np.ndarray:
    """Projector onto the subspace carrying the limiting conclusive element.

    The conclusive element for the maximizing state must live in the kernel
    of prs_max * sigma - p_j* rho_j*. Eigenvalues below KERNEL_RTOL of the
    operator's largest |eigenvalue| count as kernel; a vanishing operator
    (identical-states degeneracy) yields the identity.
    """
    e.require_valid()
    if len(bound.per_state_a) != e.n_states:
        raise ValueError("bound was computed for a different ensemble size")
    j = bound.argmax_state
    op = bound.prs_max * average_state(e) - float(e.priors[j]) * e.states[j]
    w, v = eig_hermitian(op)
    scale = float(np.max(np.abs(w)))
    if scale <= KERNEL_RTOL:
        return frozen(np.eye(e.dim, dtype=np.complex128))
    mask = np.abs(w) <= KERNEL_RTOL * scale
    if not np.any(mask):
        raise InconsistentBoundError(
            f"no kernel at the computed ceiling (smallest |eigenvalue| "
            f"{float(np.min(np.abs(w))):.3e} vs scale {scale:.3e})")
    vecs = v[:, mask]
    return frozen(herm(vecs @ vecs.conj().T))
