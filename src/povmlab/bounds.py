"""Ceiling of the renormalized success rate and the limiting measurement.

Once enough probability is routed to the inconclusive outcome, the
renormalized success rate p_s / (1 - p_i) stops improving: its supremum
is attained when the operator multiplier degenerates to a multiple of the
average state, lam = a * sigma, and the stationarity system then forces

    det[a sigma - p_j rho_j] = 0    for at least one j,

so the ceiling is a_j = p_j * (largest eigenvalue of sigma^{-1/2} rho_j
sigma^{-1/2}) maximized over j. Since p_j rho_j <= sigma, every state lives
in the support of sigma, so sigma need not be invertible: sigma^{-1/2} is
the pseudoinverse root ``StateEnsemble.average_root`` (one decomposition
per ensemble), the inverse root on supp sigma and zero on its kernel. For N
linearly independent pure states in a larger space the ceiling is exactly
1, the unambiguous limit. The conclusive elements of the limiting
measurement live in the kernel of a sigma - p_j* rho_j* within supp sigma,
and :func:`_measure_plateau` finds them from the ensemble alone; its
result is ``StateEnsemble.plateau_measurement``, kept on the ensemble. For
qubits the determinant condition is also a quadratic in a_j with
coefficients built from the scalar invariants Tr[sigma^2], Tr[sigma rho_j],
Tr[rho_j^2], and for the symmetric equal-prior pair it has a closed form
in the overlap and the common purity. Neither route is needed here; the tests
check the eigenvalue route against both (``tests/closed_forms.py``).
"""

from __future__ import annotations

import logging
from collections import namedtuple

import numpy as np

from .ensemble import StateEnsemble
from .hermitian import frozen, herm, trace_product

logger = logging.getLogger(__name__)

# Relative threshold below which eigenvalues of a*sigma - p*rho count as kernel.
KERNEL_RTOL = 1e-9
# Top-eigenvalue multiplicity is counted within this relative spread.
DEGENERACY_RTOL = 1e-10


class PlateauBound(namedtuple(
        "PlateauBound", "prs_max per_state_a argmax_state kernel_dimension")):
    """Per-state ceilings a_j (``per_state_a``, a tuple of floats), their
    maximum ``prs_max``, and the maximizer ``argmax_state``.

    ``kernel_dimension`` is the multiplicity of the top eigenvalue of
    sigma^{-1/2} rho_j* sigma^{-1/2}, i.e. the dimension of the subspace
    the limiting conclusive element for state j* is confined to.
    """

    __slots__ = ()


def max_relative_success(e: StateEnsemble) -> PlateauBound:
    """Largest renormalized success rate any measurement can reach.

    a_j is p_j times the top eigenvalue of the Hermitian-congruent product
    sigma^{-1/2} rho_j sigma^{-1/2} (same spectrum as sigma^{-1} rho_j but
    numerically symmetric); the ceiling is the largest a_j.
    """
    e.require_valid()
    inv_sqrt = e.average_root.pinv_matrix()
    spectra = np.linalg.eigvalsh(herm(inv_sqrt @ e.states @ inv_sqrt))   # (N, d), ascending
    per_state = e.priors * spectra[:, -1]
    argmax = int(np.argmax(per_state))
    w = spectra[argmax]
    top = float(w[-1])
    mult = int(np.sum(w >= top * (1.0 - DEGENERACY_RTOL))) if top > 0 else len(w)
    return PlateauBound(
        prs_max=float(per_state[argmax]),
        per_state_a=tuple(per_state.tolist()),
        argmax_state=argmax,
        kernel_dimension=mult,
    )


class PlateauMeasurement(namedtuple("PlateauMeasurement", "bound rate conclusive")):
    """The ensemble's ceiling ``bound``, a :class:`PlateauBound`, conclusive
    elements X_j that reach it (``conclusive``, a read-only (N, d, d) array,
    zero for a state below the ceiling), and their inconclusive rate
    ``rate`` = 1 - sum_j Tr[sigma X_j].

    Mixed with the always-inconclusive measurement, (1 - t)/(1 - rate) X_j
    and the identity's remainder reach the ceiling at every rate t >= rate.
    When one state attains the ceiling, ``rate`` is the plateau onset;
    when several tie, it is an upper bound on the onset. ``rate`` and
    ``conclusive`` are None when the limiting operator shows no kernel.
    """

    __slots__ = ()


def _measure_plateau(e: StateEnsemble) -> PlateauMeasurement:
    """``StateEnsemble.plateau_measurement``, computed: the measurement that
    reaches the ceiling from :func:`max_relative_success` at the least
    inconclusive rate found.

    P_RS = prs_max needs every Pi_j inside the kernel of the PSD operator
    prs_max * sigma - p_j rho_j, which within supp sigma is nonzero only for
    a state that attains the ceiling. P_j is the projector onto that
    kernel within supp sigma: eigenvalues below KERNEL_RTOL of the
    operator's largest |eigenvalue| count as kernel, and a vanishing
    operator (identical-states degeneracy) gives the projector onto supp
    sigma. A state whose operator has a kernel attains the ceiling. When
    one does, X_j* = P_j*, which carries the most conclusive weight a
    single element can, so ``rate`` = 1 - Tr[sigma P_j*] is the onset. When
    several tie, X_j = c P_j with c = 1 / lambda_max(sum_j P_j), the common
    scale that keeps the elements' sum at most I; the least rate over all
    scalings is a small SDP that is not solved here. If the operator of
    j* shows no kernel, a warning is logged and ``rate`` is None.
    """
    bound = max_relative_success(e)
    sigma = e.average_state
    root = e.average_root
    support = root.vectors[:, root.inverse > 0.0]
    ops = bound.prs_max * sigma - e.priors[:, None, None] * e.states
    w, v = np.linalg.eigh(herm(support.conj().T @ ops @ support))
    scale = np.abs(w).max(axis=-1, keepdims=True)
    kernel = (np.abs(w) <= KERNEL_RTOL * scale) | (scale <= KERNEL_RTOL)
    j = bound.argmax_state
    if not kernel[j].any():
        logger.warning(
            "no plateau measurement: no kernel at the computed ceiling (smallest "
            "|eigenvalue| %.3e vs scale %.3e)", float(np.min(np.abs(w[j]))), float(scale[j, 0]))
        return PlateauMeasurement(bound, None, None)
    vecs = support @ v
    projectors = herm((vecs * kernel[:, None, :]) @ vecs.conj().swapaxes(-1, -2))
    tied = int(kernel.any(axis=-1).sum())
    if tied > 1:
        projectors = projectors / np.linalg.norm(projectors.sum(axis=0), 2)
    rate = 1.0 - trace_product(sigma, projectors.sum(axis=0))
    return PlateauMeasurement(bound, max(rate, 0.0), frozen(projectors))
