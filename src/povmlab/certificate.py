"""Optimality certificates for candidate discrimination measurements.

At inconclusive rate p_i the best success rate is a semidefinite program
whose dual (Eldar, PRA 67, 042309 (2003)) is

    minimize Tr[lam] - a p_i   subject to   lam >= p_j rho_j (j = 1..N),
                                            lam >= a sigma,

so any dual-feasible pair (lam, a) bounds the success rate of every POVM
at that rate from above (weak duality). A POVM is optimal iff it is
stationary for a dual-feasible pair,

    (lam - p_j rho_j) Pi_j = 0     (j = 1..N)
    (lam - a sigma)   Pi_0 = 0,

and then the bound equals its success rate. Both multipliers are
recoverable from the candidate POVM alone: with lam = Herm(sum_j p_j rho_j
Pi_j + a sigma Pi_0) every stationarity block is affine in ``a``, so ``a``
is fit as the one-dimensional least-squares minimizer of the summed
squared residuals. At any consistent stationary point that recovers the
exact multiplier; it also stays well conditioned when Pi_0 is (nearly)
idempotent, where the naive route of tracing a single relation divides by
p_i - Tr[sigma Pi_0^2] which is about zero.

For any candidate, lam + delta I with -delta the most negative positivity
margin (delta = 0 when none is negative) is dual feasible, so its
objective Tr[lam] + d delta - a p_i is an upper bound on the success rate
at the candidate's rate that a non-optimal candidate cannot meet.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import StateEnsemble, average_state
from .hermitian import frozen, herm, trace_product
from .solver import Povm, require_matching

logger = logging.getLogger(__name__)

# Inconclusive rate below this is treated as the no-inconclusive-outcome
# scheme, where the scalar multiplier drops out of the stationarity system.
HELSTROM_RATE_EPS = 1e-12
# Squared norm of the a-coefficients below this leaves ``a`` undetermined
# (the scalar multiplier has no influence on any stationarity block).
SINGULAR_MULTIPLIER_EPS = 1e-14

# A candidate is certified optimal when every stationarity residual is at
# most TOL_EXTREMAL and every positivity margin at least -TOL_POSITIVITY.
TOL_EXTREMAL = 1e-8
TOL_POSITIVITY = 1e-9


class SingularMultiplierError(RuntimeError):
    """The scalar equation for the rate multiplier is degenerate."""


@dataclass(frozen=True)
class Certificate:
    """Multipliers reconstructed from a candidate POVM plus the checks on them.

    ``a`` is None in the no-inconclusive-outcome branch (it enters the
    stationarity system only through Pi_0). Index 0 of the residual and
    margin tuples refers to the inconclusive outcome; ``margins[0]`` is NaN
    when ``a`` is None, and NaN margins are excluded from the optimality
    verdict (the corresponding condition is inactive).

    ``dual_bound`` is Tr[lam] + d delta - a p_i, with delta the magnitude
    of the most negative margin (0 when none is negative) and a = 0 when
    ``a`` is None: an upper bound on the success rate of every POVM at the
    candidate's inconclusive rate p_i. At a certified optimum it equals
    the candidate's success rate up to round-off; for any candidate,
    dual_bound - p_s bounds how far it falls short of the optimum.

    ``optimal`` is True iff every residual is at most TOL_EXTREMAL and
    every non-NaN margin is at least -TOL_POSITIVITY.
    """

    lam: np.ndarray
    a: float | None
    extremal_residuals: tuple[float, ...]
    positivity_margins: tuple[float, ...]
    dual_bound: float
    optimal: bool
    lambda_asymmetry: float


def check(e: StateEnsemble, povm: Povm) -> Certificate:
    """Reconstruct multipliers and test stationarity plus global optimality.

    With lam(a) = Herm(sum_j p_j rho_j Pi_j) + a * Herm(sigma Pi_0), every
    gap operator (lam - a sigma for outcome 0, lam - p_k rho_k for outcome
    k >= 1) is base_k + a lin_k, and so is its stationarity block, the gap
    times Pi_k. ``a`` is the closed-form minimizer of the blocks' summed
    squared Frobenius norms. The anti-Hermitian remainder of the operator
    multiplier is reported as ``lambda_asymmetry``; it vanishes only at
    exact stationarity.

    Residual k is the Frobenius norm of block k and margin k the smallest
    eigenvalue of gap k; in the no-inconclusive-outcome branch a = 0 in
    both and margin 0 is NaN.
    """
    e.require_valid()
    require_matching(e, povm)
    sig = average_state(e)
    pi = povm.elements
    p_i = trace_product(sig, pi[0])

    weights = e.priors[:, None, None]
    raw = (weights * (e.states @ pi[1:])).sum(axis=0)
    spi = sig @ pi[0]
    base = herm(raw) - np.concatenate(([np.zeros_like(sig)], weights * e.states))
    lin = (spi + pi[0] @ sig) / 2.0 - np.concatenate(([sig], np.zeros_like(e.states)))
    base_blocks, lin_blocks = np.stack((base, lin)) @ pi

    a: float | None = None
    if p_i > HELSTROM_RATE_EPS:
        denom = float(np.vdot(lin_blocks, lin_blocks).real)
        if denom <= SINGULAR_MULTIPLIER_EPS:
            raise SingularMultiplierError(
                "rate multiplier is undetermined: it has no influence on "
                f"any stationarity block (coefficient norm {denom:.3e})")
        a = -float(np.vdot(lin_blocks, base_blocks).real) / denom
    a_eff = 0.0 if a is None else a

    raw = raw + a_eff * spi
    lam = herm(raw)
    asym = float(np.linalg.norm(raw - raw.conj().T, "fro")) / 2.0
    if asym > 1e-8:
        logger.info("multiplier operator asymmetry %.3e (far from stationary)", asym)

    residuals = np.linalg.norm(base_blocks + a_eff * lin_blocks, axis=(-2, -1))
    margins = np.linalg.eigvalsh(herm(base + a_eff * lin))[:, 0]
    if a is None:
        margins[0] = math.nan
    worst = float(np.nanmin(margins))
    return Certificate(
        lam=frozen(lam),
        a=a,
        extremal_residuals=tuple(residuals.tolist()),
        positivity_margins=tuple(margins.tolist()),
        dual_bound=float(np.trace(lam).real - a_eff * p_i + e.dim * max(0.0, -worst)),
        optimal=bool(residuals.max() <= TOL_EXTREMAL and worst >= -TOL_POSITIVITY),
        lambda_asymmetry=asym,
    )
