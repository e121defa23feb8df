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
from .hermitian import frozen, herm, min_eigenvalue, trace_product
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
    stationarity block is affine in ``a``:

        (lam(a) - p_j rho_j) Pi_j             (j = 1..N)
        Herm(...) Pi_0 + a (Herm(sigma Pi_0) - sigma) Pi_0

    ``a`` is the closed-form minimizer of the summed squared Frobenius
    norms. The anti-Hermitian remainder of the operator multiplier is
    reported as ``lambda_asymmetry``; it vanishes only at exact
    stationarity.

    Residual j >= 1 is ||(lam - p_j rho_j) Pi_j||_F and residual 0 is
    ||(lam - a sigma) Pi_0||_F (zero by convention for a vanishing Pi_0);
    margin j >= 1 is the smallest eigenvalue of lam - p_j rho_j and margin 0
    that of lam - a sigma.
    """
    e.require_valid()
    require_matching(e, povm)
    sig = average_state(e)
    pi0 = povm.inconclusive
    p_i = trace_product(sig, pi0)

    raw = sum(
        p * (rho @ pi)
        for p, rho, pi in zip(e.priors, e.states, povm.conclusive)
    )
    a: float | None
    if p_i <= HELSTROM_RATE_EPS:
        a = None
    else:
        herm_raw = herm(raw)
        herm_spi = (sig @ pi0 + pi0 @ sig) / 2.0
        blocks = [(herm_raw @ pi0, (herm_spi - sig) @ pi0)]
        blocks += [
            ((herm_raw - p * rho) @ pi, herm_spi @ pi)
            for p, rho, pi in zip(e.priors, e.states, povm.conclusive)
        ]
        denom = sum(float(np.vdot(lin, lin).real) for _, lin in blocks)
        if denom <= SINGULAR_MULTIPLIER_EPS:
            raise SingularMultiplierError(
                "rate multiplier is undetermined: it has no influence on "
                f"any stationarity block (coefficient norm {denom:.3e})")
        cross = -sum(float(np.vdot(lin, base).real) for base, lin in blocks)
        a = cross / denom
        raw = raw + a * (sig @ pi0)

    lam = herm(raw)
    asym = float(np.linalg.norm(raw - raw.conj().T, "fro")) / 2.0
    if asym > 1e-8:
        logger.info("multiplier operator asymmetry %.3e (far from stationary)", asym)

    residuals = []
    margins = []
    if a is None:
        pi0_norm = float(np.linalg.norm(pi0, "fro"))
        residuals.append(0.0 if pi0_norm == 0.0
                         else float(np.linalg.norm(lam @ pi0, "fro")))
        margins.append(math.nan)
    else:
        gap0 = lam - a * sig
        residuals.append(float(np.linalg.norm(gap0 @ pi0, "fro")))
        margins.append(min_eigenvalue(gap0))
    for p, rho, pi in zip(e.priors, e.states, povm.conclusive):
        gap = lam - p * rho
        residuals.append(float(np.linalg.norm(gap @ pi, "fro")))
        margins.append(min_eigenvalue(gap))

    finite = [m for m in margins if not math.isnan(m)]
    delta = max(0.0, -min(finite))
    a_eff = 0.0 if a is None else a
    return Certificate(
        lam=frozen(lam),
        a=a,
        extremal_residuals=tuple(residuals),
        positivity_margins=tuple(margins),
        dual_bound=float(np.trace(lam).real - a_eff * p_i + e.dim * delta),
        optimal=(all(r <= TOL_EXTREMAL for r in residuals)
                 and all(m >= -TOL_POSITIVITY for m in finite)),
        lambda_asymmetry=asym,
    )
