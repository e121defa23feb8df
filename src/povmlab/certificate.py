"""Optimality certificates for candidate discrimination measurements.

A stationary POVM satisfies, with an operator multiplier ``lam`` and a
scalar multiplier ``a`` for the inconclusive-rate constraint,

    (lam - p_j rho_j) Pi_j = 0     (j = 1..N)
    (lam - a sigma)   Pi_0 = 0

and is globally optimal whenever additionally lam - p_j rho_j >= 0 for
every j and lam - a sigma >= 0. Both multipliers are recoverable from the
candidate POVM alone: with lam = Herm(sum_j p_j rho_j Pi_j + a sigma Pi_0)
every stationarity block is affine in ``a``, so ``a`` is fit as the
one-dimensional least-squares minimizer of the summed squared residuals.
At any consistent stationary point that recovers the exact multiplier; it
also stays well conditioned when Pi_0 is (nearly) idempotent, where the
naive route of tracing a single relation divides by p_i - Tr[sigma Pi_0^2]
which is about zero. For any POVM, optimal or not, Tr[lam] - a *
inconclusive_rate bounds the success rate from above once the residuals
vanish, which gives a zero duality gap at certified optima.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import StateEnsemble, average_state
from .hermitian import frozen, herm, min_eigenvalue, trace_product
from .solver import Povm, success_metrics

logger = logging.getLogger(__name__)

# Inconclusive rate below this is treated as the no-inconclusive-outcome
# scheme, where the scalar multiplier drops out of the stationarity system.
HELSTROM_RATE_EPS = 1e-12
# Squared norm of the a-coefficients below this leaves ``a`` undetermined
# (the scalar multiplier has no influence on any stationarity block).
SINGULAR_MULTIPLIER_EPS = 1e-14

DEFAULT_TOL_EXTREMAL = 1e-8
DEFAULT_TOL_POSITIVITY = 1e-9


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

    ``optimal`` is True iff every residual is at most ``tol_extremal`` and
    every non-NaN margin is at least ``-tol_positivity``.
    """

    lam: np.ndarray
    a: float | None
    extremal_residuals: tuple[float, ...]
    positivity_margins: tuple[float, ...]
    dual_bound: float
    optimal: bool
    lambda_asymmetry: float
    tol_extremal: float
    tol_positivity: float


def multipliers_from_povm(
    e: StateEnsemble, povm: Povm
) -> tuple[np.ndarray, float | None]:
    """Reconstruct (operator, scalar) multipliers from a candidate POVM.

    With lam(a) = Herm(sum_j p_j rho_j Pi_j) + a * Herm(sigma Pi_0), every
    stationarity block is affine in ``a``:

        (lam(a) - p_j rho_j) Pi_j             (j = 1..N)
        Herm(...) Pi_0 + a (Herm(sigma Pi_0) - sigma) Pi_0

    ``a`` is the closed-form minimizer of the summed squared Frobenius
    norms, which is exact at any consistent stationary point and remains
    stable when Pi_0 is nearly idempotent. The anti-Hermitian remainder of
    the operator multiplier is logged; it vanishes only at exact
    stationarity.
    """
    lam, a, _ = _multipliers(e, povm)
    return lam, a


def _multipliers(
    e: StateEnsemble, povm: Povm
) -> tuple[np.ndarray, float | None, float]:
    """:func:`multipliers_from_povm` plus the operator multiplier's asymmetry."""
    e.require_valid()
    if povm.n_conclusive != e.n_states:
        raise ValueError(
            f"POVM has {povm.n_conclusive} conclusive elements for {e.n_states} states")
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
    return frozen(lam), a, asym


def check(
    e: StateEnsemble,
    povm: Povm,
    tol_extremal: float = DEFAULT_TOL_EXTREMAL,
    tol_positivity: float = DEFAULT_TOL_POSITIVITY,
) -> Certificate:
    """Reconstruct multipliers and test stationarity plus global optimality.

    Residual j >= 1 is ||(lam - p_j rho_j) Pi_j||_F and residual 0 is
    ||(lam - a sigma) Pi_0||_F (zero by convention for a vanishing Pi_0);
    margin j >= 1 is the smallest eigenvalue of lam - p_j rho_j and margin 0
    that of lam - a sigma. The dual bound is Tr[lam] - a * p_i, an upper
    bound on any POVM's success rate once the residuals vanish.
    """
    if tol_extremal <= 0 or tol_positivity <= 0:
        raise ValueError("certificate tolerances must be strictly positive")
    lam, a, asym = _multipliers(e, povm)
    sig = average_state(e)
    p_i = trace_product(sig, povm.inconclusive)

    residuals = []
    margins = []
    if a is None:
        pi0_norm = float(np.linalg.norm(povm.inconclusive, "fro"))
        residuals.append(0.0 if pi0_norm == 0.0
                         else float(np.linalg.norm(lam @ povm.inconclusive, "fro")))
        margins.append(math.nan)
    else:
        gap0 = lam - a * sig
        residuals.append(float(np.linalg.norm(gap0 @ povm.inconclusive, "fro")))
        margins.append(min_eigenvalue(gap0))
    for p, rho, pi in zip(e.priors, e.states, povm.conclusive):
        gap = lam - p * rho
        residuals.append(float(np.linalg.norm(gap @ pi, "fro")))
        margins.append(min_eigenvalue(gap))

    a_eff = 0.0 if a is None else a
    dual_bound = float(np.trace(lam).real - a_eff * p_i)
    optimal = all(r <= tol_extremal for r in residuals) and all(
        m >= -tol_positivity for m in margins if not math.isnan(m)
    )
    return Certificate(
        lam=lam,
        a=a,
        extremal_residuals=tuple(residuals),
        positivity_margins=tuple(margins),
        dual_bound=dual_bound,
        optimal=optimal,
        lambda_asymmetry=asym,
        tol_extremal=tol_extremal,
        tol_positivity=tol_positivity,
    )


def weak_duality_bound(cert: Certificate, inconclusive_rate: float) -> float:
    """Upper bound Tr[lam] - a * rate on the success rate of any POVM whose
    inconclusive rate is ``inconclusive_rate``, using certified multipliers."""
    if not 0.0 <= inconclusive_rate <= 1.0:
        raise ValueError("inconclusive rate must lie in [0, 1]")
    a_eff = 0.0 if cert.a is None else cert.a
    return float(np.trace(cert.lam).real - a_eff * inconclusive_rate)


def certified_gap(e: StateEnsemble, povm: Povm, cert: Certificate) -> float:
    """Duality gap |p_s - (Tr[lam] - a * p_i)| of a candidate against its
    own certificate; zero (to round-off) at certified optima."""
    m = success_metrics(e, povm)
    return abs(m.p_s - weak_duality_bound(cert, m.p_i))
