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

:func:`check_grid` certifies a whole grid of candidates in one stacked
pass, so numpy's per-call cost is paid once per grid rather than once per
candidate, and a candidate's numbers do not depend on the others in the
grid; :func:`check` is its one-point case. It is also the solver's exit
test: a settled point stops only when its certificate is optimal, and
every solver result carries the certificate it stopped with. The module
is a leaf of the package: it depends on the ensemble and Hermitian helpers
only, and uses the solver's Povm type in annotations alone.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple
from typing import TYPE_CHECKING

import numpy as np

from .ensemble import StateEnsemble, average_state
from .hermitian import frozen, herm, trace_products

if TYPE_CHECKING:
    from .solver import Povm

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


class Certificate(namedtuple("Certificate", (
        "lam a extremal_residuals positivity_margins dual_bound optimal "
        "lambda_asymmetry"))):
    """Multipliers reconstructed from a candidate POVM plus the checks on them.

    ``lam`` is the operator multiplier, a read-only (d, d) array, and
    ``a`` the scalar one, a float, or None in the no-inconclusive-outcome
    branch (it enters the stationarity system only through Pi_0). Index 0
    of the residual and margin tuples refers to the inconclusive outcome;
    ``margins[0]`` is NaN when ``a`` is None, and NaN margins are excluded
    from the optimality verdict (the corresponding condition is inactive).

    ``dual_bound`` is Tr[lam] + d delta - a p_i, with delta the magnitude
    of the most negative margin (0 when none is negative) and a = 0 when
    ``a`` is None: an upper bound on the success rate of every POVM at the
    candidate's inconclusive rate p_i. At a certified optimum it equals
    the candidate's success rate up to round-off; for any candidate,
    dual_bound - p_s bounds how far it falls short of the optimum.

    ``optimal`` is True iff every residual is at most TOL_EXTREMAL and
    every non-NaN margin is at least -TOL_POSITIVITY. The residuals and
    margins are tuples of floats, ``lambda_asymmetry`` is the float
    described at :func:`check_grid`.
    """

    __slots__ = ()


def require_matching(e: StateEnsemble, povm: Povm) -> None:
    """Raise ValueError unless the POVM has one conclusive element per state
    and the states' dimension."""
    if povm.n_conclusive != e.n_states:
        raise ValueError(
            f"POVM has {povm.n_conclusive} conclusive elements for {e.n_states} states")
    if povm.dim != e.dim:
        raise ValueError(f"POVM has dimension {povm.dim} for states of dimension {e.dim}")


def check(e: StateEnsemble, povm: Povm) -> Certificate:
    """The certificate of one candidate: :func:`check_grid` on one pair,
    raising its SingularMultiplierError."""
    outcome, = check_grid([(e, povm)])
    if isinstance(outcome, SingularMultiplierError):
        raise outcome
    return outcome


def check_grid(
    pairs: list[tuple[StateEnsemble, Povm]],
) -> list[Certificate | SingularMultiplierError]:
    """Reconstruct multipliers and test stationarity plus global optimality
    for every (ensemble, POVM) pair; the pairs share their dimension and
    number of states. Returns each pair's Certificate, or the
    SingularMultiplierError it met.

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

    All pairs go through one stacked pass (one eigvalsh for every gap
    operator), so a pair's numbers are those it gets on its own; only
    ``a`` and ``lambda_asymmetry`` are reduced pair by pair.
    """
    if not pairs:
        return []
    for e, povm in pairs:
        e.require_valid()
        require_matching(e, povm)
    if len({povm.elements.shape for _, povm in pairs}) > 1:
        raise ValueError("pairs must share the number of states and the dimension")
    sig = np.array([average_state(e) for e, _ in pairs])            # (P, d, d)
    states = np.array([e.states for e, _ in pairs])                 # (P, N, d, d)
    weights = np.array([e.priors for e, _ in pairs])[..., None, None]
    pi = np.array([povm.elements for _, povm in pairs])             # (P, N+1, d, d)
    p_i = trace_products(sig, pi[:, 0]).tolist()

    raw = (weights * (states @ pi[:, 1:])).sum(axis=1)
    spi = sig @ pi[:, 0]
    fixed, slope = herm(raw), (spi + pi[:, 0] @ sig) / 2.0
    base, lin = np.empty_like(pi), np.empty_like(pi)
    base[:, 0], base[:, 1:] = fixed, fixed[:, None] - weights * states
    lin[:, 0], lin[:, 1:] = slope - sig, slope[:, None]
    base_blocks, lin_blocks = base @ pi, lin @ pi

    outcomes: list[Certificate | SingularMultiplierError | None] = [None] * len(pairs)
    a: list[float | None] = [None] * len(pairs)
    for k in range(len(pairs)):
        if p_i[k] > HELSTROM_RATE_EPS:
            denom = float(np.vdot(lin_blocks[k], lin_blocks[k]).real)
            if denom <= SINGULAR_MULTIPLIER_EPS:
                outcomes[k] = SingularMultiplierError(
                    "rate multiplier is undetermined: it has no influence on "
                    f"any stationarity block (coefficient norm {denom:.3e})")
                continue
            a[k] = -float(np.vdot(lin_blocks[k], base_blocks[k]).real) / denom
    a_eff = np.array([0.0 if x is None else x for x in a])[:, None, None]

    raw = raw + a_eff * spi
    lam = frozen(herm(raw))
    residuals = np.linalg.norm(base_blocks + a_eff[:, None] * lin_blocks, axis=(-2, -1))
    margins = np.linalg.eigvalsh(herm(base + a_eff[:, None] * lin))[..., 0]
    margins[:, 0][[x is None for x in a]] = math.nan
    # np.nanmin without its all-NaN warning check: only margin 0 is set to NaN
    worst = np.fmin.reduce(margins, axis=1).tolist()
    largest = residuals.max(axis=1).tolist()
    traces = np.trace(lam, axis1=-2, axis2=-1).real.tolist()
    dim = sig.shape[-1]
    rows = zip(a, p_i, raw, lam, residuals.tolist(), margins.tolist(), worst, largest, traces)
    for k, (a_k, rate, raw_k, lam_k, res, marg, low, high, tr) in enumerate(rows):
        if outcomes[k] is not None:
            continue
        asym = float(np.linalg.norm(raw_k - raw_k.conj().T, "fro")) / 2.0
        if asym > 1e-8:
            logger.info("multiplier operator asymmetry %.3e (far from stationary)", asym)
        outcomes[k] = Certificate(
            lam=lam_k,
            a=a_k,
            extremal_residuals=tuple(res),
            positivity_margins=tuple(marg),
            dual_bound=tr - (a_k or 0.0) * rate + dim * max(0.0, -low),
            optimal=high <= TOL_EXTREMAL and low >= -TOL_POSITIVITY,
            lambda_asymmetry=asym,
        )
    return outcomes
