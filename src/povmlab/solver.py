"""Fixed-point solver for the optimal measurement at a fixed inconclusive rate.

The success rate sum_j p_j Tr[Pi_j rho_j] is maximized over (N+1)-outcome
POVMs subject to completeness and to Tr[sigma Pi_0] = target, where outcome
0 is the inconclusive one and sigma is the average state. Stationarity of
the Lagrangian with an operator multiplier ``lam`` (completeness) and a
scalar multiplier ``a`` (inconclusive-rate constraint) gives extremal
equations that can be symmetrized into a positivity-preserving map:

    Pi_j  <-  p_j^2 lam^{-1} rho_j Pi_j rho_j lam^{-1}     (j = 1..N)
    Pi_0  <-  a^2   lam^{-1} sigma Pi_0 sigma lam^{-1}

with lam = [sum_j p_j^2 rho_j Pi_j rho_j + a^2 sigma Pi_0 sigma]^{1/2}
chosen so the map preserves completeness, and ``a`` tuned every sweep so
the updated POVM keeps the requested inconclusive rate. That search is a
Newton iteration on the predicted rate, safeguarded by a bracket, and
starts from the previous sweep's ``a``. Iterating this map from a
maximally uninformative start converges (empirically exponentially fast)
to a stationary POVM; global optimality is checked separately by the
certificate module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ensemble import StateEnsemble, average_state
from .hermitian import (DEFAULT_PINV_CUTOFF, PsdRoot, frozen, herm, psd_root,
                        sqrt_psd, trace_product)

logger = logging.getLogger(__name__)

# Element-positivity floor and relative closure tolerance for POVMs; looser
# than the state-level floors because elements are products of iterates.
POVM_PSD_FLOOR = -1e-9
POVM_CLOSURE_RTOL = 1e-9
# Inconclusive rate this close to 1 leaves no conclusive outcomes to renormalize.
RELATIVE_RATE_EPS = 1e-12

_BRACKET_CAP = 2.0**60


class InfeasibleTargetError(RuntimeError):
    """The requested inconclusive rate is beyond what the update can reach."""

    def __init__(self, target: float, supremum: float):
        self.target = target
        self.supremum = supremum
        super().__init__(
            f"inconclusive rate {target:.17g} unreachable; "
            f"multiplier sweep saturated at {supremum:.17g}"
        )


class RelativeRateUndefinedError(ValueError):
    """The conclusive fraction vanished, so the renormalized rate is undefined."""


@dataclass(frozen=True)
class Povm:
    """N+1 measurement elements; index 0 is the inconclusive outcome.

    Invariants (maintained by the solver, checked by :func:`povm_violations`):
    every element PSD within the floor, and the elements sum to the identity
    within round-off.
    """

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.asarray(m, dtype=np.complex128) for m in self.elements)
        if len(elems) < 2:
            raise ValueError("a POVM needs at least two elements")
        dim = elems[0].shape[0] if elems[0].ndim == 2 else -1
        for k, m in enumerate(elems):
            if m.ndim != 2 or m.shape != (dim, dim):
                raise ValueError(f"element {k} has shape {m.shape}, expected ({dim}, {dim})")
        object.__setattr__(self, "elements", tuple(frozen(m) for m in elems))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_conclusive(self) -> int:
        return len(self.elements) - 1

    @property
    def inconclusive(self) -> np.ndarray:
        return self.elements[0]

    @property
    def conclusive(self) -> tuple[np.ndarray, ...]:
        return self.elements[1:]


def povm_violations(povm: Povm) -> list:
    """Report PSD and completeness violations of a candidate POVM."""
    from .ensemble import Violation  # local import keeps module deps acyclic

    report = []
    total = np.zeros((povm.dim, povm.dim), dtype=np.complex128)
    for k, m in enumerate(povm.elements):
        asym = float(np.max(np.abs(m - m.conj().T)))
        if asym > 1e-9:
            report.append(Violation(
                f"element {k} is not Hermitian (asymmetry {asym:.3e})",
                residual=asym, index=k))
            continue
        wmin = float(np.linalg.eigvalsh(herm(m))[0])
        if wmin < POVM_PSD_FLOOR:
            report.append(Violation(
                f"element {k} has negative eigenvalue {wmin:.3e}",
                residual=wmin, index=k))
        total = total + m
    closure = float(np.linalg.norm(total - np.eye(povm.dim), "fro"))
    if closure > POVM_CLOSURE_RTOL * povm.dim:
        report.append(Violation(
            f"elements sum to identity only within {closure:.3e}",
            residual=closure))
    return report


@dataclass(frozen=True)
class SolverConfig:
    """Iteration and root-finding knobs; all tolerances strictly positive."""

    max_iterations: int = 500
    povm_tolerance: float = 1e-12          # max Frobenius change per sweep
    # The two multiplier-search bounds keep their historical names: the
    # residual on the inconclusive rate at which the safeguarded search
    # stops, and the most rate evaluations one search may make.
    bisection_tolerance: float = 1e-14
    bisection_max_steps: int = 200
    pinv_cutoff: float = DEFAULT_PINV_CUTOFF

    def __post_init__(self):
        if self.max_iterations < 1 or self.bisection_max_steps < 1:
            raise ValueError("iteration counts must be positive")
        for name in ("povm_tolerance", "bisection_tolerance", "pinv_cutoff"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class SuccessMetrics:
    p_s: float
    p_i: float
    p_rs: float


@dataclass(frozen=True)
class SolveResult:
    """Converged POVM with its metrics, multipliers, and diagnostics.

    ``a`` is None when the solve ran at zero inconclusive rate, where the
    scalar multiplier plays no role. ``rate_residual`` is the final sweep's
    |predicted inconclusive rate - target| (0 at zero target), and
    ``rate_evaluations`` counts the predicted-rate evaluations, one
    eigendecomposition each, over the whole solve. ``converged`` requires
    both the POVM change and the rate residual within their tolerances.
    """

    povm: Povm
    p_s: float
    p_i: float
    p_rs: float
    lam: np.ndarray
    a: float | None
    iterations: int
    final_change: float
    converged: bool
    rate_residual: float
    rate_evaluations: int
    change_history: tuple[float, ...] = field(repr=False, default=())


# ---------------------------------------------------------------------------
# sweep internals

@dataclass(frozen=True)
class _EnsembleTerms:
    """Ensemble operators that every sweep of one solve reuses."""

    sigma: np.ndarray
    states: tuple[np.ndarray, ...]       # Herm(rho_j)
    weighted: tuple[np.ndarray, ...]     # p_j^2 Herm(rho_j)


@dataclass(frozen=True)
class _SweepTerms:
    """Operators fixed during one sweep's multiplier search."""

    sigma: np.ndarray
    sandwiches: tuple[np.ndarray, ...]   # p_j^2 rho_j Pi_j rho_j
    conclusive_sum: np.ndarray           # sum of the sandwiches
    inconclusive: np.ndarray             # sigma Pi_0 sigma


def _ensemble_terms(e: StateEnsemble) -> _EnsembleTerms:
    states = tuple(herm(rho) for rho in e.states)
    weighted = tuple(p * p * rho for p, rho in zip(e.priors, states))
    return _EnsembleTerms(average_state(e), states, weighted)


def _sweep_terms(fixed: _EnsembleTerms, povm: Povm) -> _SweepTerms:
    sig = fixed.sigma
    sandwiches = tuple(
        herm(w @ pi @ rho)
        for w, rho, pi in zip(fixed.weighted, fixed.states, povm.conclusive)
    )
    ksum = herm(sum(sandwiches))
    m0 = herm(sig @ povm.inconclusive @ sig)
    return _SweepTerms(sig, sandwiches, ksum, m0)


class _RateEval(NamedTuple):
    """Predicted inconclusive rate at one multiplier, its derivative in the
    multiplier, and the square root of lam^2 both came from."""

    rate: float
    slope: float
    root: PsdRoot


class _Multiplier(NamedTuple):
    """Outcome of one sweep's multiplier search."""

    a: float
    root: PsdRoot          # psd_root of lam^2 at ``a``
    residual: float        # |predicted rate - target| at ``a``
    evaluations: int       # predicted-rate evaluations the search made


def _predicted_rate(terms: _SweepTerms, a: float, cutoff: float) -> _RateEval:
    """Inconclusive rate the sweep would produce with multiplier ``a``, and
    its derivative in ``a``, worked out in the eigenbasis of lam^2 without
    forming lam^+ itself.

    With X = lam^+ and M = sigma Pi_0 sigma the rate is a^2 Tr[sigma X M X].
    X = f(lam^2) for f(w) = w^{-1/2} on the support, and lam^2 moves by
    2a M da, so by the Daleckii-Krein formula dX/da in the eigenbasis is
    G o (2a M~), where G_ij = (f(w_i) - f(w_j)) / (w_i - w_j)
    = -x_i x_j / (s_i + s_j) with s_i the root values and x_i their inverses.
    """
    root = psd_root(terms.conclusive_sum + (a * a) * terms.inconclusive, cutoff)
    v, s, x = root.vectors, root.root, root.inverse
    vh = v.conj().T
    mt = vh @ terms.inconclusive @ v
    st = vh @ terms.sigma @ v
    q = np.einsum("ij,j,ji,i->", st, x, mt, x).real
    pair = s[:, None] + s
    g = -np.outer(x, x) / np.where(pair > 0, pair, 1.0)
    # d q / d a = 2 Re Tr[S~ (dX/da) M~ X]
    dq = (4.0 * a) * np.einsum("ki,ij,jk,k->", st, g * mt, mt, x).real
    return _RateEval(float((a * a) * q), float(2.0 * a * q + (a * a) * dq), root)


def _solve_multiplier(
    terms: _SweepTerms, target_pi: float, cfg: SolverConfig,
    start: float | None = None,
) -> _Multiplier:
    """Safeguarded Newton search for the multiplier matching the target rate.

    The rate is 0 at a = 0 and grows (empirically monotonically, checked
    and logged) toward a saturation value as a -> inf. The search starts at
    ``start``, the previous sweep's multiplier, or cold at a = 1, and keeps
    a bracket [lo, hi] around the root, starting from [0, inf). A Newton
    step that leaves the bracket is replaced by doubling while hi is
    unknown and by bisection once it is. A target still out of reach at
    a = _BRACKET_CAP is infeasible. The search stops at the configured
    residual or after ``bisection_max_steps`` evaluations and returns the
    multiplier with the smallest residual seen.
    """
    lo, rate_lo = 0.0, 0.0
    hi, rate_hi = math.inf, math.inf
    a = start if start else 1.0
    best: _Multiplier | None = None
    evaluations = 0
    while evaluations < cfg.bisection_max_steps:
        ev = _predicted_rate(terms, a, cfg.pinv_cutoff)
        evaluations += 1
        residual = abs(ev.rate - target_pi)
        if best is None or residual < best.residual:
            best = _Multiplier(a, ev.root, residual, 0)
        if residual <= cfg.bisection_tolerance:
            break
        if not rate_lo - 1e-12 <= ev.rate <= rate_hi + 1e-12:
            logger.warning(
                "inconclusive rate is not monotone in the multiplier "
                "(%.17g at a=%.3g, outside [%.17g, %.17g] on [%.3g, %.3g]); "
                "the search may settle on a non-principal root",
                ev.rate, a, rate_lo, rate_hi, lo, hi)
        if ev.rate < target_pi:
            if a >= _BRACKET_CAP:
                raise InfeasibleTargetError(target=target_pi, supremum=ev.rate)
            lo, rate_lo = a, ev.rate
        else:
            hi, rate_hi = a, ev.rate
        step = a - (ev.rate - target_pi) / ev.slope if ev.slope > 0 else math.nan
        if lo < step < hi:
            a = min(step, _BRACKET_CAP)
        elif hi == math.inf:
            a = min(2.0 * a, _BRACKET_CAP)
        else:
            a = 0.5 * (lo + hi)
            if a == lo or a == hi:  # bracket exhausted at float resolution
                break
    if best.residual > cfg.bisection_tolerance:
        logger.debug(
            "multiplier search stopped at residual %.3e (tolerance %.3e)",
            best.residual, cfg.bisection_tolerance)
    return best._replace(evaluations=evaluations)


# ---------------------------------------------------------------------------
# public operations

def initial_povm(e: StateEnsemble, target_pi: float) -> Povm:
    """Maximally uninformative start satisfying completeness and the target.

    Pi_0 = target * identity and the conclusive elements split the rest
    evenly, so Tr[sigma Pi_0] equals the target exactly.
    """
    if not 0.0 <= target_pi < 1.0:
        raise ValueError(f"target inconclusive rate must lie in [0, 1), got {target_pi}")
    eye = np.eye(e.dim, dtype=np.complex128)
    share = (1.0 - target_pi) / e.n_states
    elements = (target_pi * eye,) + tuple(share * eye for _ in range(e.n_states))
    return Povm(elements)


def multiplier_operator(e: StateEnsemble, povm: Povm, a: float) -> np.ndarray:
    """Operator multiplier for a given scalar multiplier: the PSD square root
    of sum_j p_j^2 rho_j Pi_j rho_j + a^2 sigma Pi_0 sigma."""
    if a < 0:
        raise ValueError("the scalar multiplier must be nonnegative")
    terms = _sweep_terms(_ensemble_terms(e), povm)
    return sqrt_psd(terms.conclusive_sum + (a * a) * terms.inconclusive)


def predicted_inconclusive_rate(
    e: StateEnsemble, povm: Povm, a: float, cfg: SolverConfig | None = None
) -> float:
    """Inconclusive rate the next sweep would produce with multiplier ``a``."""
    if a < 0:
        raise ValueError("the scalar multiplier must be nonnegative")
    cfg = cfg or SolverConfig()
    return _predicted_rate(_sweep_terms(_ensemble_terms(e), povm), a, cfg.pinv_cutoff).rate


def solve_multiplier(
    e: StateEnsemble, povm: Povm, target_pi: float, cfg: SolverConfig | None = None
) -> tuple[float, np.ndarray]:
    """Scalar multiplier whose sweep reproduces the target inconclusive rate,
    together with the matching operator multiplier."""
    if not 0.0 < target_pi < 1.0:
        raise ValueError(f"target inconclusive rate must lie in (0, 1), got {target_pi}")
    cfg = cfg or SolverConfig()
    fit = _solve_multiplier(_sweep_terms(_ensemble_terms(e), povm), target_pi, cfg)
    return fit.a, frozen(fit.root.root_matrix())


def iterate_once(
    e: StateEnsemble, povm: Povm, target_pi: float, cfg: SolverConfig | None = None
) -> tuple[Povm, np.ndarray, float | None]:
    """One symmetrized sweep; returns the new POVM and the multipliers used.

    Every new element is a congruence transform of a PSD operator, hence
    PSD. Completeness holds on the support of the operator multiplier;
    whatever identity weight falls outside that support carries zero
    probability for every state and is folded into the inconclusive
    element, restoring exact completeness. At zero target the inconclusive
    element is exactly that fold-in (zero for a full-support multiplier).
    """
    if not 0.0 <= target_pi < 1.0:
        raise ValueError(f"target inconclusive rate must lie in [0, 1), got {target_pi}")
    new, root, fit = _sweep(_ensemble_terms(e), povm, target_pi, cfg or SolverConfig())
    return new, frozen(root.root_matrix()), None if fit is None else fit.a


def _sweep(
    fixed: _EnsembleTerms, povm: Povm, target_pi: float, cfg: SolverConfig,
    start: float | None = None,
) -> tuple[Povm, PsdRoot, _Multiplier | None]:
    """One sweep; the multiplier search starts at ``start`` when given.
    Returns the new POVM, the root of lam^2, and the search outcome (None
    at zero target)."""
    terms = _sweep_terms(fixed, povm)
    fit: _Multiplier | None
    if target_pi == 0.0:
        fit, root = None, psd_root(terms.conclusive_sum, cfg.pinv_cutoff)
        laminv = root.pinv_matrix()
        new_inconclusive = np.zeros((povm.dim, povm.dim), dtype=np.complex128)
    else:
        fit = _solve_multiplier(terms, target_pi, cfg, start)
        root = fit.root
        laminv = root.pinv_matrix()
        new_inconclusive = (fit.a * fit.a) * (laminv @ terms.inconclusive @ laminv)

    new_conclusive = [herm(laminv @ s @ laminv) for s in terms.sandwiches]
    deficit = np.eye(povm.dim) - new_inconclusive - sum(new_conclusive)
    new_inconclusive = herm(new_inconclusive + deficit)
    new = Povm((new_inconclusive, *new_conclusive))
    return new, root, fit


def success_metrics(e: StateEnsemble, povm: Povm) -> SuccessMetrics:
    """Success rate, inconclusive rate, and the renormalized success rate.

    p_s = sum_j p_j Tr[Pi_j rho_j]; p_i = Tr[sigma Pi_0];
    p_rs = p_s / (1 - p_i), undefined when the inconclusive rate saturates.
    """
    if povm.n_conclusive != e.n_states:
        raise ValueError(
            f"POVM has {povm.n_conclusive} conclusive elements for {e.n_states} states")
    p_s = sum(
        p * trace_product(rho, pi)
        for p, rho, pi in zip(e.priors, e.states, povm.conclusive)
    )
    p_i = trace_product(average_state(e), povm.inconclusive)
    if p_i >= 1.0 - RELATIVE_RATE_EPS:
        raise RelativeRateUndefinedError(
            f"inconclusive rate {p_i:.17g} leaves no conclusive fraction")
    return SuccessMetrics(float(p_s), float(p_i), float(p_s / (1.0 - p_i)))


def solve(
    e: StateEnsemble, target_pi: float, cfg: SolverConfig | None = None
) -> SolveResult:
    """Iterate the sweep to a fixed point at the requested inconclusive rate.

    Stops when the largest Frobenius-norm change across elements drops to
    the configured tolerance, or at the iteration cap (reported through
    ``converged``, not an exception). Each sweep's multiplier search starts
    from the previous sweep's multiplier. The returned multipliers are the
    ones used in the final sweep.
    """
    cfg = cfg or SolverConfig()
    e.require_valid()
    if not 0.0 <= target_pi < 1.0:
        raise ValueError(f"target inconclusive rate must lie in [0, 1), got {target_pi}")
    if target_pi >= 1.0 - RELATIVE_RATE_EPS:
        raise ValueError(
            f"target inconclusive rate {target_pi:.17g} leaves no conclusive "
            f"fraction to renormalize")

    fixed = _ensemble_terms(e)
    povm = initial_povm(e, target_pi)
    history: list[float] = []
    a: float | None = None
    residual = 0.0
    evaluations = 0
    for sweep in range(1, cfg.max_iterations + 1):
        new, root, fit = _sweep(fixed, povm, target_pi, cfg, a)
        if fit is not None:
            a, residual = fit.a, fit.residual
            evaluations += fit.evaluations
        change = max(
            float(np.linalg.norm(n - o, "fro"))
            for n, o in zip(new.elements, povm.elements)
        )
        history.append(change)
        povm = new
        logger.debug("sweep %d: change %.3e, a=%s, rate residual %.3e",
                     sweep, change, a, residual)
        if change <= cfg.povm_tolerance:
            break
    else:
        logger.warning(
            "no fixed point within %d sweeps (last change %.3e)",
            cfg.max_iterations, history[-1])

    metrics = success_metrics(e, povm)
    return SolveResult(
        povm=povm,
        p_s=metrics.p_s,
        p_i=metrics.p_i,
        p_rs=metrics.p_rs,
        lam=frozen(root.root_matrix()),
        a=a,
        iterations=len(history),
        final_change=history[-1],
        converged=(history[-1] <= cfg.povm_tolerance
                   and residual <= cfg.bisection_tolerance),
        rate_residual=residual,
        rate_evaluations=evaluations,
        change_history=tuple(history),
    )
