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
starts from the previous sweep's ``a``. This is the iteration of Jezek,
Rehacek and Fiurasek, PRA 65, 060301(R) (2002). Iterated from a maximally
uninformative start it converges, empirically linearly, to a stationary
POVM; global optimality is checked separately by the certificate module.

:func:`solve` accelerates the iteration with Anderson mixing of the recent
sweeps. An extrapolated POVM keeps completeness and the inconclusive rate
exactly but may leave the PSD cone, so it is used only when every element
stays PSD within POVM_PSD_FLOOR. The per-sweep history it reports is the
fixed-point residual, the largest element change one sweep makes to the
point it was applied to.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .ensemble import StateEnsemble, Violation, average_state, check_hermitian_psd
from .hermitian import DEFAULT_PINV_CUTOFF, PsdRoot, frozen, herm, psd_root, trace_product

logger = logging.getLogger(__name__)

# Element asymmetry and positivity floor, and relative closure tolerance
# for POVMs; looser than the state-level ones because elements are products
# of iterates.
POVM_HERMITICITY_ATOL = 1e-9
POVM_PSD_FLOOR = -1e-9
POVM_CLOSURE_RTOL = 1e-9
# Inconclusive rate this close to 1 leaves no conclusive outcomes to renormalize.
RELATIVE_RATE_EPS = 1e-12

# The multiplier search stops once the predicted inconclusive rate is this
# close to the target, or after this many rate evaluations.
RATE_TOLERANCE = 1e-14
RATE_MAX_EVALUATIONS = 200

_BRACKET_CAP = 2.0**60

# Sweeps of history the Anderson extrapolation in ``solve`` mixes.
ANDERSON_DEPTH = 5


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
        if not all(np.all(np.isfinite(m)) for m in elems):
            raise ValueError("POVM entries must be finite")
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


def require_matching(e: StateEnsemble, povm: Povm) -> None:
    """Raise ValueError unless the POVM has one conclusive element per state
    and the states' dimension."""
    if povm.n_conclusive != e.n_states:
        raise ValueError(
            f"POVM has {povm.n_conclusive} conclusive elements for {e.n_states} states")
    if povm.dim != e.dim:
        raise ValueError(f"POVM has dimension {povm.dim} for states of dimension {e.dim}")


def require_target(target_pi: float) -> None:
    """Raise ValueError unless ``target_pi`` lies in [0, 1) and leaves a
    conclusive fraction of more than RELATIVE_RATE_EPS to renormalize."""
    if not 0.0 <= target_pi < 1.0:
        raise ValueError(f"target inconclusive rate must lie in [0, 1), got {target_pi}")
    if target_pi >= 1.0 - RELATIVE_RATE_EPS:
        raise ValueError(
            f"target inconclusive rate {target_pi:.17g} leaves no conclusive "
            f"fraction to renormalize")


def povm_violations(povm: Povm) -> list[Violation]:
    """Report Hermiticity, PSD and completeness violations of a candidate
    POVM; a non-Hermitian element is left out of the completeness sum."""
    report: list[Violation] = []
    total = np.zeros((povm.dim, povm.dim), dtype=np.complex128)
    for k, m in enumerate(povm.elements):
        if check_hermitian_psd(report, "element", k, m,
                               POVM_HERMITICITY_ATOL, POVM_PSD_FLOOR):
            total = total + m
    closure = float(np.linalg.norm(total - np.eye(povm.dim), "fro"))
    if closure > POVM_CLOSURE_RTOL * povm.dim:
        report.append(Violation(
            f"elements sum to identity only within {closure:.3e}",
            residual=closure))
    return report


@dataclass(frozen=True)
class SolverConfig:
    """Iteration knobs; the tolerances are strictly positive. The multiplier
    search's bounds are the module constants RATE_TOLERANCE and
    RATE_MAX_EVALUATIONS."""

    max_iterations: int = 500
    povm_tolerance: float = 1e-12          # max Frobenius change per sweep
    pinv_cutoff: float = DEFAULT_PINV_CUTOFF

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        for name in ("povm_tolerance", "pinv_cutoff"):
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
    eigendecomposition each, over the whole solve. ``change_history`` holds
    the fixed-point residual of every sweep: the largest Frobenius-norm
    difference between an element of the sweep's output and of the point
    it swept, which is an extrapolated one after an accepted Anderson step;
    ``final_change`` is its last entry. ``converged`` requires both that
    residual and the rate residual within their tolerances.
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
#
# Inside the solver a POVM is one stacked (N+1, d, d) array, element 0 the
# inconclusive one; a Povm is built only for the caller.

@dataclass(frozen=True)
class _EnsembleTerms:
    """Ensemble operators that every sweep of one solve reuses."""

    sigma: np.ndarray
    states: np.ndarray       # Herm(rho_j), stacked
    weighted: np.ndarray     # p_j^2 Herm(rho_j), stacked


@dataclass(frozen=True)
class _SweepTerms:
    """Operators fixed during one sweep's multiplier search."""

    sandwiches: np.ndarray       # p_j^2 rho_j Pi_j rho_j, stacked
    conclusive_sum: np.ndarray   # sum of the sandwiches
    inconclusive: np.ndarray     # sigma Pi_0 sigma
    pair: np.ndarray             # sigma and sigma Pi_0 sigma, stacked


def _stacked(povm: Povm) -> np.ndarray:
    return np.stack(povm.elements)


def _ensemble_terms(e: StateEnsemble) -> _EnsembleTerms:
    states = herm(np.stack(e.states))
    weighted = (e.priors * e.priors)[:, None, None] * states
    return _EnsembleTerms(average_state(e), states, weighted)


def _sweep_terms(fixed: _EnsembleTerms, x: np.ndarray) -> _SweepTerms:
    sig = fixed.sigma
    sandwiches = herm(fixed.weighted @ x[1:] @ fixed.states)
    m0 = herm(sig @ x[0] @ sig)
    return _SweepTerms(sandwiches, herm(sandwiches.sum(axis=0)), m0, np.stack((sig, m0)))


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
    st, mt = v.conj().T @ terms.pair @ v
    xx = np.outer(x, x)
    # q = Tr[S~ X M~ X] = Tr[(xx o M~) S~], and Tr[A B] = vdot(A, B) for
    # Hermitian A
    q = np.vdot(xx * mt, st).real
    pair = s[:, None] + s
    g = -xx / np.where(pair > 0, pair, 1.0)
    # d q / d a = 2 Re Tr[S~ (dX/da) M~ X] = 4a Re Tr[(G o M~) (M~ X S~)]
    dq = (4.0 * a) * np.vdot(g * mt, (mt * x) @ st).real
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
    a = _BRACKET_CAP is infeasible. The search stops at residual
    RATE_TOLERANCE or after RATE_MAX_EVALUATIONS evaluations and returns the
    multiplier with the smallest residual seen.
    """
    lo, rate_lo = 0.0, 0.0
    hi, rate_hi = math.inf, math.inf
    a = start if start else 1.0
    best: _Multiplier | None = None
    evaluations = 0
    while evaluations < RATE_MAX_EVALUATIONS:
        ev = _predicted_rate(terms, a, cfg.pinv_cutoff)
        evaluations += 1
        residual = abs(ev.rate - target_pi)
        if best is None or residual < best.residual:
            best = _Multiplier(a, ev.root, residual, 0)
        if residual <= RATE_TOLERANCE:
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
    if best.residual > RATE_TOLERANCE:
        logger.debug(
            "multiplier search stopped at residual %.3e (tolerance %.3e)",
            best.residual, RATE_TOLERANCE)
    return best._replace(evaluations=evaluations)


class _Anderson:
    """Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 1715
    (2011)) for a fixed-point map G, on the real view of the flattened
    iterate.

    It keeps the last ``depth`` differences of the residuals f = G(x) - x
    and of the map values G(x). With F and D those differences as columns,
    the next iterate is G(x) - D gamma for the gamma that minimizes
    |f - F gamma|. Its weights on the recent map values sum to 1, so it
    keeps every affine constraint that all of them meet: completeness and
    Tr[sigma Pi_0] = target here. Positivity is the caller's to check.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.last: tuple[np.ndarray, np.ndarray] | None = None   # f and G(x)
        self.reset()

    def reset(self) -> None:
        self.df: list[np.ndarray] = []
        self.dg: list[np.ndarray] = []

    def extrapolate(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray | None:
        """Next iterate from ``x`` and ``gx`` = G(x); None without history."""
        f = (gx - x).view(np.float64).ravel()
        g = gx.view(np.float64).ravel()
        if self.last is not None:
            self.df = [*self.df[1 - self.depth:], f - self.last[0]]
            self.dg = [*self.dg[1 - self.depth:], g - self.last[1]]
        self.last = (f, g)
        if not self.df:
            return None
        gamma = np.linalg.lstsq(np.array(self.df).T, f, rcond=None)[0]
        return (g - gamma @ np.array(self.dg)).view(np.complex128).reshape(gx.shape)


# ---------------------------------------------------------------------------
# public operations

def initial_povm(e: StateEnsemble, target_pi: float) -> Povm:
    """Maximally uninformative start satisfying completeness and the target.

    Pi_0 = target * identity and the conclusive elements split the rest
    evenly, so Tr[sigma Pi_0] equals the target exactly.
    """
    require_target(target_pi)
    eye = np.eye(e.dim, dtype=np.complex128)
    share = (1.0 - target_pi) / e.n_states
    elements = (target_pi * eye,) + tuple(share * eye for _ in range(e.n_states))
    return Povm(elements)


def predicted_inconclusive_rate(
    e: StateEnsemble, povm: Povm, a: float, cfg: SolverConfig | None = None
) -> float:
    """Inconclusive rate the next sweep would produce with multiplier ``a``."""
    if a < 0:
        raise ValueError("the scalar multiplier must be nonnegative")
    cfg = cfg or SolverConfig()
    terms = _sweep_terms(_ensemble_terms(e), _stacked(povm))
    return _predicted_rate(terms, a, cfg.pinv_cutoff).rate


def solve_multiplier(
    e: StateEnsemble, povm: Povm, target_pi: float, cfg: SolverConfig | None = None
) -> tuple[float, np.ndarray]:
    """Scalar multiplier whose sweep reproduces the target inconclusive rate,
    together with the matching operator multiplier."""
    if not 0.0 < target_pi < 1.0:
        raise ValueError(f"target inconclusive rate must lie in (0, 1), got {target_pi}")
    cfg = cfg or SolverConfig()
    fit = _solve_multiplier(_sweep_terms(_ensemble_terms(e), _stacked(povm)), target_pi, cfg)
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
    require_target(target_pi)
    new, root, fit = _sweep(_ensemble_terms(e), _stacked(povm), target_pi,
                            cfg or SolverConfig())
    return Povm(tuple(new)), frozen(root.root_matrix()), None if fit is None else fit.a


def _sweep(
    fixed: _EnsembleTerms, x: np.ndarray, target_pi: float, cfg: SolverConfig,
    start: float | None = None,
) -> tuple[np.ndarray, PsdRoot, _Multiplier | None]:
    """One sweep of the stacked POVM ``x``; the multiplier search starts at
    ``start`` when given. Returns the new stacked POVM, the root of lam^2,
    and the search outcome (None at zero target)."""
    terms = _sweep_terms(fixed, x)
    fit: _Multiplier | None
    if target_pi == 0.0:
        fit, root = None, psd_root(terms.conclusive_sum, cfg.pinv_cutoff)
        laminv = root.pinv_matrix()
        new_inconclusive = np.zeros_like(fixed.sigma)
    else:
        fit = _solve_multiplier(terms, target_pi, cfg, start)
        root = fit.root
        laminv = root.pinv_matrix()
        new_inconclusive = (fit.a * fit.a) * (laminv @ terms.inconclusive @ laminv)

    new = np.empty_like(x)
    new[1:] = herm(laminv @ terms.sandwiches @ laminv)
    deficit = np.eye(x.shape[-1]) - new_inconclusive - new[1:].sum(axis=0)
    new[0] = herm(new_inconclusive + deficit)
    return new, root, fit


def success_metrics(e: StateEnsemble, povm: Povm) -> SuccessMetrics:
    """Success rate, inconclusive rate, and the renormalized success rate.

    p_s = sum_j p_j Tr[Pi_j rho_j]; p_i = Tr[sigma Pi_0];
    p_rs = p_s / (1 - p_i), undefined when the inconclusive rate saturates.
    """
    require_matching(e, povm)
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
    """Iterate the sweep G to a fixed point at the requested inconclusive rate.

    The iterate x_k is Anderson-accelerated (:class:`_Anderson`, depth
    ANDERSON_DEPTH): the next one is the extrapolation from the recent
    sweeps when all its elements are PSD within POVM_PSD_FLOOR (one stacked
    eigvalsh) and the sweep's multiplier search met RATE_TOLERANCE, and the
    plain sweep's output G(x_k) otherwise, which also restarts the mixing.
    Stops when the fixed-point residual, the largest Frobenius-norm
    difference between elements of G(x_k) and x_k, drops to the configured
    tolerance, or at the iteration cap (reported through ``converged``, not
    an exception). The result is the last sweep's output G(x_k) with that
    sweep's multipliers, never an extrapolation. Each multiplier search
    starts from the previous sweep's multiplier. A sweep from an
    extrapolation that finds the target infeasible is dropped and the solve
    resumes from the last sweep's output; only a sweep from that output
    raises InfeasibleTargetError.
    """
    cfg = cfg or SolverConfig()
    e.require_valid()
    require_target(target_pi)

    fixed = _ensemble_terms(e)
    x = plain = _stacked(initial_povm(e, target_pi))
    mixer = _Anderson(ANDERSON_DEPTH)
    history: list[float] = []
    a: float | None = None
    residual = 0.0
    evaluations = 0
    while len(history) < cfg.max_iterations:
        try:
            new, root, fit = _sweep(fixed, x, target_pi, cfg, a)
        except InfeasibleTargetError as exc:
            if x is plain:
                raise
            logger.debug("sweep from an extrapolation infeasible (%s); "
                         "resuming from the last sweep", exc)
            x = plain
            mixer.reset()
            continue
        if fit is not None:
            a, residual = fit.a, fit.residual
            evaluations += fit.evaluations
        change = float(np.linalg.norm(new - x, axis=(1, 2)).max())
        history.append(change)
        guess = mixer.extrapolate(x, new) if change > cfg.povm_tolerance else None
        x = plain = new
        verdict = "none"
        if guess is not None:
            if (residual <= RATE_TOLERANCE
                    and np.linalg.eigvalsh(guess)[:, 0].min() >= POVM_PSD_FLOOR):
                x, verdict = guess, "accepted"
            else:
                mixer.reset()
                verdict = "rejected"
        logger.debug("sweep %d: residual %.3e, a=%s, rate residual %.3e, "
                     "extrapolation %s", len(history), change, a, residual, verdict)
        if change <= cfg.povm_tolerance:
            break
    else:
        logger.warning(
            "no fixed point within %d sweeps (last change %.3e)",
            cfg.max_iterations, history[-1])

    povm = Povm(tuple(plain))
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
                   and residual <= RATE_TOLERANCE),
        rate_residual=residual,
        rate_evaluations=evaluations,
        change_history=tuple(history),
    )
