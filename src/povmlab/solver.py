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
POVM; whether that POVM is optimal is the certificate module's test.

:func:`solve_grid` runs the iteration on a grid of (ensemble, target)
points and states its rules: the starts, the Anderson step, the
stop-and-restart rule and the infeasible fallbacks; :func:`solve` is its
one-point case. Past the plateau onset the renormalized success rate
stays at its ceiling, so a target at or above the rate of the
ceiling-reaching measurement ``StateEnsemble.plateau_measurement``,
computed once per ensemble object and kept on it, is answered in closed
form and is not iterated.

The points of a grid are solved in lockstep on one stacked iterate, so
numpy's per-call cost is paid once per grid rather than once per point.
The Anderson least squares of all points with the same history depth are
one call of the LAPACK gelsd gufunc that ``np.linalg.lstsq`` calls, so
each point's coefficients are bit for bit those of its own ``lstsq``.
Each point's multiplier search is its own outcome, and a sweep keeps one
stacked eigendecomposition of lam^2, a row per point at its search's
multiplier, which gives the sweep's lam^+. Each point is one run from
its start to its result, which one builder makes, closed form or
iterated. Every POVM the solver returns is built by the :class:`Povm`
constructor.
"""

from __future__ import annotations

import logging
import math
from collections import namedtuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import certificate
from .certificate import Certificate, SingularMultiplierError, require_matching
from .ensemble import Povm, StateEnsemble, Violation, hermitian_psd_checks
from .hermitian import PsdRoot, herm, psd_root, trace_products

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
# The fixed-point tolerance: the largest Frobenius change of one element in
# one sweep at which a point stops. MAX_ITERATIONS is the default sweep cap.
POVM_TOLERANCE = 1e-12
MAX_ITERATIONS = 500

_BRACKET_CAP = 2.0**60
_TINY = np.finfo(np.float64).tiny

# Sweeps of history the Anderson extrapolation in ``solve_grid`` mixes.
ANDERSON_DEPTH = 5
# Halvings of an extrapolation step ``solve_grid`` tries after the full
# one, beta = 1/2 ... 1/2**BACKTRACK_STEPS.
BACKTRACK_STEPS = 6


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
    checks = hermitian_psd_checks("element", povm.elements,
                                  POVM_HERMITICITY_ATOL, POVM_PSD_FLOOR)
    report = [violation for _, violation in checks if violation is not None]
    total = povm.elements[[hermitian for hermitian, _ in checks]].sum(axis=0)
    closure = float(np.linalg.norm(total - np.eye(povm.dim), "fro"))
    if closure > POVM_CLOSURE_RTOL * povm.dim:
        report.append(Violation(
            f"elements sum to identity only within {closure:.3e}",
            residual=closure))
    return report


class SuccessMetrics(namedtuple("SuccessMetrics", "p_s p_i p_rs")):
    """Success rate, inconclusive rate and renormalized success rate of one
    POVM, as floats; see :func:`success_metrics`."""

    __slots__ = ()


class SolveResult(namedtuple("SolveResult", (
        "povm p_s p_i p_rs a iterations final_change converged rate_residual "
        "rate_evaluations certificate change_history"))):
    """Converged POVM with its metrics, rate multiplier, and diagnostics.

    ``povm`` is a :class:`Povm`, ``p_s``, ``p_i`` and ``p_rs`` are its
    :class:`SuccessMetrics` and ``a`` is the scalar multiplier of the
    inconclusive-rate constraint, None when the solve ran at zero
    inconclusive rate, where it plays no role. The operator multiplier
    lam of ``povm`` is its certificate's ``lam``.
    ``rate_residual`` is the final sweep's
    |predicted inconclusive rate - target| (0 at zero target), and
    ``rate_evaluations`` counts the predicted-rate evaluations, one
    eigendecomposition each, over the whole solve. ``change_history`` holds
    the fixed-point residual of every sweep: the largest Frobenius-norm
    difference between an element of the sweep's output and of the point
    it swept, which is an extrapolated one after an accepted Anderson step;
    ``final_change`` is its last entry. ``converged`` requires both that
    residual and the rate residual within their tolerances. A plateau
    target answered in closed form has no sweeps: 0 iterations and rate
    evaluations, an empty history and a ``final_change`` of 0.

    ``certificate`` is the :class:`certificate.Certificate` of ``povm``,
    or the SingularMultiplierError met in its place, bit for bit what
    :func:`certificate.check` gives for it: the test the solver stopped
    the point with, and ``optimal`` is the verdict.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# sweep internals
#
# Inside the solver the POVMs of P points are one stacked (P, N+1, d, d)
# array, element 0 of each the inconclusive one; a Povm is built only for
# the caller. Every array below carries the point axis first, so the same
# code sweeps one point (P = 1) or a whole grid in lockstep, and a point's
# numbers do not depend on which other points share its stack.

class _Stacked:
    """A namedtuple of arrays that all carry the point axis first; ``take``
    keeps the points ``rows``, in that order."""

    __slots__ = ()

    def take(self, rows: list[int]):
        return type(self)(*(term[rows] for term in self))


class _EnsembleTerms(_Stacked, namedtuple("_EnsembleTerms", "sigma states weighted priors")):
    """Ensemble operators that every sweep of one solve reuses, and that its
    results' metrics read: ``sigma`` (P, d, d), ``states`` Herm(rho_j) and
    ``weighted`` p_j^2 Herm(rho_j), both (P, N, d, d), and ``priors`` p_j,
    (P, N)."""

    __slots__ = ()


class _RateTerms(_Stacked, namedtuple("_RateTerms", "conclusive_sum pair")):
    """Operators fixed during one sweep's multiplier search:
    ``conclusive_sum`` sum_j p_j^2 rho_j Pi_j rho_j, (P, d, d), and ``pair``
    sigma and sigma Pi_0 sigma, (P, 2, d, d)."""

    __slots__ = ()


def _ensemble_terms(ensembles: list[StateEnsemble]) -> _EnsembleTerms:
    states = herm(np.stack([e.states for e in ensembles]))
    priors = np.stack([e.priors for e in ensembles])
    weighted = (priors * priors)[..., None, None] * states
    return _EnsembleTerms(np.stack([e.average_state for e in ensembles]), states, weighted,
                          priors)


def _sweep_terms(fixed: _EnsembleTerms, x: np.ndarray) -> tuple[np.ndarray, _RateTerms]:
    """The sandwiches p_j^2 rho_j Pi_j rho_j of the stacked POVMs ``x``
    and the terms of their multiplier search."""
    sig = fixed.sigma
    sandwiches = herm(fixed.weighted @ x[:, 1:] @ fixed.states)
    pair = np.stack((sig, herm(sig @ x[:, 0] @ sig)), axis=1)
    # a sum of exactly Hermitian matrices is exactly Hermitian
    return sandwiches, _RateTerms(sandwiches.sum(axis=1), pair)


class _RateEval(namedtuple("_RateEval", "rate slope root")):
    """Predicted inconclusive rates at the points' multipliers and their
    derivatives in the multiplier, lists of one float per point, and the
    stacked square roots of lam^2 they came from, a PsdRoot."""

    __slots__ = ()


def _predicted_rate(terms: _RateTerms, a: list[float]) -> _RateEval:
    """Inconclusive rate each point's sweep would produce with its multiplier
    in ``a``, and its derivative in the multiplier, worked out in the
    eigenbasis of lam^2 without forming lam^+ itself.

    With X = lam^+ and M = sigma Pi_0 sigma the rate is a^2 q for
    q = Tr[sigma X M X]. X = f(lam^2) for f(w) = w^{-1/2} on the support,
    and lam^2 moves by 2a M da, so by the Daleckii-Krein formula dX/da in
    the eigenbasis is G o (2a M~), where G_ij = (f(w_i) - f(w_j)) / (w_i - w_j)
    = -x_i x_j / (s_i + s_j) with s_i the root values and x_i their
    inverses. In that basis q = Tr[(xx o M~) S~] with xx_ij = x_i x_j, and
    dq/da = 2 Re Tr[S~ (dX/da) M~ X] = -4a r for r = Re Tr[(g o M~)† (M~ X S~)],
    g = -G; the rate's slope is 2a q + a^2 dq/da = a (2q - 4a^2 r).
    """
    a2 = np.array([b * b for b in a])
    root = psd_root(terms.conclusive_sum + a2[:, None, None] * terms.pair[:, 1])
    v, s, x = root.vectors, root.root, root.inverse
    both = v.conj().swapaxes(-1, -2)[:, None] @ terms.pair @ v[:, None]
    st, mt = both[:, 0], both[:, 1]
    xx = x[:, :, None] * x[:, None, :]
    g = xx / np.maximum(s[:, :, None] + s[:, None, :], _TINY)   # -G, 0 on dropped pairs
    # q = Re Tr[M~† (xx o S~)] and r = Re Tr[M~† (g o (M~ X S~))], one product
    n = len(a)
    rhs = np.concatenate((xx * st, g * ((mt * x[:, None, :]) @ st)), axis=1)
    qr = (rhs.view(np.float64).reshape(n, 2, -1)
          @ mt.view(np.float64).reshape(n, -1, 1)).tolist()
    return _RateEval([b * b * q for b, ((q,), _) in zip(a, qr)],
                     [b * (2.0 * q - 4.0 * b * b * r) for b, ((q,), (r,)) in zip(a, qr)],
                     root)


class _Search:
    """One point's safeguarded Newton search for the multiplier matching its
    target rate, and its outcome; the rates come from stacked evaluations,
    the steps are plain float logic.

    The rate is 0 at a = 0 and grows (empirically monotonically, checked
    and logged) toward a saturation value as a -> inf. The search starts
    its ``trial`` at ``start``, the previous sweep's multiplier, or cold at
    a = 1, and keeps a bracket [lo, hi] around the root, starting from
    [0, inf). A Newton step that leaves the bracket is replaced by doubling
    while hi is unknown and by bisection once it is. A target still out of
    reach at a = _BRACKET_CAP is infeasible, and ``error`` holds its
    InfeasibleTargetError. The search stops at residual RATE_TOLERANCE or
    after RATE_MAX_EVALUATIONS evaluations. Its outcome is ``a`` and
    ``residual`` |predicted rate - target| from its best evaluation, the
    first one or a later one with a strictly smaller residual, and the
    ``evaluations`` it made. At zero target there is nothing to search:
    lam^2 is taken at a = 0, and no evaluation counts.
    """

    def __init__(self, target: float, start: float | None):
        self.target = target
        self.trial = 0.0 if target == 0.0 else start or 1.0
        self.a, self.residual = self.trial, math.inf
        self.lo, self.rate_lo = 0.0, 0.0
        self.hi, self.rate_hi = math.inf, math.inf
        self.improved = False                    # the last evaluation was the best
        self.error: InfeasibleTargetError | None = None
        self.evaluations = 0

    def update(self, rate: float, slope: float) -> bool:
        """Take the rate and slope at the trial multiplier and move it on;
        True once the search is over. ``improved`` tells whether this trial
        became ``a``, so that the caller keeps its root of lam^2."""
        a, target = self.trial, self.target
        residual = abs(rate - target)
        self.improved = self.evaluations == 0 or residual < self.residual
        if self.improved:
            self.a, self.residual = a, residual
        if target == 0.0:
            return True
        self.evaluations += 1
        if residual <= RATE_TOLERANCE:
            return True
        lo, hi = self.lo, self.hi
        if not self.rate_lo - 1e-12 <= rate <= self.rate_hi + 1e-12:
            logger.warning(
                "inconclusive rate is not monotone in the multiplier "
                "(%.17g at a=%.3g, outside [%.17g, %.17g] on [%.3g, %.3g]); "
                "the search may settle on a non-principal root",
                rate, a, self.rate_lo, self.rate_hi, lo, hi)
        if rate < target:
            if a >= _BRACKET_CAP:
                self.error = InfeasibleTargetError(target=target, supremum=rate)
                return True
            self.lo = lo = a
            self.rate_lo = rate
        else:
            self.hi = hi = a
            self.rate_hi = rate
        step = a - (rate - target) / slope if slope > 0 else math.nan
        if lo < step < hi:
            self.trial = min(step, _BRACKET_CAP)
        elif hi == math.inf:
            self.trial = min(2.0 * a, _BRACKET_CAP)
        else:
            self.trial = a = 0.5 * (lo + hi)
            if a == lo or a == hi:  # bracket exhausted at float resolution
                return True
        return self.evaluations >= RATE_MAX_EVALUATIONS


def _solve_multiplier(
    terms: _RateTerms, targets: list[float], starts: list[float | None],
) -> tuple[list[_Search], PsdRoot]:
    """Every point's multiplier search, in lockstep: each round is one
    stacked rate evaluation of the points still searching. Returns the
    searches, each its point's outcome, and the stacked PsdRoot of lam^2
    at each search's ``a`` that gives lam^+: its ``vectors`` and
    ``inverse``, a row per point, into which after every round the rows
    of the points whose residual improved are copied, one fancy
    assignment each; its ``root`` is None, since nothing reads it. A
    point whose target is infeasible has the error on its search."""
    searches = [_Search(t, s) for t, s in zip(targets, starts)]
    live = list(range(len(searches)))
    vectors = inverse = None
    while live:
        ev = _predicted_rate(terms, [searches[k].trial for k in live])
        if vectors is None:     # the first round evaluates every point
            vectors, inverse = np.empty_like(ev.root.vectors), np.empty_like(ev.root.inverse)
        keep = [row for row, (k, rate, slope) in enumerate(zip(live, ev.rate, ev.slope))
                if not searches[k].update(rate, slope)]
        improved = [row for row, k in enumerate(live) if searches[k].improved]
        rows = np.array(improved, dtype=np.intp)
        slots = np.array([live[row] for row in improved], dtype=np.intp)
        vectors[slots] = ev.root.vectors[rows]
        inverse[slots] = ev.root.inverse[rows]
        if len(keep) < len(live):
            live = [live[row] for row in keep]
            if keep:
                terms = terms.take(keep)
    for search in searches:
        if search.residual > RATE_TOLERANCE and search.error is None:
            logger.debug("multiplier search stopped at residual %.3e (tolerance %.3e)",
                         search.residual, RATE_TOLERANCE)
    return searches, PsdRoot(vectors, None, inverse)


def _sweep(
    fixed: _EnsembleTerms, x: np.ndarray, targets: list[float], starts: list[float | None],
) -> tuple[np.ndarray, list[_Search]]:
    """One sweep of the stacked POVMs ``x``; each point's multiplier search
    starts at its entry of ``starts`` when given. Returns the new stacked
    POVMs and each point's search (:func:`_solve_multiplier`); a point
    whose search holds an error has no valid row in the POVMs.

    The new conclusive elements are lam^+ (p_j^2 rho_j Pi_j rho_j) lam^+,
    congruences of PSD operators and so PSD, and the inconclusive one is
    what completeness leaves of the identity: a^2 lam^+ sigma Pi_0 sigma
    lam^+ plus the projector onto ker lam, which no state sees.
    """
    sandwiches, terms = _sweep_terms(fixed, x)
    searches, root = _solve_multiplier(terms, targets, starts)
    laminv = root.pinv_matrix()[:, None]
    new = np.empty_like(x)
    new[:, 1:] = herm(laminv @ sandwiches @ laminv)
    new[:, 0] = np.eye(x.shape[-1]) - new[:, 1:].sum(axis=1)
    return new, searches


class _Anderson:
    """Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 1715
    (2011)) for a fixed-point map G: the history of one point, kept on the
    real view of its flattened iterate.

    It keeps the last ANDERSON_DEPTH differences of the residuals
    f = G(x) - x and of the map values G(x). With F and D those
    differences as columns, the next iterate is G(x) - D gamma for the
    gamma that minimizes |f - F gamma| (:func:`_extrapolate`, for a stack
    of points). Its weights on the recent map values sum to 1, so it keeps
    every affine constraint that all of them meet: completeness and
    Tr[sigma Pi_0] = target here. Positivity is the caller's to check.
    """

    def __init__(self):
        self.last: tuple[np.ndarray, np.ndarray] | None = None   # f and G(x)
        self.reset()

    def reset(self) -> None:
        self.df: list[np.ndarray] = []
        self.dg: list[np.ndarray] = []

    def record(self, f: np.ndarray, g: np.ndarray) -> bool:
        """Take the residual ``f`` and the map value ``g`` = G(x), real
        views; True when there is history to extrapolate from."""
        if self.last is not None:
            self.df = [*self.df[1 - ANDERSON_DEPTH:], f - self.last[0]]
            self.dg = [*self.dg[1 - ANDERSON_DEPTH:], g - self.last[1]]
        self.last = (f, g)
        return bool(self.df)


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solutions of the stacked (P, m, n) ``a`` and (P, m,
    1) ``b``, each bit for bit what ``np.linalg.lstsq(a[k], b[k], rcond=None)``
    gives: the LAPACK gelsd gufunc that lstsq calls, with its cutoff and
    error handling, over the whole stack in one call."""
    m, n = a.shape[-2:]
    with np.errstate(call=_lstsq_failed, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        x, _, _, _ = _umath_linalg.lstsq(a, b, np.finfo(np.float64).eps * max(m, n),
                                         signature="ddd->ddid")
    return x


def _extrapolate(mixers: list[_Anderson], f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each point's Anderson iterate G(x) - D gamma from its history in
    ``mixers`` and its rows of ``f`` and ``g``, the stacked real views of
    G(x) - x and G(x). The points are grouped by history depth, and each
    depth takes one :func:`_lstsq` and one matmul for its points, so every
    gamma is the one a point's own ``np.linalg.lstsq`` gives; padding to
    a common depth would change gelsd's answer."""
    guesses = np.empty_like(g)
    depths = [len(mixer.df) for mixer in mixers]
    for depth in set(depths):
        rows = [k for k, n in enumerate(depths) if n == depth]
        df = np.array([mixers[k].df for k in rows])     # (P, depth, L)
        dg = np.array([mixers[k].dg for k in rows])
        gamma = _lstsq(df.swapaxes(-1, -2), f[rows, :, None])
        guesses[rows] = g[rows] - (gamma.swapaxes(-1, -2) @ dg)[:, 0]
    return guesses


class _Run:
    """One grid point from its start to its result (:func:`solve_grid`):
    ``start`` is "closed", "plateau", "uninformative" or "restarted", and
    ``outcome`` is None until the point stops, then its SolveResult or the
    InfeasibleTargetError that ended it."""

    def __init__(self, e: StateEnsemble, target: float):
        self.e, self.target = e, target
        self.history: list[float] = []
        self.fit: _Search | None = None       # last sweep's multiplier search
        self.evaluations = 0
        self.outcome: SolveResult | InfeasibleTargetError | None = None
        rate = e.plateau_measurement.rate
        if rate is not None and target >= rate:
            self.start = "closed"
        else:
            self.restart("uninformative" if rate is None else "plateau")

    def restart(self, start: str) -> None:
        """Start again from ``start`` with no mixing history; the multiplier
        search still starts from the last sweep's, and the sweep count and
        evaluations carry on."""
        self.start = start
        x = (_plateau_start(self.e, self.target) if start == "plateau"
             else initial_povm(self.e, self.target).elements)
        self.x = self.plain = x          # next sweep's input; last sweep's output
        self.mixer = _Anderson()


def _step(plain: np.ndarray, guesses: np.ndarray) -> list[tuple[float, np.ndarray] | None]:
    """Per point, the largest beta = 1, 1/2, ... 1/2**BACKTRACK_STEPS for
    which y = plain + beta (guess - plain) keeps every element's smallest
    eigenvalue at or above POVM_PSD_FLOOR, with that y; None when no beta
    does. At beta = 1, y is the guess itself. ``plain`` and ``guesses`` are
    stacked (T, N+1, d, d); all trials are built by one broadcast and go
    through one stacked eigvalsh."""
    betas = 0.5 ** np.arange(BACKTRACK_STEPS + 1)
    stack = betas[:, None, None, None, None] * (guesses - plain)
    stack += plain
    stack[0] = guesses
    inside = (np.linalg.eigvalsh(stack)[..., 0] >= POVM_PSD_FLOOR).all(axis=-1)  # (beta, point)
    first = inside.argmax(axis=0).tolist()
    return [(float(betas[b]), stack[b, k].copy()) if ok else None
            for k, (b, ok) in enumerate(zip(first, inside.any(axis=0).tolist()))]


# ---------------------------------------------------------------------------
# public operations

def initial_povm(e: StateEnsemble, target_pi: float) -> Povm:
    """Maximally uninformative start satisfying completeness and the target.

    Pi_0 = target * identity and the conclusive elements split the rest
    evenly, so Tr[sigma Pi_0] equals the target exactly.
    """
    require_target(target_pi)
    shares = np.full(e.n_states + 1, (1.0 - target_pi) / e.n_states)
    shares[0] = target_pi
    return Povm(shares[:, None, None] * np.eye(e.dim))


def _plateau_start(e: StateEnsemble, target_pi: float) -> np.ndarray:
    """Start of a target below the plateau rate t_c of ``e``: mu M + (1 -
    mu) U_0 for mu = target / t_c, with M ``e.plateau_measurement`` (Pi_j
    = X_j, Pi_0 = I - sum_j X_j) and U_0 the uninformative start at 0.

    The rate is affine in the POVM, so the mix is a POVM at rate mu t_c =
    target, with full-rank conclusive elements since mu < 1; at target 0
    it is ``initial_povm(e, 0)`` bit for bit.
    """
    plateau = e.plateau_measurement
    plateau_povm = np.empty((e.n_states + 1, e.dim, e.dim), dtype=np.complex128)
    plateau_povm[1:] = plateau.conclusive
    plateau_povm[0] = np.eye(e.dim) - plateau.conclusive.sum(axis=0)
    mu = target_pi / plateau.rate
    return mu * plateau_povm + (1.0 - mu) * initial_povm(e, 0.0).elements


def success_metrics(e: StateEnsemble, povm: Povm) -> SuccessMetrics:
    """Success rate, inconclusive rate, and the renormalized success rate.

    p_s = sum_j p_j Tr[Pi_j rho_j]; p_i = Tr[sigma Pi_0];
    p_rs = p_s / (1 - p_i), undefined when the inconclusive rate saturates.
    """
    require_matching(e, povm)
    return _success_metrics(_ensemble_terms([e]), povm.elements[None])[0]


def _success_metrics(fixed: _EnsembleTerms, elements: np.ndarray) -> list[SuccessMetrics]:
    """:func:`success_metrics` of each point of ``fixed`` with its POVM in
    the stack ``elements``, all traces from one call; the shapes match.
    Herm(rho_j) gives rho_j's traces bit for bit: herm is idempotent."""
    operands = np.concatenate((fixed.sigma[:, None], fixed.states), axis=1)
    metrics = []
    for priors, (p_i, *traces) in zip(fixed.priors.tolist(),
                                      trace_products(operands, elements).tolist()):
        p_s = sum(p * t for p, t in zip(priors, traces))
        if p_i >= 1.0 - RELATIVE_RATE_EPS:
            raise RelativeRateUndefinedError(
                f"inconclusive rate {p_i:.17g} leaves no conclusive fraction")
        metrics.append(SuccessMetrics(float(p_s), float(p_i), float(p_s / (1.0 - p_i))))
    return metrics


def solve(
    e: StateEnsemble, target_pi: float, *, max_iterations: int = MAX_ITERATIONS
) -> SolveResult:
    """Optimal POVM at the requested inconclusive rate: :func:`solve_grid`
    on one point, raising its InfeasibleTargetError."""
    outcome, = solve_grid([(e, target_pi)], max_iterations=max_iterations)
    if isinstance(outcome, InfeasibleTargetError):
        raise outcome
    return outcome


def solve_grid(
    points: list[tuple[StateEnsemble, float]], *, max_iterations: int = MAX_ITERATIONS
) -> list[SolveResult | InfeasibleTargetError]:
    """Solve every (ensemble, target) point; the ensembles share their
    dimension and number of states. Returns each point's SolveResult, or
    the InfeasibleTargetError it met, in the points' order.

    Each point is a :class:`_Run` with at most ``max_iterations`` sweeps.
    The iterated runs go in lockstep on one stacked iterate, which after a
    sweep in which points stop keeps only the runs still going. The points
    share nothing but the stacked numpy calls, so a point's outcome does
    not depend on the others in the grid. Every result is built and
    certified by one builder (:func:`_finish`), so every result carries
    its POVM's certificate.

    The starts. Each ensemble's plateau measurement gives the ceiling
    prs_max and conclusive elements X_j reaching it at rate t_c. A target
    t >= t_c is answered without sweeps ("closed"), all such points as one
    stack before any sweep: Pi_j = (1 - t)/(1 - t_c) X_j and Pi_0 = I -
    sum_j Pi_j, with multipliers lam = prs_max sigma and a = prs_max,
    which are dual feasible and make that POVM stationary. Its result
    reports 0 iterations, a final change of 0 and 0 rate evaluations, and
    its rate residual is |Tr[sigma Pi_0] - t|. A point below t_c starts
    from that measurement mixed down to its rate ("plateau",
    :func:`_plateau_start`), which is nearer the optimum, and a point of
    an ensemble whose plateau measurement has no rate (no kernel) from
    :func:`initial_povm` ("uninformative").

    The Anderson step. Each point's iterate x_k is Anderson-accelerated
    (:class:`_Anderson`, depth ANDERSON_DEPTH) once its multiplier search
    met RATE_TOLERANCE. An extrapolation keeps completeness and the
    inconclusive rate exactly but may leave the PSD cone, so the next
    iterate is y = G(x_k) + beta (x_A - G(x_k)) for the extrapolation x_A
    from its recent sweeps (:func:`_extrapolate`, one least-squares call
    per history depth) and the largest beta = 1, 1/2 ...
    1/2**BACKTRACK_STEPS whose elements are all PSD within POVM_PSD_FLOOR
    (:func:`_step`, one stacked eigvalsh for the grid), as in the diluted
    iteration of Rehacek et al., PRA 75, 042108 (2007), and safeguarded
    Anderson mixing (Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 3170
    (2020)). At beta = 1, y is x_A itself, and a "restarted" point takes
    beta = 1 or none. When no beta passes, or the search missed the
    tolerance, the next iterate is the plain sweep's output G(x_k), and
    its mixing starts over. Each sweep gives each point one verdict on its
    extrapolation, logged at DEBUG by :func:`_log_sweep`: none, rejected,
    accepted, or backtracked with its beta.

    The stop and the restart. Every point whose fixed-point residual, the
    largest Frobenius-norm difference between elements of G(x_k) and x_k,
    drops to POVM_TOLERANCE, or that reaches ``max_iterations`` sweeps
    (reported through ``converged``, not an exception), is certified, all
    of one sweep by one :func:`certificate.check_grid` call
    (:func:`_certify`). It stops with that certificate unless it was never
    restarted, is under the cap, met RATE_TOLERANCE and is not certified
    optimal; such a point restarts as "restarted", from
    :func:`initial_povm` with a fresh mixing history, so a stationary but
    non-optimal POVM does not end the solve. Its result is its last
    sweep's output G(x_k) with that sweep's ``a``, never an extrapolation.
    Each multiplier search starts from the point's previous multiplier,
    and a restart carries the sweep count on.

    The infeasible sweeps. A sweep from an extrapolation that finds the
    target infeasible is dropped and the point resumes from its last
    sweep's output. So is one from a "plateau" point's plain output, and
    the point restarts as "uninformative": the plateau start's Pi_0 can be
    rank-deficient (for tied states), every sweep keeps the rank, and a
    rank-deficient Pi_0 can make a rate unreachable that the problem
    allows. Any other infeasible sweep ends the point with the error.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be positive")
    for e, target in points:
        e.require_valid()
        require_target(target)
    if len({(e.n_states, e.dim) for e, _ in points}) > 1:
        raise ValueError("grid points must share the number of states and the dimension")
    every = [_Run(e, t) for e, t in points]
    closed = [run for run in every if run.start == "closed"]
    if closed:
        plateaus = [run.e.plateau_measurement for run in closed]
        scales = np.array([(1.0 - run.target) / (1.0 - p.rate)
                           for run, p in zip(closed, plateaus)])
        conclusive = scales[:, None, None, None] * np.stack([p.conclusive for p in plateaus])
        inconclusive = np.eye(conclusive.shape[-1]) - conclusive.sum(axis=1)
        elements = np.concatenate((inconclusive[:, None], conclusive), axis=1)
        ensembles = [run.e for run in closed]
        _finish(closed, _ensemble_terms(ensembles), elements, _certify(ensembles, elements))
    runs = [run for run in every if run.outcome is None]     # the ones still going
    if runs:
        fixed = _ensemble_terms([run.e for run in runs])
    while runs:
        x = np.array([run.x for run in runs])
        new, fits = _sweep(fixed, x, [run.target for run in runs],
                           [run.fit and run.fit.a for run in runs])
        # real views of G(x) - x and G(x), a row per point
        residuals = (new - x).view(np.float64).reshape(len(runs), -1)
        values = new.view(np.float64).reshape(len(runs), -1)
        # largest Frobenius norm of an element's change, per point
        changes = np.sqrt(np.square(residuals).reshape(x.shape[:2] + (-1,)).sum(axis=-1))
        changes = changes.max(axis=-1).tolist()
        verdicts: dict[int, str] = {}     # rows that swept: extrapolation verdict
        mixing: list[int] = []            # rows that extrapolate
        stopping: list[int] = []          # rows to certify
        for row, (run, fit) in enumerate(zip(runs, fits)):
            if fit.error is not None:
                if run.x is not run.plain:
                    logger.debug("sweep from an extrapolation infeasible (%s); "
                                 "resuming from the last sweep", fit.error)
                    run.x = run.plain
                    run.mixer.reset()
                elif run.start == "plateau":
                    logger.debug("sweep from the plateau start infeasible (%s); "
                                 "restarting from the uninformative start", fit.error)
                    run.restart("uninformative")
                else:
                    run.outcome = fit.error
                continue
            run.fit = fit
            run.evaluations += fit.evaluations
            run.history.append(changes[row])
            run.x = run.plain = new[row]
            verdicts[row] = "none"
            if changes[row] <= POVM_TOLERANCE or len(run.history) >= max_iterations:
                stopping.append(row)
            elif run.mixer.record(residuals[row], values[row]):
                if fit.residual <= RATE_TOLERANCE:
                    mixing.append(row)
                else:
                    run.mixer.reset()
                    verdicts[row] = "rejected"
        done: list[int] = []              # rows that stop in this sweep
        if stopping:
            checked = dict(zip(stopping, _certify([runs[row].e for row in stopping],
                                                  new[stopping])))
            for row in stopping:
                run, cert = runs[row], checked[row][1]
                if (run.start == "restarted" or len(run.history) >= max_iterations
                        or run.fit.residual > RATE_TOLERANCE or cert.optimal):
                    done.append(row)
                    continue
                why = (cert if isinstance(cert, SingularMultiplierError) else
                       f"largest residual {max(cert.extremal_residuals):.3e}, "
                       f"smallest margin {np.nanmin(cert.positivity_margins):.3e}")
                logger.debug("restarting target %.17g without backtracking: stationary "
                             "after %d sweeps but not certified optimal (%s)",
                             run.target, len(run.history), why)
                run.restart("restarted")
        if mixing:
            guesses = _extrapolate([runs[row].mixer for row in mixing],
                                   residuals[mixing], values[mixing])
            steps = _step(new[mixing], guesses.view(np.complex128).reshape(
                (len(mixing),) + x.shape[1:]))
            for row, step in zip(mixing, steps):
                run = runs[row]
                # a restarted point takes the full step or none
                if step is None or (step[0] < 1.0 and run.start == "restarted"):
                    run.mixer.reset()
                    verdicts[row] = "rejected"
                else:
                    beta, run.x = step
                    verdicts[row] = ("accepted" if beta == 1.0
                                     else f"backtracked with beta {beta:g}")
        if logger.isEnabledFor(logging.DEBUG):
            for row, verdict in verdicts.items():
                _log_sweep(runs[row], verdict)
        if done:
            stopped = [runs[row] for row in done]
            for run in stopped:
                if run.history[-1] > POVM_TOLERANCE:
                    logger.warning("no fixed point within %d sweeps (last change %.3e)",
                                   max_iterations, run.history[-1])
            _finish(stopped, fixed.take(done), new[done], [checked[row] for row in done])
        if any(run.outcome is not None for run in runs):
            rows = [row for row, run in enumerate(runs) if run.outcome is None]
            runs = [runs[row] for row in rows]
            fixed = fixed.take(rows)
    return [run.outcome for run in every]


def _log_sweep(run: _Run, verdict: str) -> None:
    logger.debug("sweep %d at target %.17g: residual %.3e, a=%s, rate residual %.3e, "
                 "extrapolation %s", len(run.history), run.target, run.history[-1],
                 run.fit.a, run.fit.residual, verdict)


def _certify(ensembles: list[StateEnsemble], elements: np.ndarray,
             ) -> list[tuple[Povm, Certificate | SingularMultiplierError]]:
    """The Povm of each row of the stacked ``elements``, built by its
    constructor, with its certificate, all from one
    :func:`certificate.check_grid` call."""
    povms = [Povm(rows) for rows in elements]
    return list(zip(povms, certificate.check_grid(list(zip(ensembles, povms)))))


def _finish(
    runs: list[_Run], fixed: _EnsembleTerms, elements: np.ndarray,
    checked: list[tuple[Povm, Certificate | SingularMultiplierError]],
) -> None:
    """Give each of ``runs``, points that stop together, its result as its
    ``outcome``: the POVM of its row of the stacked ``elements`` with the
    certificate it was checked with (``checked``, from :func:`_certify`),
    and the target, sweeps and rate evaluations of the run; ``fixed``
    holds their ensemble terms. A "closed" run has no sweeps and no
    multiplier search, so its multiplier ``a`` is its plateau's prs_max
    and its rate residual is |p_i - target|; an iterated one's are its
    last search's. The metrics come from one stacked call."""
    metrics = _success_metrics(fixed, elements)
    for run, (povm, cert), m in zip(runs, checked, metrics):
        change = run.history[-1] if run.history else 0.0
        if run.fit is None:
            a, residual = run.e.plateau_measurement.bound.prs_max, abs(m.p_i - run.target)
        else:
            a, residual = run.fit.a, run.fit.residual
        run.outcome = SolveResult(
            povm=povm,
            p_s=m.p_s,
            p_i=m.p_i,
            p_rs=m.p_rs,
            a=None if run.target == 0.0 else a,
            iterations=len(run.history),
            final_change=change,
            converged=change <= POVM_TOLERANCE and residual <= RATE_TOLERANCE,
            rate_residual=residual,
            rate_evaluations=run.evaluations,
            certificate=cert,
            change_history=tuple(run.history),
        )
