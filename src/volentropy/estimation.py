"""Constrained maximum-likelihood estimation of the volatility models.

The optimizer works in an unconstrained space reached through a bijective
reparameterization (log for scale parameters, logistic maps for bounded
ones, a softmax-style map enforcing ``alpha + beta < 1`` for GARCH).  Each
fit runs BFGS on the exact score, with a line search that halves any step
landing on a rejected point, multistarted from jittered warm starts.  Two
features of these models need more than that.  FIGARCH's lambda_j >= 0
walls: a trial point a wall rejects is moved back onto that wall before
the likelihood is evaluated, so each trial point is evaluated once, and
the search slides along the wall.  And the faces alpha -> 0 and d -> 0, 1,
where the log and logit maps flatten the gradient: a search that stops on
one whose slope in theta points inside is rerun from the warm start's
alpha or d (`_off_face`), and the better run is kept.  IGARCH's alpha maps
onto (-1, 0), where every d = 1 weight is nonnegative (Conrad & Haag, 2006),
so its searches have no wall and no face restart.

Convergence diagnostics (objective improvement, gradient norms) are defined
on the *per-observation* (mean) log-likelihood so they are sample-size
invariant; reported log-likelihoods are totals.

The optimizer's gradient is the likelihood engine's exact score (see
:meth:`models._Likelihood.score`), carried to the unconstrained coordinates
by the analytic Jacobian of the inverse transform.  Standard errors invert
the engine's exact Hessian in the constrained parameters
(:meth:`models._Likelihood.hessian`, one pass); the maps play no part in
them.  A Hessian that is not negative definite, or is singular to working
precision, gives no standard errors.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import INNOVATIONS, FitConfig, ModelFamily
from .errors import (
    BoundaryError,
    DataQualityError,
    DomainError,
    EstimationError,
    InfeasibleParamsError,
    InsufficientDataError,
)
from .models import (
    _LAMBDA_TOL,
    _SMALLEST_NORMAL,
    ParamVector,
    _Likelihood,
    frac_weights,
    validate_params,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "PersistenceCheck",
    "StdErrReport",
    "fit",
    "param_names",
    "persistence_check",
    "standard_errors",
    "transform_from_unconstrained",
    "transform_to_unconstrained",
]

# Warm start of the estimation design: variance-scaled intercept around a
# persistent-but-stationary point, mid-range d, moderately heavy tails.
_ALPHA0, _BETA0, _D0, _NU0 = 0.05, 0.90, 0.5, 8.0

_GNORM_CONVERGED = 1e-4     # gradient norm bound entering `converged`
# lambda_j below which `converged` discounts the gradient's push into its wall.
# Wider than models._LAMBDA_TOL, where the search itself projects onto a
# wall: a line search can stop a halved step short of lambda_j = 0 (about
# 1e-11) with the wall still blocking every descent, but projecting the
# search at this band moves optima it finds today.
_WALL_BAND = 1e-8
_MAX_HALVINGS = 40          # line-search halvings before a step is given up
_FACE = 1e-3                # alpha, or d from its nearer bound, on a face (see `_off_face`)
_PERSISTENCE_FLAG = 0.98    # strict threshold on alpha + beta
# Smallest eigenvalue ratio of a scaled -H that still gives a covariance
# (see `_covariance_from_hessian`): 1000 machine epsilons, about 2.2e-13.
_MIN_EIGEN_RATIO = 1e3 * float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class StdErrReport:
    """Standard errors, p-values and significance flags for one optimum.

    All three dictionaries are ``None`` when the negative Hessian is not
    positive definite (``hessian_pd`` records which case applies);
    ``cov`` is the inverse of the negative Hessian in the constrained
    parameters.
    """

    stderr: dict[str, float] | None
    pvalues: dict[str, float] | None
    significance: dict[str, str] | None
    cov: np.ndarray | None
    hessian_pd: bool


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    params: ParamVector
    stderr: dict[str, float] | None
    pvalues: dict[str, float] | None
    significance: dict[str, str] | None
    loglik: float
    converged: bool
    iterations: int
    n_obs: int
    family: ModelFamily
    innovation: str
    mean: float
    names: tuple[str, ...]
    cov: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PersistenceCheck:
    """The alpha+beta diagnostic of a GARCH fit."""

    total: float
    stderr: float | None
    flag: bool
    recommendation: str | None


# ------------------------------------------------------------------ transforms

class _Map(NamedTuple):
    """The search's ``theta = to_theta(u)`` onto (lo, hi); ``slope`` is d theta/du."""

    lo: float
    hi: float
    to_theta: Callable[[float], float] | None
    to_u: Callable[[float], float] | None
    slope: Callable[[float], float]


_LOG = _Map(0.0, math.inf, math.exp, math.log, lambda t: t)
_NU = _Map(2.0, math.inf, lambda u: 2.0 + math.exp(u), lambda t: math.log(t - 2.0),
           lambda t: t - 2.0)
# GARCH's (alpha, beta) = (e^a, e^b) / (1 + e^a + e^b), keeping alpha + beta < 1,
# is the one map of two coordinates (no to_theta, to_u of one): its derivative
# in its own coordinate is the logistic's, and -alpha beta couples the pair.
_SOFTMAX = _Map(0.0, 1.0, None, None, lambda t: t * (1.0 - t))


@functools.lru_cache(maxsize=16)
def _layout(family: ModelFamily, innovation: str,
            d_fixed: float | None) -> tuple[tuple[str, _Map], ...]:
    """Free parameters in optimization order, each with its map from u; omega, alpha, beta first."""
    from scipy.special import expit, logit  # imported here: --help and entropy never need it

    logistic = _SOFTMAX._replace(to_theta=lambda u: float(expit(u)),
                                 to_u=lambda t: float(logit(t)))
    # IGARCH's alpha = -expit(u), on (-1, 0) where every d = 1 weight is nonnegative
    negative = _Map(-1.0, 0.0, lambda u: -float(expit(u)), lambda t: float(logit(-t)),
                    lambda t: t * (1.0 + t))
    alpha, beta = {ModelFamily.GARCH: (_SOFTMAX, _SOFTMAX),
                   ModelFamily.IGARCH: (negative, logistic)}.get(family, (_LOG, logistic))
    layout = [("omega", _LOG), ("alpha", alpha), ("beta", beta)]
    if family.pinned_d is None and d_fixed is None:
        layout.append(("d", logistic))
    if innovation == "student":
        layout.append(("nu", _NU))
    return tuple(layout)


def _params_layout(params: ParamVector, family: ModelFamily, d_fixed: float | None):
    """`_layout` of a point: Student-t when it has a ``nu``."""
    return _layout(family, "gaussian" if params.nu is None else "student", d_fixed)


def param_names(family: ModelFamily, innovation: str,
                d_fixed: float | None = None) -> tuple[str, ...]:
    """Names of the free parameters, in optimization order."""
    return tuple(name for name, _ in _layout(family, innovation, d_fixed))


def transform_to_unconstrained(params: ParamVector, family: ModelFamily,
                               d_fixed: float | None = None) -> np.ndarray:
    """Map a strictly interior ParamVector to unconstrained coordinates.

    omega goes through log; for GARCH (alpha, beta) go through the inverse
    of a softmax-style squash that keeps ``alpha + beta < 1``; elsewhere
    beta/d go through logits and alpha through log, or for IGARCH through
    ``logit(-alpha)`` onto (-1, 0); nu maps to ``log(nu - 2)``.  A
    non-finite parameter raises :class:`DomainError`, and a point on or past
    a bound :class:`BoundaryError` naming that bound.
    """
    layout = _params_layout(params, family, d_fixed)
    for name, _ in layout:  # NaN fails every bound below
        if not math.isfinite(getattr(params, name)):
            raise DomainError(f"{name} must be finite, got {getattr(params, name)}")
    rem = 1.0 - params.alpha - params.beta  # the softmax's share of neither alpha nor beta
    u = []
    for name, m in layout:
        theta = getattr(params, name)
        bound = (f"{name} = {theta} is not above {m.lo:g}" if not theta > m.lo
                 else f"{name} = {theta} is not below {m.hi:g}" if not theta < m.hi
                 else f"alpha + beta = {params.alpha + params.beta} is not below 1"
                 if m is _SOFTMAX and not rem > 0 else None)
        if bound is not None:
            raise BoundaryError(f"{bound}: not in the strict interior of the transform")
        u.append(math.log(theta / rem) if m is _SOFTMAX else m.to_u(theta))
    return np.array(u, dtype=float)


def transform_from_unconstrained(u: np.ndarray, family: ModelFamily,
                                 innovation: str,
                                 d_fixed: float | None = None) -> ParamVector:
    """Inverse of :func:`transform_to_unconstrained`.

    ``u`` must be one-dimensional with one entry per free parameter (see
    :func:`param_names`), else :class:`DomainError`.
    """
    layout = _layout(family, innovation, d_fixed)
    u = np.asarray(u, dtype=float)
    if u.shape != (len(layout),):
        raise DomainError(f"u has shape {u.shape}; it takes one entry for each of "
                          f"{', '.join(name for name, _ in layout)}")
    theta = {name: m.to_theta(x) for (name, m), x in zip(layout, u) if m is not _SOFTMAX}
    if layout[1][1] is _SOFTMAX:
        a, b = u[1], u[2]
        top = max(0.0, a, b)  # overflow-stable softmax over (rest, alpha, beta)
        za, zb, z0 = math.exp(a - top), math.exp(b - top), math.exp(-top)
        denom = z0 + za + zb
        theta["alpha"], theta["beta"] = za / denom, zb / denom
    theta.setdefault("d", d_fixed if family.pinned_d is None else family.pinned_d)
    return ParamVector(**theta)


def _jacobian(params: ParamVector, family: ModelFamily,
              d_fixed: float | None = None) -> np.ndarray:
    """d theta / d u of :func:`transform_from_unconstrained` at ``params``.

    Diagonal, each map's ``slope``, except the softmax block of the GARCH
    (alpha, beta) pair.
    """
    layout = _params_layout(params, family, d_fixed)
    J = np.diag([m.slope(getattr(params, name)) for name, m in layout])
    if layout[1][1] is _SOFTMAX:
        J[1, 2] = J[2, 1] = -params.alpha * params.beta
    return J


# ---------------------------------------------------- optimizer and derivatives

def _along(v: np.ndarray, normal: np.ndarray | None) -> np.ndarray:
    """``v`` without its component into the wall of inward ``normal``, if any."""
    return v if normal is None or v @ normal >= 0 else v - (v @ normal) / (normal @ normal) * normal


def _bfgs(fun, x: np.ndarray, max_iters: int, tol: float, wall=None, start=None):
    """Descend ``fun`` by BFGS with a halving line search.

    ``fun(x)`` returns the objective and its gradient, or ``(inf, None)`` at
    a rejected point; a step landing there, or failing the Armijo test, is
    halved (scipy's line searches cannot backtrack from ``inf``).  When
    given, ``wall(x)`` is asked before ``fun``: it returns the point to
    evaluate (``x``, or ``x`` moved back onto the wall that rejects it) and
    the normal of the wall that point is on, or None; ``fun`` is then
    called once per trial point.  On a wall, steps and the gradient lose
    their component into it, so the search slides along the wall.  A
    quasi-Newton step gaining less than ``tol`` is retried as steepest
    descent; a steepest-descent step gaining less than ``tol`` ends the
    search, as do ``max_iters`` iterations.  ``start`` is ``fun(x)`` when
    already known.  Returns ``(x, f, r, iterations)``, ``r`` the gradient
    at ``x`` less its push into the wall ``x`` ends on.
    """
    f, g = fun(x) if start is None else start
    scale, normal = 1.0, None  # scale: s'y / y'y of the last update
    H, fresh = np.eye(x.size), True  # fresh: H is scale * identity, the step steepest descent
    r = g  # the gradient without its push into the wall x is on
    for it in range(max_iters):
        p = _along(-H @ r, normal)
        if not g @ p < 0:  # rounding spoilt H, or the wall blocks the step
            H, fresh, p = scale * np.eye(x.size), True, -scale * r
        t = 1.0 / max(1.0, np.linalg.norm(p)) if fresh else 1.0
        for _ in range(_MAX_HALVINGS):
            x_new, normal_new = (x + t * p, None) if wall is None else wall(x + t * p)
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * min(0.0, g @ (x_new - x)):
                break
            t *= 0.5
        else:  # no acceptable point: stay
            x_new, f_new, g_new, normal_new = x, f, g, normal
        r_new = -_along(-g_new, normal_new)
        s, y = x_new - x, r_new - r
        improvement = f - f_new
        x, f, g, r, normal = x_new, f_new, g_new, r_new, normal_new
        if improvement < tol:
            if fresh:
                return x, f, r, it + 1
            H, fresh = scale * np.eye(x.size), True
            continue
        sy = s @ y
        if sy > 0:  # the curvature condition keeps H positive definite
            if fresh:
                scale = sy / (y @ y)
                H = scale * np.eye(x.size)
            Hy = H @ y
            H += ((sy + y @ Hy) * np.outer(s, s) - sy * (np.outer(Hy, s) + np.outer(s, Hy))) / sy ** 2
            fresh = False
    return x, f, r, max_iters


def _wall(engine: _Likelihood, config: FitConfig, u: np.ndarray,
          band: float = _LAMBDA_TOL) -> tuple[np.ndarray, np.ndarray | None]:
    """The FIGARCH wall lambda_j >= 0 at ``u``, for `_bfgs`.

    When the most negative ARCH(inf) weight lambda_j is rejected, ``u``
    moves onto its wall by Newton steps on lambda_j(u) = 0 along the
    gradient of lambda_j.  Returns the point and, when the smallest
    lambda_j is below ``band`` there, that gradient in u (the wall's
    normal, pointing inside); else None.
    """
    for _ in range(8):
        try:
            q = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
        except OverflowError:
            return u, None
        lam = engine.weights(q).lam
        j = int(lam.argmin())
        if lam[j] >= band:
            return u, None
        try:
            rows = engine.weight_jacobian(q, config.d_fixed is None)[:, j]
        except InfeasibleParamsError:  # d too near 0 or 1 for the derivative in d
            return u, None
        grad = np.zeros(u.size)  # lambda_j's gradient in theta: only alpha, beta[, d] enter
        grad[1:1 + rows.size] = rows
        with np.errstate(over="ignore", invalid="ignore"):  # far-out trial points
            normal = _jacobian(q, config.family, config.d_fixed).T @ grad
            nn = float(normal @ normal)
        if not 0.0 < nn < math.inf:
            return u, None
        if lam[j] >= -_LAMBDA_TOL:
            break
        u = u - lam[j] / nn * normal
    return u, normal


def _off_face(u: np.ndarray, g: np.ndarray, config: FitConfig) -> np.ndarray | None:
    """Where a search stopped at ``u`` on a face restarts, or None.

    The log map of alpha and the logistic map of d flatten the gradient in
    u as alpha -> 0 or d -> 0, 1, which hides a slope in theta that may
    point back inside.  An alpha within ``_FACE`` of 0 restarts at
    ``_ALPHA0``, and a free d within ``_FACE`` of 0 or 1 at ``_D0``, when
    the log-likelihood's slope in theta, from the gradient ``g`` in u of
    the objective, points inside by at least ``_GNORM_CONVERGED`` (an alpha
    that underflowed to 0.0 has a zero map slope, and restarts).  Only
    FIGARCH, whose alpha maps through log, has faces: GARCH's softmax pair
    and IGARCH's alpha on (-1, 0) have none here.
    """
    layout = _layout(config.family, config.innovation, config.d_fixed)
    if layout[1][1] is not _LOG:
        return None
    params = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
    restart = None
    for i, (name, m) in enumerate(layout):
        theta = getattr(params, name) if name in ("alpha", "d") else None
        if theta is not None and theta < _FACE:
            inward = -g[i]  # the objective falls as theta grows
        elif name == "d" and theta > 1.0 - _FACE:
            inward = g[i]
        else:
            continue
        if inward >= _GNORM_CONVERGED * m.slope(theta):
            restart = u.copy() if restart is None else restart
            restart[i] = m.to_u(_ALPHA0 if name == "alpha" else _D0)
    return restart


def _covariance_from_hessian(H: np.ndarray) -> np.ndarray | None:
    """Inverse of -H when -H is positive definite and not singular to working precision.

    -H is judged scaled to a unit diagonal, ``S (-H) S``: theta mixes
    scales (omega about 1e-6, nu about 8), which stretch the eigenvalues of
    -H by as many orders without making the fit any less identified.  An
    eigenvalue of the scaled matrix at or below ``_MIN_EIGEN_RATIO`` of its
    largest is within the rounding of the Hessian's sums, so the covariance
    would carry no digits.  Identified optima sit far above that: the 36
    converged GARCH, IGARCH and FIGARCH Student-t fits (``restarts=0``) of
    twelve FIGARCH-t series (omega 1e-6, alpha 0.2, beta 0.5, d 0.6, nu 8;
    n = 3000, seeds 600-611) have ratios of 4.3e-3 and above.
    """
    A = -np.asarray(H, dtype=float)
    if not np.isfinite(A).all() or (np.diag(A) <= 0.0).any():
        return None
    s = 1.0 / np.sqrt(np.diag(A))
    scale = np.outer(s, s)
    eig, V = np.linalg.eigh(A * scale)
    if eig[0] <= _MIN_EIGEN_RATIO * eig[-1]:
        return None
    return (V / eig) @ V.T * scale


# ------------------------------------------------------------------- objective

def _make_engine(returns, config: FitConfig) -> _Likelihood:
    """The engine of a fit or of its standard errors: negative FIGARCH weights are rejected."""
    return _Likelihood(config.family, returns, config.T, reject_negative_weights=True)


def _unconstrained_score(engine: _Likelihood, u: np.ndarray,
                         config: FitConfig) -> tuple[float, np.ndarray]:
    """Total log-likelihood at unconstrained coordinates ``u`` and its gradient in ``u``."""
    params = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
    loglik, grad = engine.score(params, config.d_fixed is not None)
    return loglik, _jacobian(params, config.family, config.d_fixed).T @ grad


def _initial_params(returns: np.ndarray, config: FitConfig,
                    rng: np.random.Generator, jitter: bool) -> ParamVector:
    layout = dict(_layout(config.family, config.innovation, config.d_fixed))
    var = float(returns.var())
    factors = rng.uniform(0.8, 1.2, size=5) if jitter else np.ones(5)

    alpha = _ALPHA0 * factors[1]
    beta = min(_BETA0 * factors[2], 0.985)
    if config.family is ModelFamily.IGARCH:  # near IGARCH(1,1), the point alpha = -beta
        alpha = -0.95 * beta
    if layout["alpha"] is _SOFTMAX and alpha + beta > 0.995:  # inside alpha + beta < 1
        shrink = 0.995 / (alpha + beta)
        alpha, beta = alpha * shrink, beta * shrink

    omega = 0.1 * var * (1.0 - _ALPHA0 - _BETA0) * factors[0]
    d = config.d_fixed if config.family.pinned_d is None else config.family.pinned_d
    if "d" in layout:
        d = min(max(_D0 * factors[3], 0.05), 0.95)
    elif config.family is ModelFamily.FIGARCH and not jitter:
        # The free d starts at 0.5, where the warm start's weights are all
        # nonnegative; at a fixed d above about 0.615 some are not.  As alpha
        # and beta go to 0, each lambda_j goes to -pi_j >= 0.
        while (frac_weights(d, config.T, alpha, beta).lam < -_LAMBDA_TOL).any():
            alpha, beta = 0.5 * alpha, 0.5 * beta
    nu = max(_NU0 * factors[4], 2.5) if "nu" in layout else None
    return ParamVector(omega=omega, alpha=alpha, beta=beta, d=d, nu=nu)


# ------------------------------------------------------------------------- fit

def fit(series, config: FitConfig) -> FitResult:
    """Maximize the log-likelihood of ``series`` under ``config``.

    Runs ``1 + config.restarts`` starts (the first unjittered, the rest
    jittered by +/-20% per parameter), keeps the best optimum (ties broken
    by lowest start index), and attaches standard errors when the final
    point converged off the boundaries of the transform (``hessian_pd`` is
    False otherwise).  A point has converged when the gradient norm of the
    per-observation objective, less its push into a FIGARCH weight wall
    within ``_WALL_BAND``, is below ``_GNORM_CONVERGED``.  A start whose
    search stops on a face is rerun once from where `_off_face` says, when
    that point is feasible, and the better of the two runs is kept.
    Raises :class:`DomainError` before any start when the returns are
    constant or so small that their mean squared deviation (the backcast)
    is zero or subnormal; :class:`EstimationError` when every start is
    infeasible, :class:`DomainError` instead when the returns are also large
    enough to overflow the ARCH(inf) transform (see
    :attr:`models._Likelihood.transform_may_overflow`), and
    :class:`DataQualityError` when the likelihood is non-finite at every
    candidate.
    """
    engine = _make_engine(series, config)
    returns, n = engine.returns, engine.n
    if n < 50:
        raise InsufficientDataError(f"need at least 50 observations to fit, got {n}")
    if engine.backcast < _SMALLEST_NORMAL:  # the warm start scales omega to it
        raise DomainError(f"returns constant or too small: their mean squared deviation, "
                          f"{engine.backcast:.3g}, is below the smallest normal double")
    quality_failures = 0

    def objective(u: np.ndarray) -> tuple[float, np.ndarray | None]:
        """Mean negative log-likelihood and its gradient; ``inf`` when rejected."""
        nonlocal quality_failures
        try:
            loglik, grad = _unconstrained_score(engine, u, config)
        except (InfeasibleParamsError, OverflowError, FloatingPointError):
            return math.inf, None
        except DataQualityError:
            quality_failures += 1
            return math.inf, None
        return -loglik / n, -grad / n

    def descend(u: np.ndarray, start) -> tuple[np.ndarray, float, np.ndarray, int, bool]:
        """BFGS from ``u``: the point, objective, gradient, iterations and whether it converged.

        The gradient is less its push into the wall of a lambda_j below
        ``_WALL_BAND``, and the point converged when its norm is below
        ``_GNORM_CONVERGED``.
        """
        u, f, g, iters = _bfgs(objective, u, config.max_iters, config.tol, walls, start)
        if walls is not None:  # a search stopped just inside a wall is judged on it
            g = -_along(-g, _wall(engine, config, u, _WALL_BAND)[1])
        return u, f, g, iters, float(np.linalg.norm(g)) < _GNORM_CONVERGED

    walls = (lambda u: _wall(engine, config, u)) if engine.checks_weights else None
    rng = np.random.default_rng(config.seed)
    starts: list[dict] = []  # the diagnostics entry of each start
    best = None  # the run of least objective

    for start_idx in range(1 + config.restarts):
        p0 = _initial_params(returns, config, rng, jitter=start_idx > 0)
        u0 = transform_to_unconstrained(p0, config.family, config.d_fixed)
        fg0 = objective(u0)
        if not math.isfinite(fg0[0]):
            starts.append({"loglik": None, "converged": False, "grad_norm": None,
                           "feasible": False})
            continue

        run = descend(u0, fg0)
        restart = _off_face(run[0], run[2], config)
        fg_restart = (math.inf, None) if restart is None else objective(restart)
        if math.isfinite(fg_restart[0]):
            run = min(run, descend(restart, fg_restart), key=lambda r: r[1])
        starts.append({"loglik": -float(run[1]) * n, "converged": run[4],
                       "grad_norm": float(np.linalg.norm(run[2])), "feasible": True})
        if best is None or run[1] < best[1]:
            best = run

    if best is None:
        if quality_failures:
            raise DataQualityError("log-likelihood non-finite at every candidate start")
        if engine.transform_may_overflow:
            raise DomainError("returns too large: the ARCH(inf) transform of their squares "
                              "overflows a double at every start")
        raise EstimationError("estimation failed: every start was infeasible")

    u_best, f_best, g_best, iters, converged = best
    params = transform_from_unconstrained(u_best, config.family, config.innovation, config.d_fixed)
    validate_params(config.family, params, T=config.T)
    loglik = engine.loglik(params)  # re-evaluated at the returned optimum
    names = param_names(config.family, config.innovation, config.d_fixed)

    se = StdErrReport(None, None, None, None, False)
    if converged:
        try:
            se = _standard_errors(engine, params, config)
        except BoundaryError:  # alpha, beta or d underflowed onto its bound
            pass

    diagnostics = {
        "grad_norm": float(np.linalg.norm(g_best)),
        "objective": float(f_best),
        "hessian_pd": se.hessian_pd,
        "starts": starts,
    }
    if _layout(config.family, config.innovation, config.d_fixed)[1][1] is _LOG:
        # the log map flattens the slope at alpha -> 0 (see `_off_face`): an
        # optimum there may lie past the face, and its Wald errors mean little
        diagnostics["alpha_boundary_suspect"] = params.alpha < _FACE
    if "d" in names:
        diagnostics["d_boundary_suspect"] = min(params.d, 1.0 - params.d) < _FACE
    if params.nu is not None and params.nu > 100.0:
        diagnostics["near_gaussian"] = True

    return FitResult(
        params=params, stderr=se.stderr, pvalues=se.pvalues,
        significance=se.significance, loglik=loglik,
        converged=converged, iterations=int(iters),
        n_obs=n, family=config.family, innovation=config.innovation,
        mean=float(returns.mean()), names=names, cov=se.cov,
        diagnostics=diagnostics,
    )


# --------------------------------------------------------------- uncertainty

def _significance(p: float) -> str:
    if p < 0.01:
        return "1%"
    if p < 0.05:
        return "5%"
    return "none"


def standard_errors(params: ParamVector, series, config: FitConfig) -> StdErrReport:
    """Standard errors at an optimum: the inverse of the negative Hessian.

    The Hessian is the likelihood engine's exact one in the constrained
    parameters (see :meth:`models._Likelihood.hessian`), from one pass.
    An infeasible point, a Hessian that is not negative definite or is
    singular to working precision (see `_covariance_from_hessian`), or a
    covariance that overflows a double yields an absent-but-flagged
    report; a point on a bound of the transform raises
    :class:`BoundaryError`, and a non-finite point or one that disagrees
    with ``config`` (a ``nu`` that its innovation law does not take, or a
    ``d`` other than its ``d_fixed`` or its family's pinned d) raises
    :class:`DomainError`.
    """
    engine = _make_engine(series, config)  # first, so that bad returns are named as such
    if (params.nu is None) != (config.innovation == "gaussian"):
        raise DomainError(f"nu = {params.nu} does not fit {config.innovation} innovations: "
                          f"Student-t innovations need a nu, Gaussian ones none")
    if config.d_fixed is not None and params.d != config.d_fixed:
        raise DomainError(f"d = {params.d} is not the config's d_fixed = {config.d_fixed}")
    pinned = config.family.pinned_d
    if pinned is not None and params.d != pinned:
        raise DomainError(f"d is fixed at {pinned:g} for {config.family.name}, got {params.d}")
    return _standard_errors(engine, params, config)


def _standard_errors(engine: _Likelihood, params: ParamVector, config: FitConfig) -> StdErrReport:
    transform_to_unconstrained(params, config.family, config.d_fixed)  # BoundaryError on a bound
    absent = StdErrReport(None, None, None, None, False)
    # At the omega near 1e200 that one extreme return drives a fit to, the
    # Hessian or its inverse can overflow: a covariance that is not finite
    # is absent (_covariance_from_hessian checks the Hessian).
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            cov = _covariance_from_hessian(engine.hessian(params, config.d_fixed is not None)[2])
        except (InfeasibleParamsError, DataQualityError):
            return absent
    if cov is None or not np.isfinite(cov).all():
        return absent

    names = param_names(config.family, config.innovation, config.d_fixed)
    var = np.clip(np.diag(cov), 0.0, None)
    se = np.sqrt(var)
    est = np.array([getattr(params, n) for n in names], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, est / se, np.inf)
    from scipy.special import ndtr  # imported here: --help and entropy never need it

    pvals = 2.0 * ndtr(-np.abs(z))

    return StdErrReport(
        stderr=dict(zip(names, se.tolist())),
        pvalues=dict(zip(names, pvals.tolist())),
        significance={n: _significance(p) for n, p in zip(names, pvals)},
        cov=cov,
        hessian_pd=True,
    )


def persistence_check(result: FitResult) -> PersistenceCheck:
    """alpha+beta persistence diagnostic of a GARCH fit.

    Flags (strictly) ``alpha + beta > 0.98`` and recommends the integrated /
    fractionally-integrated ladder; the standard error of the sum comes from
    the delta method on the fitted covariance when available.
    """
    if result.family is not ModelFamily.GARCH:
        raise DomainError("persistence_check applies to GARCH fits only")
    total = result.params.alpha + result.params.beta

    stderr = None
    if result.cov is not None:
        ia, ib = result.names.index("alpha"), result.names.index("beta")
        var = result.cov[ia, ia] + result.cov[ib, ib] + 2.0 * result.cov[ia, ib]
        stderr = math.sqrt(max(var, 0.0))

    # strict inequality: a sum of exactly 0.98 (up to addition rounding)
    # does not raise the flag
    flag = total > _PERSISTENCE_FLAG + 1e-12
    recommendation = (
        "alpha + beta is close to 1 (nonlinear persistence); "
        "consider the igarch or figarch family"
    ) if flag else None
    return PersistenceCheck(total=total, stderr=stderr, flag=flag,
                            recommendation=recommendation)
