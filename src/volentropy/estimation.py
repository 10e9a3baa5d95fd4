"""Constrained maximum-likelihood estimation of the volatility models.

The optimizer works in an unconstrained space reached through a bijective
reparameterization (log for scale parameters, logistic maps for bounded
ones, a softmax-style map enforcing ``alpha + beta < 1`` for GARCH).  Each
fit runs BFGS on the exact score, with a line search that halves any step
landing on a rejected point, multistarted from jittered warm starts.  Three
features of these models need more than that.  FIGARCH's lambda_j >= 0
walls: a rejected point is moved back onto its wall and the search slides
along it.  The faces alpha -> 0 and d -> 0, 1, where the log and logit maps
flatten the gradient: a point there is checked, and probed, in theta.  And
the IGARCH alpha = 0 face, flat along omega/(1-beta): a fit ending on it is
rerun from the face's beta -> 1 end.

Convergence diagnostics (objective improvement, gradient norms) are defined
on the *per-observation* (mean) log-likelihood so they are sample-size
invariant; reported log-likelihoods are totals.

The optimizer's gradient is the likelihood engine's exact score (see
:meth:`models._Likelihood.score`), carried to the unconstrained coordinates
by the analytic Jacobian of the inverse transform.  Standard errors take the
engine's exact Hessian (:meth:`models._Likelihood.hessian`, one pass), carried
there by the same Jacobian plus the transform's curvature; the Jacobian maps
the inverse Hessian back to the constrained space (the delta method).  A
Hessian that is not negative definite, or is singular to working precision,
gives no standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    DEFAULT_TRUNCATION,
    ModelFamily,
    ParamVector,
    _Likelihood,
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

INNOVATIONS = ("gaussian", "student")

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
_FACE = 1e-3                # alpha, or d from its nearer bound, on a face (see `_shape`)
_RIDGE_GAP = 1e-9           # 1 - beta at the end of the IGARCH alpha = 0 face
_PERSISTENCE_FLAG = 0.98    # strict threshold on alpha + beta
# Smallest eigenvalue ratio of a scaled -H that still gives a covariance
# (see `_covariance_from_hessian`): 1000 machine epsilons, about 2.2e-13.
_MIN_EIGEN_RATIO = 1e3 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings: family, innovation law, and optimizer budget.

    ``max_iters`` bounds the BFGS iterations from each start.  A step
    gaining less than ``tol`` in the per-observation negative
    log-likelihood ends a BFGS run, after one steepest-descent retry if it
    was quasi-Newton; so does a probe out of a face gaining less.
    """

    family: ModelFamily
    innovation: str = "student"
    T: int = DEFAULT_TRUNCATION
    max_iters: int = 2000
    tol: float = 1e-9
    restarts: int = 2
    seed: int = 0
    d_fixed: float | None = None

    def __post_init__(self) -> None:
        if self.innovation not in INNOVATIONS:
            raise DomainError(f"innovation must be one of {INNOVATIONS}, got {self.innovation!r}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 0:
            raise DomainError(f"restarts must be >= 0, got {self.restarts}")
        if self.T < 1:
            raise DomainError(f"truncation horizon must be >= 1, got {self.T}")
        if self.d_fixed is not None:
            if self.family is not ModelFamily.FIGARCH:
                raise DomainError("d_fixed applies only to the FIGARCH family")
            if not (0.0 < self.d_fixed < 1.0):
                raise DomainError(
                    "d_fixed must lie strictly inside (0,1); the d=1 boundary is "
                    "the IGARCH family and d=0 is plain GARCH"
                )


@dataclass(frozen=True)
class StdErrReport:
    """Standard errors, p-values and significance flags for one optimum.

    All three dictionaries are ``None`` when the negative Hessian is not
    positive definite (``hessian_pd`` records which case applies);
    ``cov`` is the delta-method covariance in the constrained space.
    """

    stderr: dict[str, float] | None
    pvalues: dict[str, float] | None
    significance: dict[str, str] | None
    cov: np.ndarray | None
    hessian_pd: bool


@dataclass(frozen=True)
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

def param_names(family: ModelFamily, innovation: str,
                d_fixed: float | None = None) -> tuple[str, ...]:
    """Names of the free parameters, in optimization order."""
    names = ["omega", "alpha", "beta"]
    if family is ModelFamily.FIGARCH and d_fixed is None:
        names.append("d")
    if innovation == "student":
        names.append("nu")
    return tuple(names)


def _require_interior(ok: bool, what: str) -> None:
    if not ok:
        raise BoundaryError(
            f"{what} sits on a constraint boundary; nudge the parameters into "
            f"the strict interior before transforming"
        )


def _check_interior(params: ParamVector, family: ModelFamily,
                    d_fixed: float | None = None) -> None:
    """Raise :class:`BoundaryError` unless ``params`` is strictly inside the transform's domain."""
    _require_interior(params.omega > 0, "omega = 0")
    _require_interior(params.alpha > 0, "alpha = 0")
    if family is ModelFamily.GARCH:
        _require_interior(params.beta > 0, "beta = 0")
        _require_interior(1.0 - params.alpha - params.beta > 0, "alpha + beta = 1")
    else:
        _require_interior(0.0 < params.beta < 1.0, "beta boundary")
        if family is ModelFamily.FIGARCH and d_fixed is None:
            _require_interior(0.0 < params.d < 1.0, "d boundary")
    if params.nu is not None:
        _require_interior(params.nu > 2.0, "nu = 2")


def transform_to_unconstrained(params: ParamVector, family: ModelFamily,
                               d_fixed: float | None = None) -> np.ndarray:
    """Map a strictly interior ParamVector to unconstrained coordinates.

    omega goes through log; for GARCH (alpha, beta) go through the inverse
    of a softmax-style squash that keeps ``alpha + beta < 1``; elsewhere
    alpha goes through log and beta/d through logits; nu maps to
    ``log(nu - 2)``.  Boundary points raise :class:`BoundaryError`.
    """
    _check_interior(params, family, d_fixed)
    u = [math.log(params.omega)]

    if family is ModelFamily.GARCH:
        rem = 1.0 - params.alpha - params.beta
        u += [math.log(params.alpha / rem), math.log(params.beta / rem)]
    else:
        from scipy.special import logit  # imported here: --help and entropy never need it

        u += [math.log(params.alpha), float(logit(params.beta))]
        if family is ModelFamily.FIGARCH and d_fixed is None:
            u.append(float(logit(params.d)))

    if params.nu is not None:
        u.append(math.log(params.nu - 2.0))
    return np.array(u, dtype=float)


def transform_from_unconstrained(u: np.ndarray, family: ModelFamily,
                                 innovation: str,
                                 d_fixed: float | None = None) -> ParamVector:
    """Inverse of :func:`transform_to_unconstrained`."""
    u = np.asarray(u, dtype=float)
    omega = math.exp(u[0])

    if family is ModelFamily.GARCH:
        a, b = u[1], u[2]
        m = max(0.0, a, b)  # overflow-stable softmax over (rest, alpha, beta)
        za, zb, z0 = math.exp(a - m), math.exp(b - m), math.exp(-m)
        denom = z0 + za + zb
        alpha, beta, d = za / denom, zb / denom, 0.0
        k = 3
    else:
        from scipy.special import expit  # imported here: --help and entropy never need it

        alpha, beta = math.exp(u[1]), float(expit(u[2]))
        if family is ModelFamily.IGARCH:
            d, k = 1.0, 3
        elif d_fixed is not None:
            d, k = d_fixed, 3
        else:
            d, k = float(expit(u[3])), 4

    nu = 2.0 + math.exp(u[k]) if innovation == "student" else None
    return ParamVector(omega=omega, alpha=alpha, beta=beta, d=d, nu=nu)


def _params_to_vector(params: ParamVector, names: tuple[str, ...]) -> np.ndarray:
    return np.array([getattr(params, n) for n in names], dtype=float)


def _jacobian(params: ParamVector, family: ModelFamily,
              d_fixed: float | None = None) -> np.ndarray:
    """d theta / d u of :func:`transform_from_unconstrained` at ``params``.

    Diagonal (exp, logistic and ``2 + exp`` maps), except the softmax block
    of the GARCH (alpha, beta) pair.
    """
    a, b = params.alpha, params.beta
    diag = [params.omega, a * (1.0 - a), b * (1.0 - b)]
    if family is not ModelFamily.GARCH:
        diag[1] = a
        if family is ModelFamily.FIGARCH and d_fixed is None:
            diag.append(params.d * (1.0 - params.d))
    if params.nu is not None:
        diag.append(params.nu - 2.0)
    J = np.diag(diag)
    if family is ModelFamily.GARCH:
        J[1, 2] = J[2, 1] = -a * b
    return J


def _curvature(params: ParamVector, config: FitConfig, grad: np.ndarray,
               grad_u: np.ndarray) -> np.ndarray:
    """``sum_i grad_i d^2 theta_i / du du'``, for the gradient in theta ``grad``.

    The term a Hessian mapped to u gains from the curvature of the maps.
    Taken twice in the same coordinate, each map's derivative is its first
    times 1 (the exp maps) or ``1 - 2 theta_j`` (the logistic maps, and the
    softmax derivatives of both alpha and beta), so the diagonal is that
    factor times ``grad_u``, the gradient in u.  Only the GARCH softmax has
    cross terms.
    """
    a, b = params.alpha, params.beta
    garch = config.family is ModelFamily.GARCH
    factor = [1.0, 1.0 - 2.0 * a if garch else 1.0, 1.0 - 2.0 * b]
    if config.family is ModelFamily.FIGARCH and config.d_fixed is None:
        factor.append(1.0 - 2.0 * params.d)
    if params.nu is not None:
        factor.append(1.0)
    C = np.diag(np.array(factor) * grad_u)
    if garch:
        C[1, 2] = C[2, 1] = -a * b * ((1.0 - 2.0 * a) * grad[1] + (1.0 - 2.0 * b) * grad[2])
    return C


# ---------------------------------------------------- optimizer and derivatives

def _along(v: np.ndarray, normal: np.ndarray | None) -> np.ndarray:
    """``v`` without its component into the wall of inward ``normal``, if any."""
    return v if normal is None or v @ normal >= 0 else v - (v @ normal) / (normal @ normal) * normal


def _bfgs(fun, x: np.ndarray, max_iters: int, tol: float, wall=None, start=None):
    """Descend ``fun`` by BFGS with a halving line search.

    ``fun(x)`` returns the objective and its gradient, or ``(inf, None)`` at
    a rejected point; a step landing there, or failing the Armijo test, is
    halved (scipy's line searches cannot backtrack from ``inf``).  When
    given, ``wall(x_new)`` moves a point a wall rejects back onto that wall,
    and returns it with the normal of the wall it is on, or None.
    On a wall, steps and the gradient lose their component into it, so the
    search slides along the wall.  A quasi-Newton step gaining less than
    ``tol`` is retried as steepest descent; a steepest-descent step gaining
    less than ``tol`` ends the search, as do ``max_iters`` iterations.
    ``start`` is ``fun(x)`` when already known.  Returns ``(x, f, r,
    iterations)``, ``r`` the gradient at ``x`` less its push into the wall
    ``x`` ends on.
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
            x_new, normal_new = x + t * p, None
            f_new, g_new = fun(x_new)
            if wall is not None:
                x_wall, normal_new = wall(x_new)
                if x_wall is not x_new:
                    x_new, (f_new, g_new) = x_wall, fun(x_wall)
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


def _shape(engine: _Likelihood, u: np.ndarray, r: np.ndarray,
           config: FitConfig) -> list[tuple[int, float, float]]:
    """(index in u, value, slope) of alpha and a free d, for IGARCH and FIGARCH.

    They map alpha through log and d through a logit, so the gradient in u
    vanishes as alpha -> 0 or d -> 0, 1 and hides a slope in theta that may
    point back into the interior.  The slope is d loglik / d theta per
    observation, from the gradient ``r`` in u of the objective (less its
    push into a wall), divided by the map's derivative; where that
    underflowed to 0, from the engine's score.  beta is left out: it also
    moves the intercept omega/(1-beta).
    """
    if config.family is ModelFamily.GARCH:
        return []
    params = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
    coords = [(1, params.alpha, params.alpha)]
    if config.family is ModelFamily.FIGARCH and config.d_fixed is None:
        coords.append((3, params.d, params.d * (1.0 - params.d)))
    if min(jac for _, _, jac in coords) > 0.0:
        return [(i, value, -r[i] / jac) for i, value, jac in coords]
    grad = engine.score(params, config.d_fixed is not None)[1] / engine.n
    return [(i, value, grad[i]) for i, value, _ in coords]


def _probe(objective, u: np.ndarray, f: float, shape, tol: float):
    """Steps in theta along one coordinate of `_shape`, uphill in the log-likelihood.

    Coordinates with a slope above ``_GNORM_CONVERGED`` are tried steepest
    first; steps of 1e-6, 4e-6, ... 0.26 go on while the objective falls
    and theta stays inside its bounds.  Returns ``(u, objective(u))`` at
    the last of them when the run gains at least ``tol``, else None.
    """
    from scipy.special import logit  # imported here: --help and entropy never need it

    for i, value, slope in sorted(shape, key=lambda c: -abs(c[2])):
        f_last, best = f, None
        for k in range(10 if abs(slope) > _GNORM_CONVERGED else 0):
            theta = value + math.copysign(1e-6 * 4.0 ** k, slope)
            if not 0.0 < theta < (math.inf if i == 1 else 1.0):
                break
            v = u.copy()
            v[i] = math.log(theta) if i == 1 else float(logit(theta))
            fg = objective(v)
            if not fg[0] < f_last:
                break
            f_last, best = fg[0], (v, fg)
        if best is not None and f - f_last >= tol:
            return best
    return None


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
        normal = np.zeros(u.size)
        with np.errstate(over="ignore", invalid="ignore"):  # far-out trial points
            normal[1:1 + rows.size] = rows * np.diag(_jacobian(q, config.family, config.d_fixed))[1:1 + rows.size]
            nn = float(normal @ normal)
        if not 0.0 < nn < math.inf:
            return u, None
        if lam[j] >= -_LAMBDA_TOL:
            break
        u = u - lam[j] / nn * normal
    return u, normal


def _ridge_end(u: np.ndarray, config: FitConfig) -> np.ndarray | None:
    """The beta -> 1 end of the IGARCH alpha = 0 face through ``u``, with alpha restored.

    The IGARCH weights are lambda_1 = 1 + alpha and lambda_j =
    -alpha (1-beta) beta^(j-2) beyond, so at alpha = 0 they are (1, 0, ...)
    whatever beta, and the face is flat along omega/(1-beta) = const.  Only
    at its beta -> 1 end can alpha grow without the negative weights, and a
    search that stops elsewhere on the face does not find that end.  None
    unless ``u`` is an IGARCH point with alpha within ``_FACE`` of 0.
    """
    if config.family is not ModelFamily.IGARCH or math.exp(u[1]) >= _FACE:
        return None
    params = transform_from_unconstrained(u, config.family, config.innovation)
    level = params.omega / (1.0 - params.beta)
    end = params.with_(omega=level * _RIDGE_GAP, alpha=_ALPHA0, beta=1.0 - _RIDGE_GAP)
    return transform_to_unconstrained(end, config.family)


def _covariance_from_hessian(H: np.ndarray) -> np.ndarray | None:
    """Inverse of -H when -H is positive definite and not singular to working precision.

    -H is judged scaled to a unit diagonal, ``S (-H) S``: the diagonal
    Jacobian of the log and logit maps rescales rows and columns, so a
    parameter near its bound (IGARCH alpha about 1e-9) shrinks an eigenvalue
    of -H without making the fit any less identified.  An eigenvalue of the
    scaled matrix at or below ``_MIN_EIGEN_RATIO`` of its largest is within
    the rounding of the Hessian's sums, so the covariance would carry no
    digits.  So it is at the IGARCH ridge end beta = 1 - 1e-9, flat along
    omega/(1-beta): the fits of fit_ladder seeds 200-219 there sit at
    1e-17..4e-14, the next IGARCH fits at 1e-12 and above.
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

def _extract_returns(series) -> np.ndarray:
    return np.asarray(getattr(series, "returns", series), dtype=float)


def _make_engine(returns: np.ndarray, config: FitConfig) -> _Likelihood:
    """The engine of a fit or of its standard errors: negative FIGARCH weights are rejected."""
    return _Likelihood(config.family, returns, config.T, reject_negative_weights=True)


def _unconstrained_score(engine: _Likelihood, u: np.ndarray,
                         config: FitConfig) -> tuple[float, np.ndarray]:
    """Total log-likelihood at unconstrained coordinates ``u`` and its gradient in ``u``."""
    params = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
    loglik, grad = engine.score(params, config.d_fixed is not None)
    return loglik, _jacobian(params, config.family, config.d_fixed).T @ grad


def _unconstrained_hessian(engine: _Likelihood, params: ParamVector,
                           config: FitConfig) -> np.ndarray:
    """Hessian of the total log-likelihood in the unconstrained coordinates of ``params``.

    From one engine pass: ``J' H_theta J`` plus the curvature of the maps
    (see `_curvature`), which does not vanish off an optimum.
    """
    _, grad, H = engine.hessian(params, config.d_fixed is not None)
    J = _jacobian(params, config.family, config.d_fixed)
    return J.T @ H @ J + _curvature(params, config, grad, J.T @ grad)


def _initial_params(returns: np.ndarray, config: FitConfig,
                    rng: np.random.Generator, jitter: bool) -> ParamVector:
    var = float(returns.var())
    factors = rng.uniform(0.8, 1.2, size=5) if jitter else np.ones(5)

    alpha = _ALPHA0 * factors[1]
    beta = min(_BETA0 * factors[2], 0.985)
    if config.family is ModelFamily.GARCH and alpha + beta > 0.995:
        shrink = 0.995 / (alpha + beta)
        alpha, beta = alpha * shrink, beta * shrink

    omega = 0.1 * var * (1.0 - _ALPHA0 - _BETA0) * factors[0]
    d = 0.0
    if config.family is ModelFamily.IGARCH:
        d = 1.0
    elif config.family is ModelFamily.FIGARCH:
        d = config.d_fixed if config.d_fixed is not None else min(max(_D0 * factors[3], 0.05), 0.95)
    nu = _NU0 * factors[4] if config.innovation == "student" else None
    if nu is not None:
        nu = max(nu, 2.5)
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
    within ``_WALL_BAND``, is below ``_GNORM_CONVERGED``, and no face it
    sits on hides an inward slope that a probe can climb (see `_shape` and
    `_probe`).  Raises :class:`EstimationError` when every start is infeasible and
    :class:`DataQualityError` when the likelihood is non-finite at every
    candidate.
    """
    returns = _extract_returns(series)
    n = returns.size
    if n < 50:
        raise InsufficientDataError(f"need at least 50 observations to fit, got {n}")
    engine = _make_engine(returns, config)
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
        """BFGS from ``u``, and again from wherever `_probe` finds a better point.

        Returns the point, objective, gradient (less its push into the
        wall of a lambda_j below ``_WALL_BAND``), iterations and whether the
        point converged: that gradient's norm below ``_GNORM_CONVERGED``, and no
        probe into the interior from a face (see `_shape`) gains ``tol``.
        """
        iters = 0
        while True:
            u, f, g, k = _bfgs(objective, u, config.max_iters - iters, config.tol, walls, start)
            iters += k
            if walls is not None:  # a search stopped just inside a wall is judged on it
                g = -_along(-g, _wall(engine, config, u, _WALL_BAND)[1])
            shape = _shape(engine, u, g, config)
            small = float(np.linalg.norm(g)) < _GNORM_CONVERGED
            if small and not any((value < _FACE and slope > 0) or (value > 1.0 - _FACE and slope < 0)
                                 for _, value, slope in shape):
                return u, f, g, iters, True
            probe = _probe(objective, u, f, shape, config.tol) if iters < config.max_iters else None
            if probe is None:
                return u, f, g, iters, small
            u, start = probe

    walls = (lambda u: _wall(engine, config, u)) if engine.checks_weights else None
    rng = np.random.default_rng(config.seed)
    starts: list[dict] = []
    best: dict | None = None

    for start_idx in range(1 + config.restarts):
        p0 = _initial_params(returns, config, rng, jitter=start_idx > 0)
        u0 = transform_to_unconstrained(p0, config.family, config.d_fixed)

        # nudge the intercept upward when the start itself is infeasible
        # (relevant for the d = 1 slice, where small omega can be rejected)
        for _ in range(7):
            fg0 = objective(u0)
            if math.isfinite(fg0[0]):
                break
            u0[0] += math.log(10.0)
        else:
            starts.append({"loglik": None, "converged": False, "feasible": False})
            continue

        run = descend(u0, fg0)
        ridge = _ridge_end(run[0], config)
        fg_ridge = (math.inf, None) if ridge is None else objective(ridge)
        if math.isfinite(fg_ridge[0]):
            run = min(run, descend(ridge, fg_ridge), key=lambda r: r[1])
        u_best, f_best, g_best, iters, converged = run
        gnorm = float(np.linalg.norm(g_best))
        record = {
            "u": u_best, "objective": float(f_best), "iterations": int(iters),
            "converged": converged, "grad_norm": gnorm, "feasible": True,
            "loglik": -float(f_best) * n,
        }
        starts.append(record)
        if best is None or f_best < best["objective"]:
            best = record

    if best is None:
        if quality_failures and all(not s.get("feasible") for s in starts):
            raise DataQualityError("log-likelihood non-finite at every candidate start")
        raise EstimationError("estimation failed: every start was infeasible")

    params = transform_from_unconstrained(best["u"], config.family,
                                          config.innovation, config.d_fixed)
    validate_params(config.family, params, T=config.T)
    loglik = engine.loglik(params)  # re-evaluated at the returned optimum
    names = param_names(config.family, config.innovation, config.d_fixed)

    se = StdErrReport(None, None, None, None, False)
    if best["converged"]:
        try:
            se = _standard_errors(engine, params, config)
        except BoundaryError:  # alpha, beta or d underflowed onto its bound
            pass

    diagnostics = {
        "grad_norm": best["grad_norm"],
        "objective": best["objective"],
        "hessian_pd": se.hessian_pd,
        "starts": [
            {k: s.get(k) for k in ("loglik", "converged", "grad_norm", "feasible")}
            for s in starts
        ],
    }
    if config.family is ModelFamily.FIGARCH and config.d_fixed is None:
        diagnostics["d_boundary_suspect"] = min(params.d, 1.0 - params.d) < 1e-3
    if params.nu is not None and params.nu > 100.0:
        diagnostics["near_gaussian"] = True

    return FitResult(
        params=params, stderr=se.stderr, pvalues=se.pvalues,
        significance=se.significance, loglik=loglik,
        converged=best["converged"], iterations=best["iterations"],
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
    """Delta-method standard errors at an optimum.

    The Hessian of the total log-likelihood in the unconstrained coordinates
    is exact: the likelihood engine's analytic Hessian in the constrained
    parameters (see :meth:`models._Likelihood.hessian`), mapped through the
    analytic Jacobian of the inverse transform plus the curvature of that
    transform weighted by the score, all from one engine pass.  The same
    Jacobian maps the negative inverse Hessian back to the constrained space.
    An infeasible point, a Hessian that is not negative definite or is
    singular to working precision (see `_covariance_from_hessian`), or a
    constrained covariance that overflows a double yields an
    absent-but-flagged report; a point on a bound of the transform raises
    :class:`BoundaryError`.
    """
    return _standard_errors(_make_engine(_extract_returns(series), config), params, config)


def _standard_errors(engine: _Likelihood, params: ParamVector, config: FitConfig) -> StdErrReport:
    _check_interior(params, config.family, config.d_fixed)
    absent = StdErrReport(None, None, None, None, False)
    # At the omega near 1e200 that one extreme return drives a fit to, the
    # Hessian or the delta-method product can overflow: a covariance that is
    # not finite is absent (_covariance_from_hessian checks the Hessian).
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            cov_u = _covariance_from_hessian(_unconstrained_hessian(engine, params, config))
        except (InfeasibleParamsError, DataQualityError):
            return absent
        if cov_u is None:
            return absent
        J = _jacobian(params, config.family, config.d_fixed)
        cov = J @ cov_u @ J.T
    if not np.isfinite(cov).all():
        return absent

    names = param_names(config.family, config.innovation, config.d_fixed)
    var = np.clip(np.diag(cov), 0.0, None)
    se = np.sqrt(var)
    est = _params_to_vector(params, names)
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
