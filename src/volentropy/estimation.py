"""Constrained maximum-likelihood estimation of the volatility models.

The optimizer works in an unconstrained space reached through a bijective
reparameterization (log for scale parameters, logistic maps for bounded
ones, a softmax-style map enforcing ``alpha + beta < 1`` for GARCH).  Each
fit runs a derivative-free simplex search refined by quasi-Newton steps with
finite-difference gradients, multistarted from jittered warm starts.

Convergence diagnostics (objective improvement, gradient norms) are defined
on the *per-observation* (mean) log-likelihood so they are sample-size
invariant; reported log-likelihoods are totals.

Standard errors use the likelihood engine's exact score (see
:meth:`models._Likelihood.score`).  It is carried to the unconstrained
coordinates by the analytic Jacobian of the inverse transform.  The Hessian
there is built from forward differences of that score: k + 1 score passes
for k free parameters.  The same Jacobian maps the inverse Hessian back to
the constrained space (the delta method).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, logit, ndtr

from .errors import (
    BoundaryError,
    DataQualityError,
    DomainError,
    EstimationError,
    InfeasibleParamsError,
    InsufficientDataError,
)
from .models import (
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
_GNORM_INVARIANT = 1e-3     # documented guarantee for converged fits
_PERSISTENCE_FLAG = 0.98    # strict threshold on alpha + beta


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings: family, innovation law, and optimizer budget."""

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


def transform_to_unconstrained(params: ParamVector, family: ModelFamily,
                               d_fixed: float | None = None) -> np.ndarray:
    """Map a strictly interior ParamVector to unconstrained coordinates.

    omega goes through log; for GARCH (alpha, beta) go through the inverse
    of a softmax-style squash that keeps ``alpha + beta < 1``; elsewhere
    alpha goes through log and beta/d through logits; nu maps to
    ``log(nu - 2)``.  Boundary points raise :class:`BoundaryError`.
    """
    _require_interior(params.omega > 0, "omega = 0")
    u = [math.log(params.omega)]

    if family is ModelFamily.GARCH:
        rem = 1.0 - params.alpha - params.beta
        _require_interior(params.alpha > 0, "alpha = 0")
        _require_interior(params.beta > 0, "beta = 0")
        _require_interior(rem > 0, "alpha + beta = 1")
        u += [math.log(params.alpha / rem), math.log(params.beta / rem)]
    else:
        _require_interior(params.alpha > 0, "alpha = 0")
        _require_interior(0.0 < params.beta < 1.0, "beta boundary")
        u += [math.log(params.alpha), float(logit(params.beta))]
        if family is ModelFamily.FIGARCH and d_fixed is None:
            _require_interior(0.0 < params.d < 1.0, "d boundary")
            u.append(float(logit(params.d)))

    if params.nu is not None:
        _require_interior(params.nu > 2.0, "nu = 2")
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


# ------------------------------------------------------- numerical derivatives

def _fd_gradient(f, x: np.ndarray, rel: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with one-sided fallback at walls."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    f0 = None
    for i in range(x.size):
        h = rel * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = f(xp), f(xm)
        if math.isfinite(fp) and math.isfinite(fm):
            g[i] = (fp - fm) / (2.0 * h)
        else:
            if f0 is None:
                f0 = f(x)
            if math.isfinite(fp):
                g[i] = (fp - f0) / h
            elif math.isfinite(fm):
                g[i] = (f0 - fm) / h
            else:
                g[i] = np.nan
    return g


def _score_hessian(score, x: np.ndarray) -> np.ndarray:
    """Hessian from forward differences of an exact gradient, symmetrised.

    Steps are ``1e-7 * max(1, |x_i|)``, taken as ``(x_i + h) - x_i`` so
    that the divisor is the step actually made.
    """
    x = np.asarray(x, dtype=float)
    s0 = score(x)
    H = np.empty((x.size, x.size))
    for i in range(x.size):
        xs = x.copy()
        xs[i] += 1e-7 * max(1.0, abs(x[i]))
        H[:, i] = (score(xs) - s0) / (xs[i] - x[i])
    return 0.5 * (H + H.T)


def _covariance_from_hessian(H: np.ndarray) -> np.ndarray | None:
    """Inverse of -H when -H is positive definite, else None."""
    A = -np.asarray(H, dtype=float)
    if not np.isfinite(A).all():
        return None
    try:
        factor = cho_factor(A)
    except LinAlgError:
        return None
    return cho_solve(factor, np.eye(A.shape[0]))


# ------------------------------------------------------------------- objective

def _extract_returns(series) -> np.ndarray:
    return np.asarray(getattr(series, "returns", series), dtype=float)


def _make_engine(returns: np.ndarray, config: FitConfig) -> _Likelihood:
    """The engine of a fit or of its standard errors: negative FIGARCH weights are rejected."""
    return _Likelihood(config.family, returns, config.T, reject_negative_weights=True)


def _total_loglik(engine: _Likelihood, u: np.ndarray, config: FitConfig) -> float:
    """Total log-likelihood at unconstrained coordinates ``u``."""
    params = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
    return engine.loglik(params)


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
    point converged.  Raises :class:`EstimationError` when every start is
    infeasible and :class:`DataQualityError` when the likelihood is
    non-finite at every candidate.
    """
    returns = _extract_returns(series)
    n = returns.size
    if n < 50:
        raise InsufficientDataError(f"need at least 50 observations to fit, got {n}")
    engine = _make_engine(returns, config)
    # Imported here so that importing the package does not pay for scipy.optimize.
    from scipy.optimize import minimize

    quality_failures = 0

    def objective(u: np.ndarray) -> float:
        nonlocal quality_failures
        try:
            return -_total_loglik(engine, u, config) / n
        except InfeasibleParamsError:
            return np.inf
        except DataQualityError:
            quality_failures += 1
            return np.inf
        except (OverflowError, FloatingPointError):
            return np.inf

    rng = np.random.default_rng(config.seed)
    starts: list[dict] = []
    best: dict | None = None

    for start_idx in range(1 + config.restarts):
        p0 = _initial_params(returns, config, rng, jitter=start_idx > 0)
        u0 = transform_to_unconstrained(p0, config.family, config.d_fixed)

        # nudge the intercept upward when the start itself is infeasible
        # (relevant for the d = 1 slice, where small omega can be rejected)
        f0 = objective(u0)
        for _ in range(6):
            if math.isfinite(f0):
                break
            u0[0] += math.log(10.0)
            f0 = objective(u0)
        if not math.isfinite(f0):
            starts.append({"loglik": None, "converged": False, "feasible": False})
            continue

        nm = minimize(objective, u0, method="Nelder-Mead",
                      options={"maxiter": config.max_iters,
                               "maxfev": 2 * config.max_iters,
                               "fatol": config.tol, "xatol": 1e-6})
        u_best, f_best, iters = nm.x, nm.fun, nm.nit
        opt_success = bool(nm.success)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                polish = minimize(objective, u_best, method="BFGS",
                                  jac=lambda u: _fd_gradient(objective, u),
                                  options={"gtol": 5e-6,
                                           "maxiter": min(200, config.max_iters)})
                if math.isfinite(polish.fun) and polish.fun <= f_best:
                    u_best, f_best = polish.x, polish.fun
                    iters += polish.nit
                    opt_success = opt_success or bool(polish.success)
            except (ValueError, LinAlgError):
                pass

        gnorm = float(np.linalg.norm(_fd_gradient(objective, u_best)))
        converged = opt_success and math.isfinite(gnorm) and gnorm < _GNORM_CONVERGED
        record = {
            "u": u_best, "objective": float(f_best), "iterations": int(iters),
            "converged": converged, "grad_norm": gnorm, "feasible": True,
            "loglik": -float(f_best) * n,
        }
        starts.append(record)
        if math.isfinite(f_best) and (best is None or f_best < best["objective"]):
            best = record

    if best is None:
        if quality_failures and all(not s.get("feasible") for s in starts):
            raise DataQualityError("log-likelihood non-finite at every candidate start")
        raise EstimationError("estimation failed: every start was infeasible")

    params = transform_from_unconstrained(best["u"], config.family,
                                          config.innovation, config.d_fixed)
    validate_params(config.family, params, T=config.T)
    loglik = _total_loglik(engine, best["u"], config)  # re-evaluated at the returned optimum
    names = param_names(config.family, config.innovation, config.d_fixed)

    if best["converged"]:
        se = standard_errors(params, returns, config)
    else:
        se = StdErrReport(None, None, None, None, False)

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
    comes from forward differences of its exact score (see
    :meth:`models._Likelihood.score`), one score pass per coordinate plus the
    centre, with steps ``1e-7 * max(1, |u_i|)``; it is symmetrised.  The
    score is mapped to those coordinates, and the negative inverse Hessian
    back to the constrained space, through the analytic Jacobian of the
    inverse transform.  A Hessian that is not negative definite, or a score
    pass at an infeasible point, yields an absent-but-flagged report.
    """
    engine = _make_engine(_extract_returns(series), config)
    fixed_d = config.d_fixed is not None

    def score(u: np.ndarray) -> np.ndarray:
        p = transform_from_unconstrained(u, config.family, config.innovation, config.d_fixed)
        try:
            grad = engine.score(p, fixed_d)[1]
        except (InfeasibleParamsError, DataQualityError):
            return np.full(u.size, np.nan)
        return _jacobian(p, config.family, config.d_fixed).T @ grad

    u0 = transform_to_unconstrained(params, config.family, config.d_fixed)
    cov_u = _covariance_from_hessian(_score_hessian(score, u0))
    if cov_u is None:
        return StdErrReport(None, None, None, None, False)

    names = param_names(config.family, config.innovation, config.d_fixed)
    J = _jacobian(params, config.family, config.d_fixed)
    cov = J @ cov_u @ J.T
    var = np.clip(np.diag(cov), 0.0, None)
    se = np.sqrt(var)
    est = _params_to_vector(params, names)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, est / se, np.inf)
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
