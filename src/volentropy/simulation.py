"""Synthetic GARCH/IGARCH/FIGARCH path generation and squared-return ACF.

The simulator is the independent oracle behind the estimation tests: it
draws i.i.d. standardized innovations, builds conditional variances with the
same recursions the likelihood uses, and emits ``e_t = z_t * sigma_t``.
Everything is a pure function of the config, including the seed.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .errors import AutocorrUndefinedError, DomainError, InfeasibleParamsError
from .models import (
    DEFAULT_TRUNCATION,
    ModelFamily,
    ParamVector,
    VariancePath,
    _loglik_from_path,
    frac_weights,
    validate_params,
)
from .series import ReturnSeries

__all__ = ["SimConfig", "simulate_path", "squared_autocorr"]

DEFAULT_BURN_IN = 2000

_EPOCH = dt.date(2000, 1, 1)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: family, true parameters, length, burn-in, seed."""

    family: ModelFamily
    params: ParamVector
    n: int
    burn_in: int = DEFAULT_BURN_IN
    T: int = DEFAULT_TRUNCATION
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"path length must be >= 1, got {self.n}")
        if self.burn_in < 0:
            raise DomainError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.T < 1:
            raise DomainError(f"truncation horizon must be >= 1, got {self.T}")
        validate_params(self.family, self.params, T=self.T)


def _draw_innovations(rng: np.random.Generator, n: int, nu: float | None) -> np.ndarray:
    if nu is None:
        return rng.standard_normal(n)
    # classical t_nu rescaled to unit variance
    return rng.standard_t(nu, n) * math.sqrt((nu - 2.0) / nu)


def _simulate_garch(p: ParamVector, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = z.size
    e = np.empty(n)
    sig2 = np.empty(n)
    s = p.omega / (1.0 - p.alpha - p.beta)  # start at the unconditional variance
    omega, alpha, beta = p.omega, p.alpha, p.beta
    for t in range(n):
        sig2[t] = s
        e[t] = z[t] * math.sqrt(s)
        s = omega + alpha * e[t] * e[t] + beta * s
    return e, sig2


def _simulate_arch_inf(p: ParamVector, d: float, z: np.ndarray, T: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    n = z.size
    lam = frac_weights(d, T, p.alpha, p.beta).lam
    lam_rev = lam[::-1].copy()
    base = p.omega / (1.0 - p.beta)

    # pre-sample squared innovations start at the process level implied by
    # the truncated weights; at the integrated boundary (weights summing to
    # >= 1) fall back to the intercept level and let burn-in take over
    s_lam = float(lam.sum())
    level = base / (1.0 - s_lam) if s_lam < 1.0 - 1e-9 else base

    e2 = np.empty(T + n)
    e2[:T] = level
    e = np.empty(n)
    sig2 = np.empty(n)
    for t in range(n):
        s = base + float(np.dot(lam_rev, e2[t:t + T]))
        if not (s > 0.0 and math.isfinite(s)):
            raise InfeasibleParamsError(
                f"simulated conditional variance became non-positive at step {t} "
                f"(sigma2 = {s:.3e}); increase omega or adjust the coefficients"
            )
        sig2[t] = s
        e[t] = z[t] * math.sqrt(s)
        e2[T + t] = e[t] * e[t]
    return e, sig2


def simulate_path(config: SimConfig) -> tuple[ReturnSeries, VariancePath]:
    """Simulate a return path plus its conditional-variance path.

    The first ``burn_in`` observations are discarded.  Output dates are
    synthetic consecutive days so the series round-trips through the file
    loaders.  Identical configs (including seed) give identical output.
    """
    p = config.params
    total = config.n + config.burn_in
    rng = np.random.default_rng(config.seed)
    z = _draw_innovations(rng, total, p.nu)

    if config.family is ModelFamily.GARCH:
        e, sig2 = _simulate_garch(p, z)
    else:
        d = 1.0 if config.family is ModelFamily.IGARCH else p.d
        e, sig2 = _simulate_arch_inf(p, d, z, config.T)

    e, sig2 = e[config.burn_in:], sig2[config.burn_in:]
    loglik = _loglik_from_path(sig2, e * e, p.nu)

    dates = tuple(_EPOCH + dt.timedelta(days=i) for i in range(config.n))
    series = ReturnSeries(
        id=f"sim-{config.family.value}",
        dates=dates,
        returns=e,
        source=f"simulated(family={config.family.value}, n={config.n}, seed={config.seed})",
    )
    return series, VariancePath(sigma2=sig2, loglik=loglik)


def squared_autocorr(returns: np.ndarray, max_lag: int,
                     include_lag0: bool = False) -> np.ndarray:
    """Sample autocorrelation of the squared series at lags 1..max_lag.

    With ``include_lag0`` the (definitionally unit) lag-0 value is prepended.
    Constant input has no defined autocorrelation and raises
    :class:`AutocorrUndefinedError`.
    """
    r = np.asarray(getattr(returns, "returns", returns), dtype=float)
    if max_lag < 1:
        raise DomainError(f"max_lag must be >= 1, got {max_lag}")
    if r.size <= max_lag:
        raise DomainError(f"need more than {max_lag} observations, got {r.size}")

    x = r * r
    x = x - x.mean()
    denom = float(np.dot(x, x))
    if denom <= 0.0:
        raise AutocorrUndefinedError("squared series is constant; autocorrelation undefined")

    acf = np.array([float(np.dot(x[:-k], x[k:])) / denom for k in range(1, max_lag + 1)])
    if include_lag0:
        acf = np.concatenate(([1.0], acf))
    return acf
