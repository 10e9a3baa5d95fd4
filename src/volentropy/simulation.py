"""Synthetic GARCH/IGARCH/FIGARCH path generation and squared-return ACF.

The simulator is the independent oracle behind the estimation tests: it
draws i.i.d. standardized innovations, builds conditional variances with the
same recursions the likelihood uses, and emits ``e_t = z_t * sigma_t`` with
those variances.  It evaluates no likelihood; :mod:`volentropy.models` does.
Everything is a pure function of the config, including the seed.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_BURN_IN, DEFAULT_TRUNCATION, ModelFamily
from .errors import AutocorrUndefinedError, DomainError, InfeasibleParamsError, _integer
from .models import ParamVector, frac_weights, validate_params
from .series import ReturnSeries, _as_returns

__all__ = ["MAX_PATH_LENGTH", "SimConfig", "simulate_path", "squared_autocorr"]

_EPOCH = dt.date(2000, 1, 1)

# simulated days run from _EPOCH, and the calendar ends at 9999-12-31
MAX_PATH_LENGTH = dt.date.max.toordinal() - _EPOCH.toordinal() + 1


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings: family, true parameters, length, burn-in, seed.

    A path's days run from 2000-01-01, so ``n`` is at most
    ``MAX_PATH_LENGTH`` (2 921 940, ending at 9999-12-31).
    """

    family: ModelFamily
    params: ParamVector
    n: int
    burn_in: int = DEFAULT_BURN_IN
    T: int = DEFAULT_TRUNCATION
    seed: int = 0

    def __post_init__(self) -> None:
        if _integer(self.n, "path length") > MAX_PATH_LENGTH:
            raise DomainError(
                f"path length must be at most {MAX_PATH_LENGTH}, got {self.n}: simulated "
                f"days run from {_EPOCH} and the calendar ends at {dt.date.max}")
        _integer(self.burn_in, "burn_in", 0)
        _integer(self.T, "truncation horizon")
        _integer(self.seed, "seed", 0)
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


def _simulate_arch_inf(p: ParamVector, z: np.ndarray, T: int) -> tuple[np.ndarray, np.ndarray]:
    n = z.size
    lam = frac_weights(p.d, T, p.alpha, p.beta).lam
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


def simulate_path(config: SimConfig) -> tuple[ReturnSeries, np.ndarray]:
    """Simulate a return path plus its conditional variances ``sigma2``.

    The first ``burn_in`` observations of both are discarded, and the two
    vectors own their memory, holding none of the burn-in.  Output dates are
    synthetic consecutive days from 2000-01-01, so the series round-trips
    through the file loaders; they are a :class:`~volentropy.series.Dates`
    over a ``range`` of day ordinals, so a path stores no per-day dates.
    Identical configs (including seed) give identical output.
    """
    p = config.params
    total = config.n + config.burn_in
    rng = np.random.default_rng(config.seed)
    z = _draw_innovations(rng, total, p.nu)

    if config.family is ModelFamily.GARCH:
        e, sig2 = _simulate_garch(p, z)
    else:  # validate_params holds p.d at the family's pinned d
        e, sig2 = _simulate_arch_inf(p, z, config.T)

    # copies: views past the burn-in would keep the whole burn-in alive.  With
    # the innovations freed and one copy made at a time, no more memory is
    # held than while simulating.
    del z
    e = e[config.burn_in:].copy()
    sig2 = sig2[config.burn_in:].copy()
    first = _EPOCH.toordinal()
    series = ReturnSeries(
        id=f"sim-{config.family.value}",
        dates=range(first, first + config.n),
        returns=e,
        source=f"simulated(family={config.family.value}, n={config.n}, seed={config.seed})",
    )
    return series, sig2


def squared_autocorr(returns, max_lag: int, include_lag0: bool = False) -> np.ndarray:
    """Sample autocorrelation of the squared returns of a series or vector at lags 1..max_lag.

    With ``include_lag0`` the (definitionally unit) lag-0 value is prepended.
    Constant input has no defined autocorrelation and raises
    :class:`AutocorrUndefinedError`; NaN or infinite returns, and returns
    whose squares (or their second moments) overflow a double, raise
    :class:`DomainError`.
    """
    r = _as_returns(returns)
    max_lag = _integer(max_lag, "max_lag")
    if r.size <= max_lag:
        raise DomainError(f"need more than {max_lag} observations, got {r.size}")

    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        x = r * r
        x = x - x.mean()
        denom = float(np.dot(x, x))
    if not math.isfinite(denom):
        raise DomainError("returns too large: their squares overflow a double")
    if denom <= 0.0:
        raise AutocorrUndefinedError("squared series is constant; autocorrelation undefined")

    acf = np.array([float(np.dot(x[:-k], x[k:])) / denom for k in range(1, max_lag + 1)])
    if include_lag0:
        acf = np.concatenate(([1.0], acf))
    return acf
