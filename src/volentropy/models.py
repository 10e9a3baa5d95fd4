"""Conditional-variance models: GARCH(1,1), IGARCH(1,1), FIGARCH(1,d,1).

The three families share one evaluation engine.  FIGARCH is evaluated in
truncated ARCH(:math:`\\infty`) form

.. math::

    \\sigma_t^2 = \\frac{\\omega}{1-\\beta}
                  + \\sum_{j=1}^{T} \\lambda_j e_{t-j}^2,

with weights generated by
:math:`\\lambda(L) = 1 - (1-\\beta L)^{-1}\\,\\Phi(L)\\,(1-L)^d`, where
:math:`\\Phi(L) = 1-(\\alpha+\\beta)L`.  IGARCH is the ``d = 1`` slice of the
same machinery, and GARCH the untruncated ``d = 0`` slice:
:math:`\\sigma_t^2 = \\omega/(1-\\beta) + \\alpha D_t`, where the filter
:math:`D_t = \\sum_{j \\ge 1} \\beta^{j-1} e_{t-j}^2` depends on :math:`\\beta` alone.

Innovations are demeaned returns, :math:`e_t = y_t - \\bar y`; pre-sample
:math:`e^2` values are backcast with the sample mean of the squared demeaned
returns.

:class:`_Likelihood` is the one place a conditional-variance path becomes a
log-likelihood: :func:`variance_path`, :func:`log_likelihood` and every fit
evaluate through it.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TRUNCATION, ModelFamily
from .errors import DataQualityError, DomainError, InfeasibleParamsError, _integer
from .series import _as_returns

__all__ = [
    "ModelFamily",
    "ParamVector",
    "VariancePath",
    "FracWeights",
    "frac_weights",
    "variance_path",
    "log_likelihood",
    "validate_params",
    "student_logpdf",
    "DEFAULT_TRUNCATION",
]

# Numerical slack when checking nonnegativity of the ARCH(inf) weights.
_LAMBDA_TOL = 1e-12

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ParamVector:
    """Model parameters (omega, alpha, beta, d, nu).

    ``d`` is fixed at 0 for GARCH and 1 for IGARCH, free in [0, 1] for
    FIGARCH.  ``nu`` is the Student-t degrees of freedom (> 2); ``None``
    selects Gaussian innovations.
    """

    omega: float
    alpha: float
    beta: float
    d: float = 0.0
    nu: float | None = None

    def with_(self, **kwargs) -> "ParamVector":
        return replace(self, **kwargs)

    def as_dict(self) -> dict[str, float | None]:
        return {"omega": self.omega, "alpha": self.alpha, "beta": self.beta,
                "d": self.d, "nu": self.nu}


@dataclass(frozen=True, eq=False)
class VariancePath:
    """Conditional variances plus the total log-likelihood (nats) of the path."""

    sigma2: np.ndarray
    loglik: float


@dataclass(frozen=True, eq=False)
class FracWeights:
    """Expansion weights of the fractional machinery.

    ``pi`` holds the T+1 coefficients of :math:`(1-L)^d`; ``lam`` holds the
    T ARCH(:math:`\\infty`) weights :math:`\\lambda_1..\\lambda_T` implied by
    the (alpha, beta) pair the weights were built for.
    """

    pi: np.ndarray
    lam: np.ndarray
    T: int


def frac_weights(d: float, T: int, alpha: float = 0.0, beta: float = 0.0) -> FracWeights:
    """Fractional-differencing coefficients and ARCH(:math:`\\infty`) weights.

    Parameters
    ----------
    d : float
        Fractional difference parameter, in [0, 1].
    T : int
        Truncation horizon (number of lags retained), >= 1.
    alpha, beta : float
        Model coefficients entering :math:`\\Phi(L) = 1-(\\alpha+\\beta)L`
        and :math:`1-\\beta L`; both finite, with a finite sum.  The
        default (0, 0) is convenient when only the ``pi`` expansion is of
        interest.

    Notes
    -----
    ``pi`` follows the binomial recursion ``pi[0] = 1``,
    ``pi[j] = pi[j-1] * (j - 1 - d) / j``.  The lambda weights satisfy

    .. math::

        \\lambda_1 = \\alpha + d, \\qquad
        \\lambda_j = \\beta\\lambda_{j-1} + (\\alpha+\\beta)\\pi_{j-1} - \\pi_j
        \\quad (j \\ge 2),

    which reduces to :math:`\\lambda_j = \\alpha\\beta^{j-1}` at ``d = 0``.
    This is the one builder of the weights: the likelihood engine,
    :func:`validate_params`, simulation and a fit's starting point call it.
    """
    if not (0.0 <= d <= 1.0):
        raise DomainError(f"d must lie in [0,1], got {d}")
    T = _integer(T, "truncation horizon")
    if not math.isfinite(alpha + beta):  # NaN or inf in either, or a sum that overflows
        raise DomainError(f"alpha and beta must be finite, got alpha={alpha}, beta={beta}")

    j = np.arange(1, T + 1, dtype=float)
    pi = np.concatenate(([1.0], np.cumprod((j - 1.0 - d) / j)))
    if 0.0 < d < 1.0 and abs(pi[-1]) < _SMALLEST_NORMAL:
        # |pi_j| falls with j, so the tail is subnormal (d below about
        # T * 2.2e-308); there cumprod's rounding order drifts from the stated
        # recursion by whole ulps, so replay the recursion in its own order.
        for k in range(1, T + 1):
            pi[k] = pi[k - 1] * (k - 1 - d) / k

    x = (alpha + beta) * pi[:-1] - pi[1:]
    x[0] -= beta  # folds the leading beta*lambda_0 term out of the recursion
    # lambda_j = beta*lambda_{j-1} + x_j.  lfilter runs it in about 11 us at
    # T = 1000, the plain-Python loop in about 75 us; both form the same
    # product and sum in the same order, so the bits agree.  The loop serves
    # processes that have not loaded scipy.signal, an import of over a
    # second: a simulation never loads it, and a fit does for its first score.
    if "scipy.signal" in sys.modules:
        lam = _ar1_filter(x, beta)
    else:
        y, b = 0.0, float(beta)  # a Python float: numpy scalars are slower and warn on overflow
        lam = np.fromiter([y := b * y + xi for xi in x.tolist()], float, T)
    return FracWeights(pi=pi, lam=lam, T=T)


def validate_params(family: ModelFamily, params: ParamVector,
                    T: int = DEFAULT_TRUNCATION) -> None:
    """Check the family invariants, raising DomainError naming the violation.

    ``alpha``, ``beta`` and ``d`` must be finite.  GARCH requires
    ``alpha, beta >= 0`` and ``alpha + beta < 1``.  IGARCH pins ``d = 1``
    and requires ``alpha >= -1``: its weights are ``lambda_1 = 1 + alpha``
    and ``lambda_j = -alpha (1-beta) beta^(j-2)`` beyond, all nonnegative
    for alpha in [-1, 0], where IGARCH(1,1) is the point ``alpha = -beta``;
    alpha > 0 is accepted too, and a simulated or evaluated path then
    fails wherever its sigma2 turns non-positive.  FIGARCH requires ``d``
    in [0,1] and every ARCH(inf) weight ``lambda_j >= 0`` up to the
    truncation horizon (checked numerically).  Both need ``beta`` in [0, 1)
    for the :math:`(1-\\beta L)^{-1}` inversion.
    """
    if not (math.isfinite(params.omega) and params.omega > 0):
        raise DomainError(f"omega must be positive, got {params.omega}")
    if params.nu is not None and not (math.isfinite(params.nu) and params.nu > 2):
        raise DomainError(f"nu must exceed 2 for finite innovation variance, got {params.nu}")
    for name in ("alpha", "beta", "d"):  # NaN passes every comparison below
        if not math.isfinite(getattr(params, name)):
            raise DomainError(f"{name} must be finite, got {getattr(params, name)}")

    if family.pinned_d is not None:
        if params.d != family.pinned_d:
            raise DomainError(f"d is fixed at {family.pinned_d:g} for {family.name}, got {params.d}")
        least = -1.0 if family is ModelFamily.IGARCH else 0.0  # IGARCH: lambda_1 = 1 + alpha
        if params.alpha < least or params.beta < 0:
            raise DomainError(f"alpha must be at least {least:g} and beta nonnegative for "
                              f"{family.name}, got alpha={params.alpha}, beta={params.beta}")
    elif not (0.0 <= params.d <= 1.0):
        raise DomainError(f"d must lie in [0,1], got {params.d}")
    if family is ModelFamily.GARCH:
        if params.alpha + params.beta >= 1:
            raise DomainError(
                f"alpha + beta must lie below 1 for covariance stationarity, "
                f"got {params.alpha + params.beta}"
            )
        return
    if params.beta < 0 or params.beta >= 1:
        raise DomainError(f"beta must lie in [0,1) for the ARCH(inf) engine, got {params.beta}")
    if family is ModelFamily.FIGARCH:
        lam = frac_weights(params.d, T, params.alpha, params.beta).lam
        bad = np.nonzero(lam < -_LAMBDA_TOL)[0]
        if bad.size:
            j = int(bad[0]) + 1
            raise InfeasibleParamsError(
                f"ARCH(inf) weights must be nonnegative: lambda_{j} = {lam[bad[0]]:.3e} < 0"
            )


def _ar1_filter(x: np.ndarray, beta: float, state: float | None = None) -> np.ndarray:
    """``y_t = x_t + beta*y_{t-1}``, with ``beta*y_{-1} = state`` (0 if None).

    A 2-D ``x`` is filtered row by row.  The adjoint, ``c_hat`` with
    ``c . y = x . c_hat + state * c_hat_0``, is ``_ar1_filter(c[::-1], beta)[::-1]``.
    """
    # Imported here: scipy.signal costs over a second of import time that
    # only a fit needs, for the n-term variance recursion and its derivative
    # rows.  --help, entropy and simulate never load it: frac_weights calls
    # this filter only once scipy.signal is loaded, and otherwise runs its
    # T-term weight recursion in Python.
    from scipy.signal import lfilter

    if state is None:
        return lfilter([1.0], [1.0, -beta], x)
    return lfilter([1.0], [1.0, -beta], x, zi=[state])[0]


@functools.cache
def _special():
    """scipy.special, imported on the first call: --help, entropy and simulate never make one."""
    from scipy import special

    return special


def _student_log_norm(nu: float) -> float:
    """Log normalising constant of the standardized Student-t density.

    ln Gamma(x + 1/2) - ln Gamma(x), x = nu/2, is the difference of two
    numbers near x ln x, which cancels at large nu (an error of 4.8e-3 at
    nu = 1e13).
    Above nu = 1e4 it is the series 1/2 ln x - 1/(8x) + 1/(192x^3), within
    2e-15 of it for nu >= 1e3.
    """
    if nu > 1e4:
        x = nu / 2.0
        # x * x * x, not x ** 3: a float ** raises OverflowError above nu ~ 1e103
        gamma_ratio = 0.5 * math.log(x) - 1.0 / (8.0 * x) + 1.0 / (192.0 * x * x * x)
    else:
        gammaln = _special().gammaln
        gamma_ratio = gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0)
    scale = math.pi * (nu - 2.0)
    if scale == math.inf:
        # the product overflows above nu ~ 5.7e307, where (nu - 2)/2 equals the
        # series' x: its ln x cancels but for the rounding of one sum
        return gamma_ratio - 0.5 * (math.log(2.0 * math.pi) + math.log((nu - 2.0) / 2.0))
    return gamma_ratio - 0.5 * math.log(scale)


def student_logpdf(z: np.ndarray | float, nu: float) -> np.ndarray | float:
    """Log-density of the standardized (unit-variance) Student-t law.

    This is the innovation density used by the Student-t likelihood: a
    classical :math:`t_\\nu` variate rescaled by :math:`\\sqrt{(\\nu-2)/\\nu}`
    so that its variance is exactly 1 for every ``nu > 2``.  A ``nu`` that is
    not finite or not above 2 raises :class:`DomainError`.
    """
    if not 2 < nu < math.inf:
        raise DomainError(f"nu must be finite and exceed 2, got {nu}")
    z = np.asarray(z, dtype=float)
    out = _student_log_norm(nu) - ((nu + 1.0) / 2.0) * np.log1p(z * z / (nu - 2.0))
    return out if out.ndim else float(out)


# Transform lengths of the IGARCH/FIGARCH engine from 1024 to 129600: each
# 5-smooth length at which an rfft+irfft pair took less time than at every
# longer 5-smooth length up to 140000 (scipy.fft of scipy 1.17.1 on one pinned
# core of a 2-core x86-64 VM, the least of 56 rounds per length).  The engine
# takes the first at or above n + T, so no longer length would be faster.  The
# smallest 5-smooth length at or above n + T is often slower than a longer
# one: at n + T = 11000, a pair took 156 us at 11250 and 136 us at 11520.
# Outside the table the engine takes that smallest 5-smooth length.
_FFT_LENGTHS = (
    1024, 1280, 1296, 1440, 1536, 1600, 1620, 1728, 1920, 2048, 2304, 2560, 2880, 3072,
    3200, 3840, 4096, 4800, 5120, 5184, 5760, 6400, 6480, 6912, 7200, 7680, 8000, 8192,
    8640, 9216, 9600, 10240, 10368, 11520, 12288, 12800, 12960, 13824, 15360, 16384,
    17280, 18432, 19200, 20480, 20736, 23040, 24000, 25600, 25920, 27648, 28800, 30720,
    32000, 32768, 34560, 36864, 38400, 40960, 43200, 46080, 49152, 51200, 51840, 57600,
    61440, 65536, 69120, 76800, 81920, 82944, 84375, 86400, 92160, 96000, 102400,
    103680, 110592, 115200, 122880, 128000, 129600,
)


def _transform_length(n: int, T: int) -> int:
    """The rFFT length of an engine over ``n`` returns at horizon ``T``: at least ``n + T``."""
    i = bisect.bisect_left(_FFT_LENGTHS, n + T)
    if n + T < _FFT_LENGTHS[0] or i == len(_FFT_LENGTHS):
        from scipy import fft

        return fft.next_fast_len(n + T, True)
    return _FFT_LENGTHS[i]


class _Likelihood:
    """Log-likelihood of one return series under one family and horizon.

    The returns are validated and demeaned once.  For IGARCH and FIGARCH the
    engine also keeps the rFFT of the backcast-padded e^2, so each evaluation
    transforms only the kernel.  Every transform is circular, of a length of
    at least n + T (`_transform_length`): shorter than the n + 2T of the full
    linear convolution, but no product the engine reads wraps around (the
    sigma2 slice, the score's correlation at lags 1..T and the rows of
    d sigma2 / d theta).  Since
    ``sigma2 = omega/(1-beta) + conv``, the convolution slice and its weights
    are kept for the exact floats (alpha, beta, d) last evaluated: points
    that move only omega or nu reuse them, and the lambda weights are built
    once per change of key, rejected keys included (:meth:`weights`).
    GARCH's ``sigma2 = omega/(1-beta) + alpha D`` keeps ``D = d sigma2 / d alpha``
    the same way, for the exact beta last evaluated.

    With ``reject_negative_weights`` a FIGARCH point whose ARCH(inf) weights
    fall below ``-_LAMBDA_TOL`` raises :class:`InfeasibleParamsError` (the
    estimation objective's feasibility rule); otherwise only non-positive
    conditional variances are rejected.

    :meth:`score` adds the exact gradient of the log-likelihood, from the
    derivative recursions of Fiorentini, Calzolari & Panattoni (1996), and
    :meth:`hessian` its exact second derivatives from the same recursions.
    Returns whose squares overflow a double raise :class:`DomainError`.
    """

    def __init__(self, family: ModelFamily, returns,
                 T: int = DEFAULT_TRUNCATION, reject_negative_weights: bool = False):
        T = _integer(T, "truncation horizon")
        r = _as_returns(returns)
        n = r.size
        # e^2 goes behind its backcast: GARCH's lagged e^2, or the padded transform input
        lead, buf = (1, np.empty(n + 1)) if family is ModelFamily.GARCH else (
            T, np.zeros(_transform_length(n, T)))
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            self.e2 = np.subtract(r, r.mean(), out=buf[lead:lead + n])
            self.e2 *= self.e2
            self.backcast = float(self.e2.mean())
        if not math.isfinite(self.backcast):
            raise DomainError("returns too large: their squares overflow a double")
        buf[:lead] = self.backcast
        self.family, self.T, self.returns, self.n = family, T, r, n
        self._pinned_d = family.pinned_d  # looked up once: `_d` reads it on every evaluation
        self.checks_weights = reject_negative_weights and family is ModelFamily.FIGARCH
        # (key, value) of the last key evaluated: (beta, D) for GARCH, else
        # ((alpha, beta, d), [weights, convolution or None until asked for]).
        # Callers only come back to that key: a score or Hessian pass asks for
        # it twice (sigma2, then the derivatives), a fit's wall check asks
        # again for the point just evaluated, and its standard errors for the
        # optimum whose log-likelihood was just evaluated.
        self._memo: tuple | None = None
        if family is ModelFamily.GARCH:
            self._e2_lag = buf[:n]
            return
        from scipy import fft  # imported here: --help and entropy never build an engine

        self._fft = fft
        # the padded e2 (n+T) convolved with a kernel of lags 0..T has n+2T
        # terms; a circular length L adds term t+L to term t, and
        # t + L >= n + 2T for each t >= T read back when L >= n + T.  The
        # score's correlation pairs g_t (at T+t) with the padded e2 at T+t-j;
        # a wrapped pair needs j >= L - n + 1 > T.
        self._fft_size = buf.size
        self._e2_fft = fft.rfft(buf)

    @property
    def transform_may_overflow(self) -> bool:
        """Whether these returns are large enough to overflow an IGARCH/FIGARCH convolution.

        The zero bin of the padded e^2 transform is their sum, the largest
        modulus of any bin.  The inverse transform sums ``_fft_size``
        products of bins before it scales by ``1/_fft_size``, so when that
        sum times the size exceeds a double, weights summing to about 1 can
        overflow it.  GARCH has no transform.
        """
        return (self.family is not ModelFamily.GARCH
                and not math.isfinite(float(self._e2_fft[0].real) * self._fft_size))

    def _d(self, params: ParamVector) -> float:
        return params.d if self._pinned_d is None else self._pinned_d

    def _entry(self, params: ParamVector) -> list:
        key = (params.alpha, params.beta, self._d(params))
        if self._memo is None or self._memo[0] != key:
            self._memo = (key, [frac_weights(key[2], self.T, key[0], key[1]), None])
        return self._memo[1]

    def weights(self, params: ParamVector) -> FracWeights:
        """The ARCH(inf) weights at an IGARCH/FIGARCH point, memoised for the last (alpha, beta, d)."""
        return self._entry(params)[0]

    def _alpha_row(self, beta: float) -> np.ndarray:
        """GARCH's ``D = d sigma2 / d alpha``, memoised for the last beta (read-only):
        ``D_t = e2_{t-1} + beta D_{t-1}`` from the pre-sample level ``backcast/(1-beta)``."""
        if self._memo is None or self._memo[0] != beta:
            row = _ar1_filter(self._e2_lag, beta, beta / (1.0 - beta) * self.backcast)
            row.flags.writeable = False
            self._memo = (beta, row)
        return self._memo[1]

    def _filtered(self, kernel: np.ndarray) -> np.ndarray:
        """The padded e^2 convolved with ``kernel`` (of transform length), at t = 0..n-1: a view."""
        spec = self._fft.rfft(kernel)
        np.multiply(self._e2_fft, spec, out=spec)
        return self._fft.irfft(spec, self._fft_size)[self.T:self.T + self.n]

    def _convolution(self, params: ParamVector) -> np.ndarray:
        """``sum_j lambda_j e2_{t-j}`` for t = 0..n-1, memoised with the weights."""
        entry = self._entry(params)
        if entry[1] is None:
            lam = entry[0].lam
            if self.checks_weights and (lam < -_LAMBDA_TOL).any():
                raise InfeasibleParamsError("negative ARCH(inf) weight")
            kernel = np.zeros(self._fft_size)
            kernel[1:self.T + 1] = lam
            # a copy, so the memo does not pin the transform
            entry[1] = self._filtered(kernel).copy()
        return entry[1]

    def variance_path(self, params: ParamVector) -> VariancePath:
        return self._evaluate(params)[0]

    # one extreme return can overflow sigma2 (the transform product, for IGARCH
    # and FIGARCH) or its log-likelihood, and a product with sigma2 can
    # underflow to 0 and divide by it: all are rejected below
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _evaluate(self, params: ParamVector) -> tuple[VariancePath, np.ndarray, float | None]:
        """The path, with the terms its derivatives reuse.

        Those are ``x_t = e2_t / sigma2_t`` (Gaussian) or
        ``e2_t / ((nu-2) sigma2_t)`` (Student-t), and for Student-t the sum of
        ``log1p(x_t)`` (None for Gaussian).
        """
        if params.nu is not None and not 2.0 < params.nu < math.inf:
            raise InfeasibleParamsError(f"nu = {params.nu} outside (2, inf)")
        if params.beta >= 1.0 - 1e-12:
            raise InfeasibleParamsError(
                f"beta = {params.beta} too close to 1 for the ARCH(inf) engine"
            )
        if self.family is ModelFamily.GARCH:
            sig2 = params.alpha * self._alpha_row(params.beta)
            sig2 += params.omega / (1.0 - params.beta)
        else:
            sig2 = params.omega / (1.0 - params.beta) + self._convolution(params)

        # the logs sum to a finite value exactly when every sigma2 is positive and finite
        x = np.log(sig2)
        log_sum = float(x.sum())
        if not math.isfinite(log_sum):
            worst = float(np.min(sig2))
            raise InfeasibleParamsError(
                f"non-positive conditional variance encountered (min sigma2 = {worst:.3e})"
            )

        nu = params.nu
        if nu is None:
            x = np.divide(self.e2, sig2, out=x)
            log1p_sum = None
            ll = -0.5 * (self.n * math.log(2.0 * math.pi) + log_sum + float(x.sum()))
        else:
            x = np.divide(self.e2, np.multiply(sig2, nu - 2.0, out=x), out=x)
            log1p_sum = float(np.log1p(x).sum())
            ll = (self.n * _student_log_norm(nu)
                  - 0.5 * log_sum
                  - ((nu + 1.0) / 2.0) * log1p_sum)
        if not math.isfinite(ll):
            raise DataQualityError("log-likelihood is not finite on this series")
        return VariancePath(sigma2=sig2, loglik=ll), x, log1p_sum

    def loglik(self, params: ParamVector) -> float:
        return self.variance_path(params).loglik

    def score(self, params: ParamVector, fixed_d: bool = False) -> tuple[float, np.ndarray]:
        """Total log-likelihood and its gradient in the constrained parameters.

        The gradient is ordered (omega, alpha, beta, d, nu): ``d`` only for a
        FIGARCH engine without ``fixed_d``, ``nu`` only for Student-t
        innovations.  Infeasible points raise as in :meth:`variance_path`.

        With ``g_t`` the derivative of the t-th log-density in sigma2_t, each
        component is ``sum_t g_t d sigma2_t / d theta``.  GARCH reads
        ``d sigma2 / d alpha = D`` from the memo and filters
        ``d sigma2 / d beta`` with the variance recursion.  For IGARCH and
        FIGARCH the score is linear in the ARCH(inf) weights, so it is
        ``d lambda / d theta . c`` with ``c_j = sum_t g_t e2_{t-j}``: one
        correlation of g with the padded e^2 through the cached rFFT, and the
        weight derivatives from the weight recursion.
        """
        loglik, grad, _ = self._derivatives(params, fixed_d, second=False)
        return loglik, grad

    def hessian(self, params: ParamVector,
                fixed_d: bool = False) -> tuple[float, np.ndarray, np.ndarray]:
        """Total log-likelihood, its gradient and its Hessian, from one pass.

        Ordered as :meth:`score`.  With ``h_t`` the second derivative of the
        t-th log-density in sigma2_t and ``s_t = d sigma2_t / d theta``,

            H = sum_t h_t s_t s_t' + sum_t g_t d^2 sigma2_t / d theta^2

        plus the nu terms.  Each second derivative of sigma2 (GARCH) or lambda
        is a recursion's filter of an input row, so the second term sums the
        inputs against g, or the score's ``c`` (:meth:`weight_curvature`),
        filtered backwards.  For IGARCH and FIGARCH, ``s_t`` convolves each
        row of :meth:`weight_jacobian` with e^2 (a transform pair per row).
        """
        return self._derivatives(params, fixed_d, second=True)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # non-finite: rejected below
    def _derivatives(self, params: ParamVector, fixed_d: bool, second: bool):
        """(log-likelihood, gradient, Hessian or None): see :meth:`score` and :meth:`hessian`."""
        vp, x, log1p_sum = self._evaluate(params)
        sig2, nu = vp.sigma2, params.nu
        # in place, in the order of 0.5 (x - 1) / sigma2, or of
        # 0.5 ((nu+1) w - 1) / sigma2 with w = x / (1 + x) in the buffer of x
        if nu is None:
            g = x - 1.0
        else:
            g = x + 1.0
            w = np.divide(x, g, out=x)
            g = np.subtract(np.multiply(w, nu + 1.0, out=g), 1.0, out=g)
        g = np.divide(np.multiply(g, 0.5, out=g), sig2, out=g)
        if self.family is ModelFamily.GARCH:
            grad, s, curv = self._garch_derivatives(params, sig2, g, second)
        else:
            free_d = self._pinned_d is None and not fixed_d
            grad, s, curv = self._arch_inf_derivatives(params, g, second, free_d)
        if nu is not None:
            digamma = _special().digamma
            grad.append(0.5 * self.n * (digamma((nu + 1.0) / 2.0) - digamma(nu / 2.0)
                                        - 1.0 / (nu - 2.0))
                        - 0.5 * log1p_sum
                        + (nu + 1.0) / (2.0 * (nu - 2.0)) * float(w.sum()))
        if not all(map(math.isfinite, grad)):  # overflowed at an extreme return
            raise InfeasibleParamsError("the score is not finite at this point")
        if not second:
            return vp.loglik, np.array(grad), None

        # h_t = d g_t / d sigma2_t; for Student-t, with v_t = w_t (1 - w_t),
        # dw_t/d sigma2_t = -v_t/sigma2_t and dw_t/d nu = -v_t/(nu-2).  In place:
        # h = (0.5 - x) / sigma2 / sigma2, or -(g + a) / sigma2 with a = 0.5 (nu+1) v / sigma2
        if nu is None:
            h = np.divide(np.subtract(0.5, x, out=x), sig2, out=x)
        else:
            w_sum, v = float(w.sum()), 1.0 - w
            v_sum = float(np.multiply(w, v, out=v).sum())
            a = np.divide(np.multiply(v, 0.5 * (nu + 1.0), out=v), sig2, out=v)
            h = np.negative(np.add(g, a, out=g), out=g)  # in the buffer of g
        h /= sig2
        # s holds d sigma2_t / d theta past omega, whose derivative is 1/(1-beta)
        # at every t; curv holds sum_t g_t d2 sigma2_t / d theta2 past omega, and in
        # omega only d2 sigma2_t / d omega d beta = 1/(1-beta)^2 is not 0
        inv = 1.0 / (1.0 - params.beta)
        k = s.shape[0] + 1
        H = np.empty((len(grad), len(grad)))
        hs = s * h
        H[0, 0] = inv * inv * float(h.sum())
        H[0, 1:k] = H[1:k, 0] = inv * hs.sum(axis=1)
        H[0, 2] = H[2, 0] = H[0, 2] + inv * grad[0]
        H[1:k, 1:k] = hs @ s.T + curv
        if nu is not None:
            # d g_t / d nu = 0.5 w_t / sigma2_t - a_t / (nu-2), in the buffer of w
            m = np.subtract(np.divide(np.multiply(w, 0.5, out=w), sig2, out=w),
                            np.divide(a, nu - 2.0, out=a), out=w)
            H[0, k] = H[k, 0] = inv * float(m.sum())
            H[1:k, k] = H[k, 1:k] = s @ m
            zeta = _special().zeta  # trigamma(y) = zeta(2, y), as polygamma(1, y) computes it
            try:
                sq = (nu - 2.0) ** 2
            except OverflowError:  # nu above ~1.3e154: each 1/(nu-2)^2 term is 0
                sq = math.inf
            H[k, k] = (self.n * (0.25 * (zeta(2.0, (nu + 1.0) / 2.0) - zeta(2.0, nu / 2.0))
                                 + 0.5 / sq)
                       + (0.5 / (nu - 2.0) - 1.5 / sq) * w_sum
                       - (nu + 1.0) / (2.0 * sq) * v_sum)
        return vp.loglik, np.array(grad), H

    def _garch_derivatives(self, params: ParamVector, sig2: np.ndarray, g: np.ndarray,
                           second: bool) -> tuple[list, np.ndarray | None, np.ndarray | None]:
        # sigma2_t = omega/(1-beta) + alpha D_t, with D = d sigma2/d alpha from
        # the memo, so d sigma2_t/d omega is 1/(1-beta) at every t.
        # d sigma2/d beta follows the variance recursion with input
        # sigma2_{t-1}, from d s/d beta = s/(1-beta) at the pre-sample level
        # s = (omega + alpha*backcast)/(1-beta).
        beta = params.beta
        D = self._alpha_row(beta)
        s_pre = (params.omega + params.alpha * self.backcast) / (1.0 - beta)
        state = beta / (1.0 - beta) * s_pre
        d_beta = _ar1_filter(np.concatenate(([s_pre], sig2[:-1])), beta, state)
        grad = [float(g.sum()) / (1.0 - beta), float(D @ g), float(d_beta @ g)]
        if not second:
            return grad, None, None
        # sigma2 is linear in alpha and omega enters only through 1/(1-beta),
        # so the second derivatives left are d2/d alpha d beta and d2/d beta2:
        # the recursion again, with inputs D_{t-1} and 2 d sigma2_{t-1}/d beta from the
        # pre-sample levels backcast and 2 s over (1-beta)^2; their sums against g are
        # the inputs' against g_hat, g filtered backwards, and the levels' against g_hat_0
        g_hat = _ar1_filter(g[::-1], beta)[::-1]
        pre = g_hat[0] / (1.0 - beta) / (1.0 - beta)
        ab = self.backcast * pre + D[:-1] @ g_hat[1:]
        bb = 2.0 * (s_pre * pre + d_beta[:-1] @ g_hat[1:])
        return grad, np.array([D, d_beta]), np.array([[0.0, ab], [ab, bb]])

    def weight_jacobian(self, params: ParamVector, free_d: bool) -> np.ndarray:
        """d lambda / d (alpha, beta[, d]) at an IGARCH/FIGARCH point, one row each.

        The weights come from :meth:`weights`, so from the memo when the
        point is there, as it is in a score pass.
        """
        alpha, beta, d, T = params.alpha, params.beta, self._d(params), self.T
        w = self.weights(params)
        # lambda = ar1_filter(x, beta) with x_j = (alpha+beta)*pi_{j-1} - pi_j,
        # less beta at j = 1, so each weight derivative filters d x; beta also
        # enters the filter, which adds lambda_{j-1} to its input
        pi = w.pi
        x_beta = pi[:-1].copy()
        x_beta[0] -= 1.0
        x_beta[1:] += w.lam[:-1]
        rows = [pi[:-1], x_beta]
        if free_d:
            if not _SMALLEST_NORMAL <= d < 1.0:  # 1/d or 1/(d-1) below is not finite
                raise InfeasibleParamsError(f"the score in d is not finite at d = {d}")
            # d pi_j / d d = pi_j * S_j with S_j = sum_{k<=j} 1/(d+1-k)
            d_pi = pi * np.cumsum(np.concatenate(([0.0], 1.0 / (d - np.arange(float(T))))))
            rows.append((alpha + beta) * d_pi[:-1] - d_pi[1:])
        return _ar1_filter(np.array(rows), beta)

    def weight_curvature(self, params: ParamVector, jac: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``sum_j c_j d2 lambda_j / d theta2``, where :meth:`weight_jacobian` is ``jac``: each
        second derivative filters an input row as lambda does, so its sum against c
        is the input's against ``c_hat``, c filtered backwards (see :func:`_ar1_filter`)."""
        alpha, beta, d, T = params.alpha, params.beta, self._d(params), self.T
        c_hat = _ar1_filter(c[::-1], beta)[::-1]
        # alpha enters x linearly, and beta the filter, which adds the first-order
        # row of each parameter at lag 1 to its beta row and column
        lag = jac[:, :-1] @ c_hat[1:]
        curv = np.zeros((lag.size, lag.size))  # d2 lambda / d alpha2 = 0
        curv[1] = lag
        curv[:, 1] += lag
        if lag.size == 3:  # d is free
            # d2 pi_j / d d2 = pi_j (S_j^2 - sum_{k<=j} 1/(d+1-k)^2); with the
            # k = 1 terms 1/d and 1/d^2 taken out of both sums (R, P), that is
            # 2 R_j pi_j/d + pi_j (R_j^2 - P_j), which neither cancels nor
            # overflows as d -> 0
            pi = self.weights(params).pi
            rest = np.concatenate(([0.0], 1.0 / (d - np.arange(float(T)))))
            d_pi = pi * np.cumsum(rest)
            rest[1] = 0.0
            R = np.cumsum(rest)
            d2_pi = 2.0 * R * (pi / d) + pi * (R * R - np.cumsum(rest * rest))
            curv[2, :2] += d_pi[:-1] @ c_hat  # pi_{j-1} enters x with alpha and beta
            curv[:2, 2] = curv[2, :2]
            curv[2, 2] = ((alpha + beta) * d2_pi[:-1] - d2_pi[1:]) @ c_hat
        return curv

    def _arch_inf_derivatives(self, params: ParamVector, g: np.ndarray, second: bool,
                              free_d: bool) -> tuple[list, np.ndarray | None, np.ndarray | None]:
        T, n, size, beta, fft = self.T, self.n, self._fft_size, params.beta, self._fft
        kernel = np.zeros(size)  # g behind T zeros here; below, each row of the Jacobian
        kernel[T:T + n] = g
        # a copy, so that c does not pin the transform
        c = fft.irfft(fft.rfft(kernel) * self._e2_fft.conj(), size)[1:T + 1].copy()
        jac = self.weight_jacobian(params, free_d)
        grad = jac @ c

        # the intercept omega/(1-beta)
        g_sum = float(g.sum())
        grad[1] += params.omega / (1.0 - beta) ** 2 * g_sum
        grad = [g_sum / (1.0 - beta), *grad.tolist()]
        if not second:
            return grad, None, None
        # d sigma2_t / d theta: each weight derivative convolved with the
        # padded e^2 as the weights are in sigma2, plus the intercept's.  One
        # row at a time: a batched transform measured slower, its larger
        # temporaries taking fresh pages from the system on every call.
        s = np.empty((jac.shape[0], n))
        kernel[T + 1:] = 0.0  # lags 1..T are written for each row
        for row, jac_row in zip(s, jac):
            kernel[1:T + 1] = jac_row
            row[:] = self._filtered(kernel)
        s[1] += params.omega / (1.0 - beta) ** 2
        curv = self.weight_curvature(params, jac, c)
        curv[1, 1] += 2.0 * params.omega / (1.0 - beta) ** 3 * g_sum
        return grad, s, curv


def variance_path(family: ModelFamily, params: ParamVector,
                  returns, T: int = DEFAULT_TRUNCATION) -> VariancePath:
    """Conditional-variance path and total log-likelihood of a series or return vector.

    The caller is responsible for the family invariants (see
    :func:`validate_params`); this function only signals *infeasibility*:
    any non-positive conditional variance raises
    :class:`InfeasibleParamsError`, which the optimizer treats as a
    rejection rather than a crash.

    The innovation law is selected by ``params.nu`` (``None`` = Gaussian,
    otherwise standardized Student-t).
    """
    return _Likelihood(family, returns, T).variance_path(params)


def log_likelihood(family: ModelFamily, params: ParamVector,
                   returns, T: int = DEFAULT_TRUNCATION) -> float:
    """Total log-likelihood (nats) of a series or return vector; see :func:`variance_path`."""
    return variance_path(family, params, returns, T=T).loglik
