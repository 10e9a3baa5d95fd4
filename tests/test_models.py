import math
import sys
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.signal import lfilter
from scipy.special import binom

from volentropy import (
    DomainError,
    FitConfig,
    InfeasibleParamsError,
    ModelFamily,
    ParamVector,
    SimConfig,
    frac_weights,
    log_likelihood,
    simulate_path,
    squared_autocorr,
    student_logpdf,
    validate_params,
    variance_path,
)
import volentropy.models as models
from volentropy.models import _Likelihood

GARCH, IGARCH, FIGARCH = ModelFamily.GARCH, ModelFamily.IGARCH, ModelFamily.FIGARCH


# ------------------------------------------------------ reference evaluations
# Plain-loop implementations used as independent oracles for the vectorized
# engine.  Weights are rebuilt here from the defining recursions.

def ref_pi(d, T):
    out = [1.0]
    for j in range(1, T + 1):
        out.append(out[-1] * (j - 1 - d) / j)
    return np.array(out)


def ref_lambda(d, T, alpha, beta):
    pi = ref_pi(d, T)
    phi = alpha + beta
    lam = [alpha + d]
    for j in range(2, T + 1):
        lam.append(beta * lam[-1] + phi * pi[j - 1] - pi[j])
    return np.array(lam)


def ref_garch_path(omega, alpha, beta, returns):
    e = returns - returns.mean()
    e2 = e * e
    bc = e2.mean()
    s_pre = (omega + alpha * bc) / (1.0 - beta)
    sig2 = [omega + alpha * bc + beta * s_pre]
    for t in range(1, len(returns)):
        sig2.append(omega + alpha * e2[t - 1] + beta * sig2[-1])
    return np.array(sig2)


def ref_figarch_path(omega, alpha, beta, d, returns, T):
    e = returns - returns.mean()
    e2 = e * e
    bc = e2.mean()
    lam = ref_lambda(d, T, alpha, beta)
    base = omega / (1.0 - beta)
    out = []
    for t in range(len(returns)):
        s = base
        for j in range(1, T + 1):
            s += lam[j - 1] * (e2[t - j] if t - j >= 0 else bc)
        out.append(s)
    return np.array(out)


# ---------------------------------------------------------------- frac_weights

def test_pi_d0_is_kronecker():
    w = frac_weights(0.0, 8)
    assert w.pi[0] == 1.0
    assert np.all(w.pi[1:] == 0.0)


def test_pi_d1_is_first_difference():
    w = frac_weights(1.0, 8)
    assert w.pi[0] == 1.0
    assert w.pi[1] == -1.0
    assert np.all(w.pi[2:] == 0.0)


def test_pi_half_first_four_values():
    w = frac_weights(0.5, 4)
    assert_allclose(w.pi[:4], [1.0, -0.5, -0.125, -0.0625], rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [0.1, 0.3, 0.5, 0.62, 0.9, 1.0])
def test_pi_matches_binomial_series_oracle(d):
    # oracle: coefficients of (1-L)^d are (-1)^j * C(d, j)
    T = 60
    w = frac_weights(d, T)
    oracle = np.array([(-1.0) ** j * binom(d, j) for j in range(T + 1)])
    assert_allclose(w.pi, oracle, rtol=1e-13, atol=1e-16)


@given(d=st.floats(min_value=0.0, max_value=1.0), T=st.integers(1, 400))
@settings(max_examples=80)
def test_pi_recursion_invariant(d, T):
    pi = frac_weights(d, T).pi
    j = np.arange(1, T + 1, dtype=float)
    assert_allclose(pi[1:], pi[:-1] * (j - 1 - d) / j, rtol=1e-14, atol=0)


@given(d=st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
@settings(max_examples=60)
def test_pi_partial_sums_decrease_toward_zero(d):
    pi = frac_weights(d, 500).pi
    sums = np.cumsum(pi)
    assert np.all(np.diff(sums) < 0)  # every pi[j], j >= 1, is negative
    assert np.all(sums > 0)
    assert sums[-1] < sums[0]


@pytest.mark.parametrize("d", [-0.01, 1.01, 2.0])
def test_frac_weights_rejects_d_outside_unit_interval(d):
    with pytest.raises(DomainError, match=r"\[0,1\]"):
        frac_weights(d, 10)


def test_frac_weights_rejects_bad_horizon():
    with pytest.raises(DomainError):
        frac_weights(0.5, 0)


def test_lambda_matches_reference_recursion():
    for d, a, b in [(0.0, 0.08, 0.91), (0.45, 0.2, 0.3), (0.6, 0.2, 0.4), (1.0, 0.1, 0.5)]:
        w = frac_weights(d, 50, a, b)
        assert_allclose(w.lam, ref_lambda(d, 50, a, b), rtol=1e-13, atol=1e-16)


def test_lambda_d0_is_geometric_garch_weights():
    a, b = 0.08, 0.91
    w = frac_weights(0.0, 30, a, b)
    assert_allclose(w.lam, a * b ** np.arange(30), rtol=1e-13, atol=0)


def test_lambda_2_closed_form():
    # lambda_2 = alpha*(beta - d) + d*(1 - d)/2, by expanding the recursion
    for d, a, b in [(0.3, 0.1, 0.6), (0.6, 0.2, 0.4), (0.9, 0.05, 0.1)]:
        lam = frac_weights(d, 5, a, b).lam
        assert lam[1] == pytest.approx(a * (b - d) + d * (1 - d) / 2.0, rel=1e-12)


def lfilter_lambda(w, alpha, beta):
    """The lambda weights of ``w`` by scipy.signal.lfilter over frac_weights' own inputs."""
    x = (alpha + beta) * w.pi[:-1] - w.pi[1:]
    x[0] -= beta
    return lfilter([1.0], [1.0, -beta], x)


@pytest.mark.parametrize("T", [1, 2, 1000])
@pytest.mark.parametrize("d", [0.0, 5e-324, 0.4, 1.0])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0 - 1e-6])
def test_lambda_is_lfilter_bit_for_bit(beta, d, T):
    # the weight recursion runs in plain Python; lfilter is its bit-for-bit reference
    for alpha in (0.2, -0.05, 1e-9):
        w = frac_weights(d, T, alpha, beta)
        assert np.array_equal(w.lam, lfilter_lambda(w, alpha, beta))


@given(d=st.floats(0.0, 1.0), alpha=st.floats(-1.0, 1.0), beta=st.floats(0.0, 1.0),
       T=st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_lambda_is_lfilter_bit_for_bit_on_random_draws(d, alpha, beta, T):
    w = frac_weights(d, T, alpha, beta)
    assert np.array_equal(w.lam, lfilter_lambda(w, alpha, beta))


@pytest.mark.parametrize("alpha, beta", [
    (math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5),
    (0.2, math.inf), (0.2, -math.inf), (0.2, math.nan),
    (math.inf, -math.inf), (1e308, 1e308),
])
def test_frac_weights_rejects_non_finite_alpha_or_beta(alpha, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="alpha and beta must be finite"):
            frac_weights(0.4, 10, alpha, beta)


# --------------------------------------------------------------- variance_path

def rng_returns(n=300, scale=0.01, seed=11):
    return scale * np.random.default_rng(seed).standard_normal(n)


def test_constant_variance_degenerate_case():
    p = ParamVector(omega=1.0, alpha=0.0, beta=0.0)
    vp = variance_path(GARCH, p, rng_returns())
    assert np.all(vp.sigma2 == 1.0)


def test_garch_path_matches_loop_reference():
    r = rng_returns()
    for omega, a, b in [(1e-5, 0.08, 0.91), (2e-4, 0.3, 0.0), (1e-4, 0.0, 0.7)]:
        vp = variance_path(GARCH, ParamVector(omega, a, b), r)
        assert_allclose(vp.sigma2, ref_garch_path(omega, a, b, r), rtol=1e-13)


def test_figarch_path_matches_loop_reference():
    r = rng_returns(n=120)
    vp = variance_path(FIGARCH, ParamVector(5e-5, 0.2, 0.4, d=0.6), r, T=60)
    assert_allclose(vp.sigma2, ref_figarch_path(5e-5, 0.2, 0.4, 0.6, r, 60), rtol=1e-12)


def test_figarch_fft_path_matches_loop_reference():
    r = rng_returns(n=5000, seed=4)
    vp = variance_path(FIGARCH, ParamVector(5e-5, 0.2, 0.4, d=0.6), r, T=100)
    assert_allclose(vp.sigma2, ref_figarch_path(5e-5, 0.2, 0.4, 0.6, r, 100), rtol=1e-12)


def test_figarch_path_with_extreme_return_matches_loop_reference():
    r = rng_returns(n=300, seed=9)
    r[150] *= 1000.0
    vp = variance_path(FIGARCH, ParamVector(5e-5, 0.2, 0.4, d=0.6), r)
    ref = ref_figarch_path(5e-5, 0.2, 0.4, 0.6, r, models.DEFAULT_TRUNCATION)
    assert_allclose(vp.sigma2, ref, rtol=1e-10)


def test_igarch_path_is_d1_slice():
    r = rng_returns(n=150)
    pi = ParamVector(omega=2e-4, alpha=0.1, beta=0.5, d=1.0)
    pf = pi.with_(d=1.0)
    a = variance_path(IGARCH, pi, r, T=200).sigma2
    b = variance_path(FIGARCH, pf, r, T=200).sigma2
    assert_allclose(a, b, rtol=0, atol=1e-12)
    assert_allclose(a, ref_figarch_path(2e-4, 0.1, 0.5, 1.0, r, 200), rtol=1e-12)


def test_figarch_d0_nests_garch():
    r = rng_returns(n=500, seed=3)
    for omega, a, b in [(5e-6, 0.08, 0.91), (1e-4, 0.3, 0.65), (1e-4, 0.0, 0.0)]:
        g = variance_path(GARCH, ParamVector(omega, a, b), r).sigma2
        f = variance_path(FIGARCH, ParamVector(omega, a, b, d=0.0), r).sigma2
        assert np.max(np.abs(g - f)) < 1e-12


def test_nonpositive_variance_is_infeasible_signal():
    # d = 1 slice with a large alpha and a tiny intercept drives sigma2 below 0
    r = np.array([1.0, -1.0, 0.0, 0.0, 0.0])
    p = ParamVector(omega=1e-12, alpha=0.5, beta=0.5, d=1.0)
    with pytest.raises(InfeasibleParamsError, match="sigma2"):
        variance_path(IGARCH, p, r, T=10)


def test_beta_at_one_is_infeasible():
    with pytest.raises(InfeasibleParamsError):
        variance_path(FIGARCH, ParamVector(1e-5, 0.1, 1.0, d=0.4), rng_returns())


@pytest.mark.parametrize("nu", [2.0, 1.5, math.inf, math.nan])
def test_nu_outside_its_domain_is_a_rejection_without_warnings(nu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibleParamsError, match="nu"):
            log_likelihood(GARCH, ParamVector(1e-5, 0.1, 0.8, nu=nu), rng_returns())


@pytest.mark.parametrize("d,finite", [(1e-17, True), (1e-300, True), (0.0, False), (5e-324, False)])
def test_score_in_d_at_tiny_d_is_finite_or_a_rejection_without_warnings(d, finite):
    engine = _Likelihood(FIGARCH, rng_returns(), T=100, reject_negative_weights=True)
    p = ParamVector(1e-4, 0.1, 0.3, d=d, nu=8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if finite:
            assert np.isfinite(engine.score(p)[1]).all()
            assert np.isfinite(engine.hessian(p)[2]).all()
        else:
            with pytest.raises(InfeasibleParamsError, match="score in d"):
                engine.score(p)
            with pytest.raises(InfeasibleParamsError, match="score in d"):
                engine.hessian(p)


@pytest.mark.parametrize("free_d", [True, False])
@pytest.mark.parametrize("alpha,beta,d", [(0.2, 0.5, 0.6), (0.05, 0.9, 0.05), (1e-4, 0.3, 0.97)])
def test_weight_jacobian_matches_central_differences_of_the_weights(alpha, beta, d, free_d):
    engine = _Likelihood(FIGARCH, rng_returns(), T=200)
    W = engine.weight_jacobian(ParamVector(1e-4, alpha, beta, d=d), free_d)
    theta = np.array([alpha, beta, d])
    for k in range(3 if free_d else 2):
        h = np.zeros(3)
        h[k] = 1e-7 * max(theta[k], 1e-3)
        up = frac_weights((theta + h)[2], 200, *(theta + h)[:2]).lam
        down = frac_weights((theta - h)[2], 200, *(theta - h)[:2]).lam
        assert_allclose(W[k], (up - down) / (2.0 * h[k]), rtol=1e-5, atol=1e-8)
    assert W.shape == (3 if free_d else 2, 200)
    # the second derivatives, against differences of the first
    W_again, W2 = engine.weight_jacobian(ParamVector(1e-4, alpha, beta, d=d), free_d, second=True)
    assert np.array_equal(W_again, W)
    for k in range(W.shape[0]):
        h = np.zeros(3)
        h[k] = 1e-6 * max(theta[k], 1e-3)
        up, down = (engine.weight_jacobian(ParamVector(1e-4, *x[:2], d=x[2]), free_d)
                    for x in (theta + h, theta - h))
        assert_allclose(W2[:, k], (up - down) / (2.0 * h[k]), rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("T", [0, -5])
@pytest.mark.parametrize("family", [GARCH, FIGARCH])
def test_nonpositive_truncation_rejected(family, T):
    p = ParamVector(1e-5, 0.1, 0.5, d=0.0 if family is GARCH else 0.4)
    with pytest.raises(DomainError, match="truncation horizon must be >= 1"):
        variance_path(family, p, rng_returns(), T=T)


@pytest.mark.parametrize("make", [
    lambda: FitConfig(GARCH, T=10.5),
    lambda: FitConfig(GARCH, max_iters=2.5),
    lambda: FitConfig(GARCH, restarts=1.5),
    lambda: FitConfig(GARCH, seed=1.5),
    lambda: SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.5), n=10.5),
    lambda: SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.5), n=10, burn_in=1.5),
    lambda: SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.5), n=10, T=2.5),
    lambda: SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.5), n=10, seed=1.5),
    lambda: squared_autocorr(rng_returns(), 2.5),
    lambda: frac_weights(0.4, 2.5),
    lambda: variance_path(FIGARCH, ParamVector(1e-5, 0.1, 0.5, d=0.4), rng_returns(), T=2.5),
], ids=["fit-T", "fit-max_iters", "fit-restarts", "fit-seed", "sim-n", "sim-burn_in", "sim-T",
        "sim-seed", "acf-max_lag", "frac_weights-T", "engine-T"])
def test_a_size_that_is_not_an_integer_is_a_domain_error(make):
    with pytest.raises(DomainError, match="must be an integer"):
        make()


def test_family_parser_ignores_case_and_names_the_choices():
    assert ModelFamily.from_string(" FIGARCH ") is FIGARCH
    with pytest.raises(DomainError, match="unknown family 'arch'; choose from garch, igarch, figarch"):
        ModelFamily.from_string("arch")


def test_empty_returns_rejected():
    with pytest.raises(DomainError):
        variance_path(GARCH, ParamVector(1e-5, 0.05, 0.9), np.array([]))


def test_nan_returns_rejected():
    with pytest.raises(DomainError):
        variance_path(GARCH, ParamVector(1e-5, 0.05, 0.9), np.array([0.1, np.nan]))


# ---------------------------------------------------------- likelihood engine

ENGINE_POINTS = {
    GARCH: [ParamVector(1e-5, 0.08, 0.9, nu=8.0), ParamVector(2e-5, 0.1, 0.85)],
    IGARCH: [ParamVector(1e-4, 0.1, 0.6, d=1.0, nu=8.0), ParamVector(3e-4, 0.15, 0.5, d=1.0)],
    FIGARCH: [ParamVector(1e-5, 0.2, 0.5, d=0.6, nu=8.0), ParamVector(2e-5, 0.1, 0.3, d=0.4)],
}


@pytest.mark.parametrize("n", [3000, 10_000])
@pytest.mark.parametrize("family", [GARCH, IGARCH, FIGARCH])
def test_engine_is_bit_identical_to_fresh_evaluation(family, n):
    r = rng_returns(n=n, seed=5)
    engine = _Likelihood(family, r)
    points = ENGINE_POINTS[family]
    for p in points + points[::-1]:  # the repeats come from the memo
        fresh = variance_path(family, p, r)
        vp = engine.variance_path(p)
        assert vp.loglik == fresh.loglik == log_likelihood(family, p, r)
        assert np.array_equal(vp.sigma2, fresh.sigma2)


@pytest.mark.parametrize("n", [3000, 10_000])
def test_engine_neighbours_in_omega_or_nu_share_one_convolution(n):
    r = rng_returns(n=n, seed=6)
    p = ParamVector(1e-5, 0.2, 0.5, d=0.6, nu=8.0)
    engine = _Likelihood(FIGARCH, r, reject_negative_weights=True)
    engine.loglik(p)
    entry = engine._memo
    for q in (p.with_(omega=1.0001e-5), p.with_(omega=0.9999e-5),
              p.with_(nu=8.0008), p.with_(nu=7.9992), p.with_(nu=None)):
        assert engine.loglik(q) == log_likelihood(FIGARCH, q, r)
        assert np.array_equal(engine.variance_path(q).sigma2, variance_path(FIGARCH, q, r).sigma2)
    assert engine._memo is entry


def test_engine_rejects_negative_weights_on_first_and_memoised_call(monkeypatch):
    # lambda_2 = alpha*(beta - d) + d*(1-d)/2 = -0.72 < 0, but omega keeps sigma2 > 0
    p = ParamVector(1.0, 0.9, 0.05, d=0.9, nu=8.0)
    r = rng_returns()
    assert math.isfinite(log_likelihood(FIGARCH, p, r))  # public path: no weight check
    calls = []
    real = models.frac_weights
    monkeypatch.setattr(models, "frac_weights", lambda *a: calls.append(a) or real(*a))
    engine = _Likelihood(FIGARCH, r, reject_negative_weights=True)
    for _ in range(2):
        with pytest.raises(InfeasibleParamsError, match="negative ARCH"):
            engine.loglik(p)
    with pytest.raises(InfeasibleParamsError, match="negative ARCH"):
        engine.loglik(p.with_(omega=2.0))
    assert len(calls) == 1  # the weights are built once per (alpha, beta, d)


def test_engine_memo_is_bounded_and_evicts_oldest_first():
    r = rng_returns(n=500, seed=8)
    engine = _Likelihood(FIGARCH, r)
    points = [ParamVector(1e-5, 0.2, 0.5, d=0.3 + 0.01 * k, nu=8.0) for k in range(6)]
    for p in points:
        engine.loglik(p)
        assert engine._memo[0] == (0.2, 0.5, p.d)  # one key: the last evaluated
    assert engine.loglik(points[0]) == log_likelihood(FIGARCH, points[0], r)
    assert engine._memo[0] == (0.2, 0.5, points[0].d)


# ------------------------------------------------------------------------ score

@pytest.fixture(scope="module")
def score_series():
    """GARCH-t and FIGARCH-t series at n = 3000 and 10000."""
    out = {}
    for n in (3000, 10_000):
        for family, truth in ((GARCH, ParamVector(1e-6, 0.08, 0.91, nu=8.0)),
                              (FIGARCH, ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0))):
            out[family, n] = simulate_path(SimConfig(family, truth, n=n, seed=4))[0].returns
    return out


def _central_difference(f, x, i):
    # fourth-order central difference, step 1e-5 relative to x_i
    h = 1e-5 * abs(x[i])

    def at(k):
        y = x.copy()
        y[i] += k * h
        return f(y)

    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


def _off_truth(score_series, family, fixed_d, nu, n):
    """Returns, a point off the truth and the free parameter names, so that
    no component of the score is near zero."""
    if family is GARCH:
        r = score_series[GARCH, n]
        p = ParamVector(1.2e-6, 0.07, 0.9, nu=nu)
    elif family is IGARCH:
        # the d = 1 weights beyond the first are negative: an intercept this
        # large keeps sigma2 positive (as in acceptance criterion 1)
        r = score_series[GARCH, n]
        e2max = float(((r - r.mean()) ** 2).max())
        p = ParamVector(2.0 * 0.4 * 0.1 * e2max, 0.1, 0.6, d=1.0, nu=nu)
    else:
        r = score_series[FIGARCH, n]
        p = ParamVector(1.2e-6, 0.18, 0.45, d=0.55, nu=nu)
    names = ["omega", "alpha", "beta"]
    if family is FIGARCH and not fixed_d:
        names.append("d")
    if nu is not None:
        names.append("nu")
    return r, p, names


@pytest.mark.parametrize("n", [3000, 10_000])
@pytest.mark.parametrize("nu", [7.0, None])
@pytest.mark.parametrize("family,fixed_d", [(GARCH, False), (IGARCH, False),
                                            (FIGARCH, False), (FIGARCH, True)])
def test_score_matches_central_differences_of_the_loglik(score_series, family, fixed_d, nu, n):
    r, p, names = _off_truth(score_series, family, fixed_d, nu, n)
    engine = _Likelihood(family, r, reject_negative_weights=True)
    ll, score = engine.score(p, fixed_d=fixed_d)
    assert ll == engine.loglik(p)
    x0 = np.array([getattr(p, name) for name in names])
    f = lambda x: engine.loglik(p.with_(**dict(zip(names, x.tolist()))))
    fd = [_central_difference(f, x0, i) for i in range(x0.size)]
    assert_allclose(score, fd, rtol=1e-6)


@pytest.mark.parametrize("nu", [7.0, None])
@pytest.mark.parametrize("family,fixed_d", [(GARCH, False), (IGARCH, False),
                                            (FIGARCH, False), (FIGARCH, True)])
def test_hessian_matches_central_differences_of_the_score(score_series, family, fixed_d, nu):
    # the same fourth-order differences, of the exact score: within 1e-6 of
    # each entry (5e-9 seen); the Hessian pass returns the score pass's values
    r, p, names = _off_truth(score_series, family, fixed_d, nu, 3000)
    engine = _Likelihood(family, r, reject_negative_weights=True)
    ll, score, H = engine.hessian(p, fixed_d=fixed_d)
    ll_score, score_again = engine.score(p, fixed_d=fixed_d)
    assert ll == ll_score and np.array_equal(score, score_again)
    x0 = np.array([getattr(p, name) for name in names])
    f = lambda x: engine.score(p.with_(**dict(zip(names, x.tolist()))), fixed_d=fixed_d)[1]
    fd = np.column_stack([_central_difference(f, x0, i) for i in range(x0.size)])
    assert_allclose(H, fd, rtol=1e-6)


@given(
    omega=st.floats(min_value=1e-7, max_value=1e-2),
    alpha=st.floats(min_value=0.0, max_value=0.5),
    frac=st.floats(min_value=0.0, max_value=0.98),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_positivity_over_feasible_garch_region(omega, alpha, frac, seed):
    beta = frac * (1.0 - alpha)  # keeps alpha + beta < 1
    r = 0.01 * np.random.default_rng(seed).standard_normal(150)
    vp = variance_path(GARCH, ParamVector(omega, alpha, beta), r)
    assert np.all(vp.sigma2 > 0)


def test_truncation_horizon_is_configurable():
    r = rng_returns(n=200)
    p = ParamVector(1e-5, 0.2, 0.4, d=0.6)
    short = variance_path(FIGARCH, p, r, T=5).sigma2
    long = variance_path(FIGARCH, p, r, T=500).sigma2
    assert not np.allclose(short, long)  # the horizon genuinely matters


# --------------------------------------------------------------- log-likelihood

def test_single_zero_innovation_gaussian():
    # one observation demeans to e = 0 and sigma2 = 1
    ll = log_likelihood(GARCH, ParamVector(1.0, 0.0, 0.0), np.array([0.37]))
    assert ll == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-12)
    assert ll == pytest.approx(-0.91894, abs=5e-6)


def test_gaussian_loglik_matches_scipy_norm():
    r = rng_returns(n=200, seed=5)
    p = ParamVector(1e-5, 0.1, 0.7)
    vp = variance_path(GARCH, p, r)
    e = r - r.mean()
    oracle = scipy.stats.norm.logpdf(e, scale=np.sqrt(vp.sigma2)).sum()
    assert vp.loglik == pytest.approx(oracle, rel=1e-12)


def test_student_loglik_matches_scipy_t():
    r = rng_returns(n=200, seed=6)
    nu = 7.3
    p = ParamVector(1e-5, 0.1, 0.7, nu=nu)
    vp = variance_path(GARCH, p, r)
    e = r - r.mean()
    scale = np.sqrt(vp.sigma2 * (nu - 2.0) / nu)
    oracle = scipy.stats.t.logpdf(e, df=nu, scale=scale).sum()
    assert vp.loglik == pytest.approx(oracle, rel=1e-12)


def test_student_tends_to_gaussian_for_large_nu():
    r = rng_returns(n=150, seed=7)
    p = ParamVector(1e-5, 0.1, 0.7)
    ll_gauss = log_likelihood(GARCH, p, r)
    ll_t = log_likelihood(GARCH, p.with_(nu=1e6), r)
    assert abs(ll_t - ll_gauss) < 1e-3


@pytest.mark.parametrize("nu", [1e15, 1e200, 1e300, 1e308, sys.float_info.max])
def test_student_logpdf_at_huge_nu_is_the_standard_normal(nu):
    # ln Gamma((nu+1)/2) - ln Gamma(nu/2) as a difference of gammaln cancels
    # there, a float ** in its series overflows above nu ~ 1e103, and
    # pi * (nu - 2) above nu ~ 5.7e307
    z = np.linspace(-6.0, 6.0, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_allclose(student_logpdf(z, nu), scipy.stats.norm.logpdf(z), rtol=0.0, atol=1e-12)


def test_student_loglik_at_huge_nu_is_the_gaussian_loglik():
    r = rng_returns(n=150, seed=7)
    p = ParamVector(1e-5, 0.1, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll_t = log_likelihood(GARCH, p.with_(nu=1e200), r)
    assert ll_t == pytest.approx(log_likelihood(GARCH, p, r), rel=1e-13)


def test_student_loglik_at_the_largest_nu_is_the_gaussian_loglik():
    r = rng_returns(n=150, seed=7)
    p = ParamVector(1e-5, 0.1, 0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ll_t = log_likelihood(GARCH, p.with_(nu=1e308), r)
    assert ll_t == pytest.approx(log_likelihood(GARCH, p, r), rel=1e-14)


def test_student_logpdf_rejects_infinite_nu():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            student_logpdf(0.0, math.inf)


def test_student_density_integrates_to_one_on_finite_range():
    mass, _ = quad(lambda z: math.exp(student_logpdf(z, 5.0)), -50.0, 50.0)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("nu", [2.5, 4.0, 9.0, 25.0])
def test_student_density_has_unit_variance(nu):
    var, _ = quad(lambda z: z * z * math.exp(student_logpdf(z, nu)),
                  -np.inf, np.inf, limit=200)
    assert var == pytest.approx(1.0, abs=1e-6)


def test_student_logpdf_rejects_small_nu():
    with pytest.raises(DomainError):
        student_logpdf(0.0, 2.0)


# --------------------------------------------------------------- validate_params

def test_validate_accepts_textbook_garch():
    validate_params(GARCH, ParamVector(1e-6, 0.08, 0.91))


def test_validate_rejects_nonpositive_omega():
    with pytest.raises(DomainError, match="omega"):
        validate_params(GARCH, ParamVector(0.0, 0.08, 0.9))


def test_validate_rejects_explosive_garch():
    with pytest.raises(DomainError, match="below 1"):
        validate_params(GARCH, ParamVector(1e-6, 0.2, 0.8))


def test_validate_rejects_small_nu():
    with pytest.raises(DomainError, match="nu"):
        validate_params(GARCH, ParamVector(1e-6, 0.05, 0.9, nu=2.0))


def test_validate_pins_d_per_family():
    with pytest.raises(DomainError, match="fixed at 0"):
        validate_params(GARCH, ParamVector(1e-6, 0.05, 0.9, d=0.5))
    with pytest.raises(DomainError, match="fixed at 1"):
        validate_params(IGARCH, ParamVector(1e-6, 0.05, 0.9, d=0.0))


@pytest.mark.parametrize("family, params, name", [
    (GARCH, ParamVector(1e-6, math.nan, 0.5), "alpha"),
    (GARCH, ParamVector(1e-6, 0.05, math.nan), "beta"),
    (IGARCH, ParamVector(1e-6, math.nan, 0.5, d=1.0), "alpha"),
    (IGARCH, ParamVector(1e-6, 0.05, math.nan, d=1.0), "beta"),
    (FIGARCH, ParamVector(1e-6, math.nan, 0.4, d=0.6), "alpha"),
    (FIGARCH, ParamVector(1e-6, 0.2, math.nan, d=0.6), "beta"),
    (FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=math.nan), "d"),
    (FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=math.inf), "d"),
    (GARCH, ParamVector(1e-6, -math.inf, 0.5), "alpha"),
])
def test_validate_rejects_non_finite_coefficients(family, params, name):
    # every comparison with NaN is false, so the range checks alone let it through
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        validate_params(family, params)


def test_validate_rejects_d_outside_unit_interval():
    with pytest.raises(DomainError, match=r"\[0,1\]"):
        validate_params(FIGARCH, ParamVector(1e-6, 0.05, 0.5, d=1.2))


def test_validate_rejects_negative_arch_inf_weights():
    # lambda_2 = alpha*(beta - d) + d*(1-d)/2 = -0.72 here
    with pytest.raises(DomainError, match="lambda_2"):
        validate_params(FIGARCH, ParamVector(1e-6, 0.9, 0.05, d=0.9))


def test_validate_accepts_interior_figarch():
    validate_params(FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=0.6))


def test_validate_allows_negative_alpha_when_weights_stay_nonnegative():
    # the feasibility frontier is on the ARCH(inf) weights, not on alpha itself
    validate_params(FIGARCH, ParamVector(1e-6, -0.05, 0.1, d=0.6))
