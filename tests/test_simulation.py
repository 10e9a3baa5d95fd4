"""Tests for path simulation and squared-return autocorrelation."""

from __future__ import annotations

import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from volentropy import (
    AutocorrUndefinedError,
    DomainError,
    InfeasibleParamsError,
    ModelFamily,
    ParamVector,
    SimConfig,
    simulate_path,
    squared_autocorr,
)
from volentropy import simulation
from volentropy.simulation import MAX_PATH_LENGTH

GARCH, IGARCH, FIGARCH = ModelFamily.GARCH, ModelFamily.IGARCH, ModelFamily.FIGARCH


@pytest.fixture(scope="module")
def iid_path():
    # omega=1, alpha=beta=0 collapses the recursion to sigma2 == 1, so the
    # output is just the raw innovation stream
    return simulate_path(SimConfig(GARCH, ParamVector(1.0, 0.0, 0.0), n=100_000, seed=0))


@pytest.fixture(scope="module")
def long_memory_paths():
    figarch = ParamVector(1e-6, 0.2, 0.4, d=0.6)
    garch = ParamVector(1e-6, 0.1, 0.8)  # alpha + beta = 0.9, geometric decay
    out = {}
    for seed in (0, 1):
        sf, _ = simulate_path(SimConfig(FIGARCH, figarch, n=100_000, seed=seed))
        sg, _ = simulate_path(SimConfig(GARCH, garch, n=100_000, seed=seed))
        out[seed] = (sf.returns, sg.returns)
    return out


# ---------------------------------------------------------------- determinism

def test_same_config_same_seed_is_bit_identical():
    cfg = SimConfig(FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=0.6, nu=8.0), n=2_000, seed=42)
    s1, v1 = simulate_path(cfg)
    s2, v2 = simulate_path(cfg)
    assert np.array_equal(s1.returns, s2.returns)
    assert np.array_equal(v1, v2)
    assert s1.dates == s2.dates


def test_different_seeds_give_different_paths():
    p = ParamVector(1e-5, 0.1, 0.7)
    s1, _ = simulate_path(SimConfig(GARCH, p, n=500, seed=0))
    s2, _ = simulate_path(SimConfig(GARCH, p, n=500, seed=1))
    assert not np.array_equal(s1.returns, s2.returns)


# --------------------------------------------------------------- moment checks

def test_iid_case_has_unit_variance(iid_path):
    series, sigma2 = iid_path
    assert np.all(sigma2 == 1.0)
    assert 0.97 <= float(series.returns.var()) <= 1.03


def test_garch_matches_unconditional_variance():
    # omega / (1 - alpha - beta) = 1e-6 / 0.01 = 1e-4
    series, _ = simulate_path(SimConfig(GARCH, ParamVector(1e-6, 0.08, 0.91), n=100_000, seed=1))
    var = float(series.returns.var())
    assert abs(var - 1e-4) <= 0.15 * 1e-4


def test_gaussian_standardized_residuals_have_normal_kurtosis():
    series, sigma2 = simulate_path(
        SimConfig(GARCH, ParamVector(1e-6, 0.08, 0.91), n=1_000_000, seed=2))
    z = series.returns / np.sqrt(sigma2)
    assert 2.9 <= float(stats.kurtosis(z, fisher=False)) <= 3.1


def test_student_standardized_residuals_match_t8_moments():
    # standardized t_8 has variance 1 and kurtosis 3 + 6/(nu-4) = 4.5
    series, sigma2 = simulate_path(
        SimConfig(GARCH, ParamVector(1e-6, 0.08, 0.91, nu=8.0), n=1_000_000, seed=3))
    z = series.returns / np.sqrt(sigma2)
    assert 0.97 <= float(z.var()) <= 1.03
    assert 3.8 <= float(stats.kurtosis(z, fisher=False)) <= 5.5


# -------------------------------------------------------------------- burn-in

def test_default_burn_in_is_2000():
    cfg = SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.7), n=10)
    assert cfg.burn_in == 2000


@pytest.mark.parametrize("family,params", [
    (GARCH, ParamVector(1e-6, 0.08, 0.91, nu=8.0)),
    (FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=0.6)),
])
def test_burn_in_discards_exactly_the_prefix(family, params):
    # one stream of draws, two slicings: n observations after a burn-in of k
    # must equal the tail of a (k + n)-long path with no burn-in
    k, n = 300, 500
    kept, _ = simulate_path(SimConfig(family, params, n=n, burn_in=k, seed=7))
    full, _ = simulate_path(SimConfig(family, params, n=k + n, burn_in=0, seed=7))
    assert np.array_equal(kept.returns, full.returns[k:])


@pytest.mark.parametrize("family,params", [
    (GARCH, ParamVector(1e-6, 0.08, 0.91, nu=8.0)),
    (FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=0.6)),
])
def test_kept_vectors_hold_none_of_the_burn_in(family, params):
    # a view past the burn-in would keep all 10 100 simulated steps alive
    series, sigma2 = simulate_path(SimConfig(family, params, n=100, burn_in=10_000, seed=7))
    assert series.returns.base is None and sigma2.base is None
    assert series.returns.nbytes == sigma2.nbytes == 800


# ----------------------------------------------------------------- output form

def test_output_lengths_dates_and_metadata():
    cfg = SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.7), n=64, seed=5)
    series, sigma2 = simulate_path(cfg)
    assert len(series) == 64
    assert sigma2.shape == (64,)
    assert np.all(sigma2 > 0)
    assert len(set(series.dates)) == 64
    assert all(b > a for a, b in zip(series.dates, series.dates[1:]))
    assert series.id == "sim-garch"
    assert "seed=5" in series.source


# ---------------------------------------------------------------- error paths

def test_infeasible_params_rejected_at_config_time():
    with pytest.raises(DomainError):
        SimConfig(GARCH, ParamVector(1e-5, 0.5, 0.6), n=100)  # alpha + beta > 1
    with pytest.raises(InfeasibleParamsError):
        # negative ARCH(inf) weights (lambda_2 < 0) are caught before any draw
        SimConfig(FIGARCH, ParamVector(1e-5, 0.9, 0.05, d=0.9), n=100)


def test_bad_lengths_rejected():
    p = ParamVector(1e-5, 0.1, 0.7)
    with pytest.raises(DomainError):
        SimConfig(GARCH, p, n=0)
    with pytest.raises(DomainError):
        SimConfig(GARCH, p, n=10, burn_in=-1)


def test_paths_past_the_calendar_end_rejected_at_config_time():
    # simulated days run from 2000-01-01; 9999-12-31 is day 2 921 940
    p = ParamVector(1e-5, 0.1, 0.7)
    assert MAX_PATH_LENGTH == 2_921_940
    assert SimConfig(GARCH, p, n=MAX_PATH_LENGTH).n == MAX_PATH_LENGTH
    for n in (MAX_PATH_LENGTH + 1, 3_000_000, 10**18):
        with pytest.raises(DomainError, match=f"at most 2921940, got {n}: .*9999-12-31"):
            SimConfig(GARCH, p, n=n)


def test_the_longest_path_ends_on_the_calendar_end(monkeypatch):
    # the recursion is replaced by a constant path: only the dates are under test
    monkeypatch.setattr(simulation, "_simulate_garch", lambda p, z: (z * 0.0, z * 0.0 + 1.0))
    series, _ = simulate_path(SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.7),
                                        n=MAX_PATH_LENGTH, burn_in=0))
    assert series.dates[0] == dt.date(2000, 1, 1) and series.dates[-1] == dt.date.max


@pytest.mark.parametrize("T", [0, -5])
@pytest.mark.parametrize("family, params", [
    (GARCH, ParamVector(1e-5, 0.1, 0.7)),
    (FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=0.6)),
])
def test_nonpositive_truncation_rejected_at_config_time(family, params, T):
    # GARCH never reads T, so only the config object can catch it
    with pytest.raises(DomainError, match="truncation horizon must be >= 1"):
        SimConfig(family, params, n=100, T=T)


def test_igarch_with_negligible_omega_fails_mid_path():
    # the d=1 slice has negative tail weights, so with omega ~ 0 the variance
    # recursion eventually crosses zero; the error names the offending step
    cfg = SimConfig(IGARCH, ParamVector(1e-10, 0.5, 0.5, d=1.0), n=50_000, seed=0)
    with pytest.raises(InfeasibleParamsError, match="step"):
        simulate_path(cfg)


# ------------------------------------------------------- squared autocorrelation

def test_white_noise_squared_acf_is_negligible(iid_path):
    series, _ = iid_path
    acf = squared_autocorr(series.returns, 20)
    assert acf.shape == (20,)
    assert float(np.abs(acf).max()) <= 0.02


def test_lag0_prepended_on_request(iid_path):
    series, _ = iid_path
    acf = squared_autocorr(series.returns, 5, include_lag0=True)
    assert acf.shape == (6,)
    assert acf[0] == 1.0


def test_constant_series_has_undefined_autocorr():
    with pytest.raises(AutocorrUndefinedError):
        squared_autocorr(np.ones(50), 3)
    with pytest.raises(AutocorrUndefinedError):
        squared_autocorr(np.zeros(50), 3)
    with pytest.raises(AutocorrUndefinedError):
        squared_autocorr(np.array([-2.0, 2.0, -2.0, 2.0, -2.0]), 2)  # squares constant


def test_autocorr_argument_validation():
    r = np.arange(10.0)
    with pytest.raises(DomainError):
        squared_autocorr(r, 0)
    with pytest.raises(DomainError):
        squared_autocorr(r, 10)  # need strictly more observations than lags


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_autocorr_rejects_non_finite_returns(bad):
    r = np.random.default_rng(0).standard_normal(100)
    r[10] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="NaN or infinite"):
            squared_autocorr(r, 5)


@pytest.mark.parametrize("big", [1e100, 1e200])
def test_autocorr_rejects_returns_whose_squares_overflow(big):
    # at 1e200 the square overflows; at 1e100 the sum of squared squares does
    r = np.random.default_rng(0).standard_normal(200)
    r[10] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="squares overflow"):
            squared_autocorr(r, 5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=5, max_size=40), st.integers(1, 3))
def test_autocorr_always_within_unit_interval(values, max_lag):
    x = np.asarray(values)
    assume(float(np.ptp(x * x)) > 1e-9)
    acf = squared_autocorr(x, max_lag)
    assert np.all(acf >= -1.0) and np.all(acf <= 1.0)


# -------------------------------------------------------------- long memory

@pytest.mark.parametrize("seed", [0, 1])
def test_figarch_squared_acf_outlasts_garch_at_lag_100(long_memory_paths, seed):
    fig, gar = long_memory_paths[seed]
    acf_fig = squared_autocorr(fig, 100)
    acf_gar = squared_autocorr(gar, 100)
    assert acf_fig[99] > acf_gar[99]


@pytest.mark.parametrize("seed", [0, 1])
def test_figarch_acf_decays_slower_than_geometric_envelope(long_memory_paths, seed):
    # fit a * r**k through lags 1..5 by log-linear least squares, then check
    # the sample acf sits above that envelope everywhere on lags 50..100
    fig, _ = long_memory_paths[seed]
    acf = squared_autocorr(fig, 100)
    head = acf[:5]
    assert np.all(head > 0)
    slope, intercept = np.polyfit(np.arange(1, 6), np.log(head), 1)
    lags = np.arange(50, 101)
    envelope = np.exp(intercept) * np.exp(slope) ** lags
    assert np.all(acf[lags - 1] > envelope)
