import math
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.special import expit
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import volentropy.estimation as estimation
import volentropy.models as models
from volentropy import (
    BoundaryError,
    DomainError,
    FitConfig,
    FitResult,
    InfeasibleParamsError,
    InsufficientDataError,
    ModelFamily,
    VolentropyError,
    ParamVector,
    SimConfig,
    StdErrReport,
    fit,
    log_likelihood,
    param_names,
    persistence_check,
    simulate_path,
    standard_errors,
    transform_from_unconstrained,
    transform_to_unconstrained,
    validate_params,
)
from volentropy.estimation import (
    _bfgs,
    _covariance_from_hessian,
    _initial_params,
    _jacobian,
    _make_engine,
    _off_face,
    _unconstrained_hessian,
    _unconstrained_score,
    _wall,
)

GARCH, IGARCH, FIGARCH = ModelFamily.GARCH, ModelFamily.IGARCH, ModelFamily.FIGARCH


def sim_garch(n=2000, seed=0, nu=None, omega=1e-6, alpha=0.08, beta=0.91):
    cfg = SimConfig(GARCH, ParamVector(omega, alpha, beta, nu=nu), n=n, seed=seed)
    return simulate_path(cfg)[0]


# ------------------------------------------------------------------ transforms

def test_omega_one_maps_to_zero_coordinate():
    u = transform_to_unconstrained(ParamVector(1.0, 0.1, 0.5), GARCH)
    assert u[0] == 0.0


def test_d_half_maps_to_zero_coordinate():
    u = transform_to_unconstrained(ParamVector(1e-5, 0.2, 0.4, d=0.5), FIGARCH)
    assert u[3] == pytest.approx(0.0, abs=1e-15)


def test_alpha_zero_is_boundary_error():
    with pytest.raises(BoundaryError, match="interior"):
        transform_to_unconstrained(ParamVector(1e-5, 0.0, 0.9), GARCH)


def test_unit_persistence_is_boundary_error():
    with pytest.raises(BoundaryError):
        transform_to_unconstrained(ParamVector(1e-5, 0.2, 0.8), GARCH)


def test_d_boundary_is_boundary_error():
    with pytest.raises(BoundaryError):
        transform_to_unconstrained(ParamVector(1e-5, 0.2, 0.4, d=1.0), FIGARCH)


interior = st.tuples(
    st.floats(min_value=1e-8, max_value=10.0),      # omega
    st.floats(min_value=1e-4, max_value=0.8),       # alpha
    st.floats(min_value=1e-4, max_value=0.98),      # beta share / beta
    st.floats(min_value=1e-3, max_value=1.0 - 1e-3),  # d
    st.floats(min_value=2.05, max_value=200.0),     # nu
)


@given(interior, st.booleans())
@settings(max_examples=150)
def test_transform_roundtrip_all_families(vals, student):
    omega, alpha, share, d, nu = vals
    nu = nu if student else None
    for family, d_fixed in ((GARCH, None), (IGARCH, None), (FIGARCH, None), (FIGARCH, d)):
        if family is GARCH:
            beta = share * (1.0 - alpha) * 0.999  # keep alpha + beta < 1
            p = ParamVector(omega, alpha, beta, d=0.0, nu=nu)
        elif family is IGARCH:  # alpha on (-1, 0), where the d = 1 weights are nonnegative
            p = ParamVector(omega, -alpha, min(share, 0.99), d=1.0, nu=nu)
        else:
            p = ParamVector(omega, alpha, min(share, 0.99), d=d, nu=nu)
        u = transform_to_unconstrained(p, family, d_fixed)
        q = transform_from_unconstrained(u, family,
                                         "student" if student else "gaussian", d_fixed)
        assert q.omega == pytest.approx(p.omega, rel=1e-10)
        assert q.alpha == pytest.approx(p.alpha, rel=1e-10, abs=1e-12)
        assert q.beta == pytest.approx(p.beta, rel=1e-10, abs=1e-12)
        assert q.d == pytest.approx(p.d, rel=1e-10, abs=1e-12)
        if student:
            assert q.nu == pytest.approx(p.nu, rel=1e-10)


@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=3, max_size=3))
@settings(max_examples=200)
def test_inverse_transform_always_lands_in_garch_region(u):
    p = transform_from_unconstrained(np.array(u), GARCH, "gaussian")
    assert p.omega > 0
    assert p.alpha >= 0 and p.beta >= 0
    assert p.alpha + p.beta < 1


def test_param_names_layouts():
    assert param_names(GARCH, "gaussian") == ("omega", "alpha", "beta")
    assert param_names(GARCH, "student") == ("omega", "alpha", "beta", "nu")
    assert param_names(FIGARCH, "student") == ("omega", "alpha", "beta", "d", "nu")
    assert param_names(FIGARCH, "student", d_fixed=0.4) == ("omega", "alpha", "beta", "nu")
    assert param_names(IGARCH, "gaussian") == ("omega", "alpha", "beta")


# -------------------------------------------------------------------- FitConfig

def test_config_rejects_unknown_innovation():
    with pytest.raises(DomainError, match="innovation"):
        FitConfig(GARCH, innovation="cauchy")


def test_config_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        FitConfig(GARCH, tol=0.0)


def test_config_rejects_d_fixed_for_wrong_family():
    with pytest.raises(DomainError, match="FIGARCH"):
        FitConfig(GARCH, d_fixed=0.5)


def test_config_rejects_d_fixed_at_boundaries():
    with pytest.raises(DomainError, match="IGARCH"):
        FitConfig(FIGARCH, d_fixed=1.0)
    with pytest.raises(DomainError, match="GARCH"):
        FitConfig(FIGARCH, d_fixed=0.0)


@pytest.mark.parametrize("family,p,d_fixed", [
    (GARCH, ParamVector(1e-5, 0.1, 0.85, nu=6.0), None),
    (GARCH, ParamVector(1e-5, 0.1, 0.85), None),
    (IGARCH, ParamVector(1e-5, -0.5, 0.6, d=1.0, nu=6.0), None),
    (FIGARCH, ParamVector(1e-5, 0.2, 0.5, d=0.6, nu=6.0), None),
    (FIGARCH, ParamVector(1e-5, 0.2, 0.5, d=0.6), 0.6),
    (IGARCH, ParamVector(1e-5, -0.5, 0.6, d=1.0), None),
    (FIGARCH, ParamVector(1e-5, 0.2, 0.5, d=0.6), None),
    (FIGARCH, ParamVector(1e-5, 0.2, 0.5, d=0.6, nu=6.0), 0.6),
])
def test_jacobian_matches_central_differences_of_the_transform(family, p, d_fixed):
    innovation = "gaussian" if p.nu is None else "student"
    names = param_names(family, innovation, d_fixed)
    u0 = transform_to_unconstrained(p, family, d_fixed)
    numeric = np.empty((u0.size, u0.size))
    for j in range(u0.size):
        up, um = u0.copy(), u0.copy()
        up[j] += 1e-6
        um[j] -= 1e-6
        theta = [np.array([getattr(transform_from_unconstrained(u, family, innovation, d_fixed), n)
                           for n in names]) for u in (up, um)]
        numeric[:, j] = (theta[0] - theta[1]) / (up[j] - um[j])
    assert_allclose(_jacobian(p, family, d_fixed), numeric, rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("T", [0, -5])
@pytest.mark.parametrize("family", [GARCH, FIGARCH])
def test_config_rejects_nonpositive_truncation(family, T):
    with pytest.raises(DomainError, match="truncation horizon must be >= 1"):
        FitConfig(family, T=T)


# ------------------------------------------------------- numerical derivatives

def _fd_hessian(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Hessian with steps max(1e-5, 1e-4*|x_i|).

    The reference for the analytic Hessian of ``standard_errors``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.maximum(1e-5, 1e-4 * np.abs(x))
    H = np.empty((n, n))
    f0 = f(x)

    def at(*shifts):
        xs = x.copy()
        for i, s in shifts:
            xs[i] += s
        return f(xs)

    for i in range(n):
        H[i, i] = (at((i, h[i])) - 2.0 * f0 + at((i, -h[i]))) / h[i] ** 2
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = (
                at((i, h[i]), (j, h[j]))
                - at((i, h[i]), (j, -h[j]))
                - at((i, -h[i]), (j, h[j]))
                + at((i, -h[i]), (j, -h[j]))
            ) / (4.0 * h[i] * h[j])
    return H


def test_quadratic_objective_gives_exact_half_stderr():
    # log-likelihood -(theta-2)^2 / (2*0.25): Hessian -1/0.25, stderr 0.5
    cov = _covariance_from_hessian(np.array([[-4.0]]))
    assert cov is not None
    assert math.sqrt(cov[0, 0]) == pytest.approx(0.5, abs=1e-9)


def test_bfgs_backtracks_from_a_wall_and_returns_an_accepted_point():
    # the unconstrained minimum (3, -1) lies beyond a wall at x0 = 1
    rejected = []

    def fun(x):
        if x[0] > 1.0:
            rejected.append(x.copy())
            return math.inf, None
        return (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2, 2.0 * (x - [3.0, -1.0])

    x, f, g, iters = _bfgs(fun, np.array([0.0, 0.0]), max_iters=200, tol=1e-12)
    assert rejected and iters < 200
    assert x[0] <= 1.0 and f == fun(x)[0] < 5.0
    assert_allclose(g, fun(x)[1])


def test_bfgs_slides_along_a_curved_wall_to_the_constrained_minimum():
    # minimise |x - (2, 2)|^2 inside the unit disc, starting below the line
    # to the minimum: the path meets the circle and must follow it
    seen = []  # every point fun is asked for

    def fun(x):
        seen.append(x.copy())
        if x @ x > 1.0 + 1e-12:
            return math.inf, None
        return float((x - 2.0) @ (x - 2.0)), 2.0 * (x - 2.0)

    def wall(x):  # onto the circle along its normal -2x, which points inside
        if x @ x > 1.0 + 1e-12:
            x = x / math.sqrt(x @ x)
        return x, (-2.0 * x if x @ x > 1.0 - 1e-12 else None)

    x, f, r, iters = _bfgs(fun, np.array([0.0, -0.5]), max_iters=200, tol=1e-14, wall=wall)
    assert iters < 200
    assert_allclose(x, [math.sqrt(0.5)] * 2, atol=1e-6)
    # the wall moves a point before fun sees it: fun is never asked outside the disc
    assert seen and all(v @ v <= 1.0 + 1e-12 for v in seen)
    assert np.linalg.norm(r) < 1e-6 and np.linalg.norm(fun(x)[1]) > 1.0


def test_bfgs_reaches_the_rosenbrock_minimum_within_its_budget():
    def rosenbrock(x):
        r = x[1] - x[0] ** 2
        return ((1.0 - x[0]) ** 2 + 100.0 * r * r,
                np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * r, 200.0 * r]))

    x, f, g, iters = _bfgs(rosenbrock, np.array([-1.2, 1.0]), max_iters=200, tol=1e-12)
    assert iters < 200
    assert np.linalg.norm(g) < 1e-8
    assert_allclose(x, [1.0, 1.0], atol=1e-8)


def test_covariance_from_a_hessian_with_cross_terms():
    # Hessian of -(x0^2) - 3 x1^2 + 0.5 x0 x1
    H = np.array([[-2.0, 0.5], [0.5, -6.0]])
    cov = _covariance_from_hessian(H)
    assert_allclose(cov, np.linalg.inv(-H), rtol=1e-14)


def test_indefinite_hessian_has_no_covariance():
    assert _covariance_from_hessian(np.array([[1.0, 0.0], [0.0, -1.0]])) is None
    assert _covariance_from_hessian(np.array([[np.nan, 0.0], [0.0, -1.0]])) is None


def test_hessian_singular_to_working_precision_has_no_covariance():
    # eigenvalues 2 and 1e-15 of -H: a Cholesky factor exists but carries no digits
    H = -np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]])
    np.linalg.cholesky(-H)
    assert _covariance_from_hessian(H) is None


def test_covariance_ignores_a_diagonal_rescaling():
    # a parameter near its bound (alpha about 1e-9 under the log map) shrinks
    # a row and a column of -H, not the information in the fit
    H = np.array([[-2.0, 0.5], [0.5, -6.0]])
    D = np.diag([1.0, 1e-9])
    assert np.linalg.eigvalsh(-D @ H @ D).min() < 1e-15
    assert_allclose(_covariance_from_hessian(D @ H @ D),
                    np.linalg.inv(D) @ np.linalg.inv(-H) @ np.linalg.inv(D), rtol=1e-12)


# -------------------------------------------------------------------------- fit

def test_fit_requires_fifty_observations():
    with pytest.raises(InsufficientDataError):
        fit(np.zeros(49) + 0.01 * np.arange(49), FitConfig(GARCH))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", [GARCH, FIGARCH])
def test_fit_rejects_non_finite_returns_with_domain_error(family, bad):
    r = sim_garch(n=300, seed=1).returns.copy()
    r[17] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="NaN or infinite"):
            fit(r, FitConfig(family))
        with pytest.raises(DomainError, match="NaN or infinite"):
            standard_errors(ParamVector(1e-5, 0.1, 0.5, d=0.4, nu=8.0), r, FitConfig(family))


@pytest.mark.parametrize("T", [0, -5])
@pytest.mark.parametrize("family", [GARCH, FIGARCH])
def test_fit_rejects_nonpositive_truncation(family, T):
    r = sim_garch(n=300, seed=1).returns
    with pytest.raises(DomainError, match="truncation horizon must be >= 1"):
        fit(r, FitConfig(family, T=T))


def test_default_figarch_fit_builds_no_weights_for_its_standard_errors(monkeypatch):
    # the engine keeps the last (alpha, beta, d): the optimum's, whose
    # log-likelihood the fit evaluates just before its standard errors
    calls, built = [], []
    real = models.frac_weights
    monkeypatch.setattr(models, "frac_weights", lambda *a: calls.append(a) or real(*a))
    real_se = estimation._standard_errors

    def recording(*args):
        before = len(calls)
        try:
            return real_se(*args)
        finally:
            built.append(len(calls) - before)

    monkeypatch.setattr(estimation, "_standard_errors", recording)
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=5000, seed=3))
    res = fit(series, FitConfig(FIGARCH))
    assert res.stderr is not None and len(calls) > 100
    assert built == [0]


# Where the simplex search with a finite-difference BFGS polish ended on
# series of this FIGARCH-t truth (restarts=0): (log-likelihood, converged).
# It stopped short on 101, 102 and 104.  It converged where a plain BFGS in
# u does not: alpha drains towards 0, where log(alpha) hides an inward slope
# (103, 124); a lambda_j >= 0 wall lies across the path (222); IGARCH ends
# on its alpha = 0 face instead of the face's beta -> 1 end (225 and, at
# n = 10000, 174894704).
_SIMPLEX_ENDS = {
    (FIGARCH, 3000, 101): (13376.599144783913, False),
    (FIGARCH, 3000, 102): (13275.991199644752, False),
    (FIGARCH, 3000, 104): (12796.549340093252, False),
    (FIGARCH, 3000, 103): (13456.749818561868, True),
    (FIGARCH, 3000, 124): (13753.825220718229, True),
    (FIGARCH, 3000, 222): (13648.018699716647, True),
    (IGARCH, 3000, 225): (13068.160194625596, True),
    (IGARCH, 10000, 174894704): (42118.09000887938, True),
}


@pytest.mark.parametrize("family,n,seed", sorted(_SIMPLEX_ENDS, key=str))
def test_fit_converges_no_lower_than_the_simplex(family, n, seed):
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=n, seed=seed))
    res = fit(series, FitConfig(family, restarts=0))
    loglik, simplex_converged = _SIMPLEX_ENDS[family, n, seed]
    assert res.converged
    # at most 0.05 nats below an optimum the simplex converged to
    assert res.loglik >= loglik - (0.05 if simplex_converged else 0.0)


def test_wall_moves_a_rejected_figarch_point_onto_lambda_zero():
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=1000, seed=3))
    config = FitConfig(FIGARCH)
    engine = _make_engine(series.returns, config)
    inside = transform_to_unconstrained(ParamVector(1e-6, 0.3, 0.4, d=0.3, nu=8.0), FIGARCH)
    assert _wall(engine, config, inside) == (inside, None)
    out = transform_to_unconstrained(ParamVector(1e-6, 0.3, 0.9, d=0.2, nu=8.0), FIGARCH)
    lam = lambda u: models.frac_weights(expit(u[3]), config.T, math.exp(u[1]), expit(u[2])).lam
    assert lam(out).min() < -1e-6
    on, normal = _wall(engine, config, out)
    assert abs(lam(on).min()) <= models._LAMBDA_TOL
    assert normal[0] == normal[4] == 0.0 and np.linalg.norm(normal) > 0.0


def test_wall_builds_no_weights_at_a_point_the_engine_just_evaluated_or_rejected(monkeypatch):
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=1000, seed=3))
    config = FitConfig(FIGARCH)
    engine = _make_engine(series.returns, config)
    calls = []
    real = models.frac_weights
    for module in (models, estimation):  # both call the weights' one builder
        monkeypatch.setattr(module, "frac_weights", lambda *a: calls.append(a) or real(*a))

    inside = transform_to_unconstrained(ParamVector(1e-6, 0.3, 0.4, d=0.3, nu=8.0), FIGARCH)
    _unconstrained_score(engine, inside, config)
    assert len(calls) == 1
    assert _wall(engine, config, inside) == (inside, None)
    assert len(calls) == 1

    out = transform_to_unconstrained(ParamVector(1e-6, 0.3, 0.9, d=0.2, nu=8.0), FIGARCH)
    q = transform_from_unconstrained(out, FIGARCH, "student")
    with pytest.raises(InfeasibleParamsError, match="negative ARCH"):
        _unconstrained_score(engine, out, config)
    on, _ = _wall(engine, config, out)
    assert calls.count((q.d, config.T, q.alpha, q.beta)) == 1
    built = len(calls)
    _unconstrained_score(engine, on, config)  # the wall built the weights of its end point
    assert len(calls) == built


def test_figarch_fit_stopped_just_inside_a_weight_wall_is_converged():
    # the FIGARCH-t series of cli_pipeline's fit step at run seed 600: the
    # search stops with lambda_5 = +2.4e-11, above models._LAMBDA_TOL, with
    # the gradient pushing into that wall
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=3000, seed=2155371359))
    config = FitConfig(FIGARCH, restarts=0)
    res = fit(series, config)
    lam = _make_engine(series.returns, config).weights(res.params).lam
    assert models._LAMBDA_TOL < lam.min() < estimation._WALL_BAND
    assert res.converged
    assert res.diagnostics["grad_norm"] < 1e-4
    assert res.stderr is not None and all(math.isfinite(v) and v > 0 for v in res.stderr.values())
    assert res.loglik == pytest.approx(12942.375779999227, rel=1e-12, abs=0.0)


def test_figarch_fit_ending_on_the_alpha_face_is_flagged():
    # the same series at d = 0.95: the fit ends at alpha near 1e-7 with the
    # likelihood still rising as alpha falls, converged and with Wald errors
    # as if the optimum were interior; the diagnostic says it is not
    series, _ = simulate_path(SimConfig(FIGARCH, ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0),
                                        n=3000, seed=2155371359))
    fixed = fit(series, FitConfig(FIGARCH, restarts=0, d_fixed=0.95))
    assert fixed.converged and fixed.params.alpha < estimation._FACE
    assert fixed.diagnostics["alpha_boundary_suspect"] is True
    assert "d_boundary_suspect" not in fixed.diagnostics
    free = fit(series, FitConfig(FIGARCH, restarts=0))
    assert free.diagnostics["alpha_boundary_suspect"] is False
    assert free.diagnostics["d_boundary_suspect"] is False
    # GARCH's softmax pair and IGARCH's alpha on (-1, 0) have no such face
    for family in (GARCH, IGARCH):
        res = fit(sim_garch(n=600, seed=8), FitConfig(family, restarts=0))
        assert "alpha_boundary_suspect" not in res.diagnostics


def test_off_face_restarts_a_search_stopped_on_a_face_whose_slope_points_inside():
    config = FitConfig(FIGARCH)
    at = lambda **kw: transform_to_unconstrained(
        ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0).with_(**kw), FIGARCH)
    g = np.zeros(5)
    assert _off_face(at(), g, config) is None  # interior
    u = at(alpha=1e-4)
    slope = estimation._GNORM_CONVERGED * 1e-4  # the bound, as d objective / du
    for g1, expected in ((-1.01 * slope, True), (-0.99 * slope, False), (slope, False)):
        g[1] = g1  # the objective falls as alpha grows only when g[1] < 0
        restart = _off_face(u, g, config)
        assert (restart is not None) is expected
        if expected:
            assert_allclose(restart, np.r_[u[0], math.log(estimation._ALPHA0), u[2:]], rtol=1e-15)

    u, g = at(d=1.0 - 1e-4), np.zeros(5)
    g[3] = 1e-7  # the objective falls as d shrinks; the map's slope is about 1e-4
    restart = _off_face(u, g, config)
    assert_allclose(restart, np.r_[u[:3], 0.0, u[4]], atol=1e-15)  # d = _D0 = 0.5
    assert _off_face(u, -g, config) is None

    u, g = at(), np.zeros(5)
    u[1] = -800.0  # alpha underflowed to 0.0: its map's slope is 0, so it restarts
    assert transform_from_unconstrained(u, FIGARCH, "student").alpha == 0.0
    assert _off_face(u, g, config)[1] == math.log(estimation._ALPHA0)

    igarch = transform_to_unconstrained(ParamVector(2e-6, -1e-5, 0.6, d=1.0, nu=8.0), IGARCH)
    assert _off_face(igarch, -np.ones(4), FitConfig(IGARCH)) is None

    garch = transform_to_unconstrained(ParamVector(1e-6, 1e-5, 0.9, nu=8.0), GARCH)
    assert _off_face(garch, -np.ones(4), FitConfig(GARCH)) is None


def test_fit_at_an_underflowed_optimum_returns_without_standard_errors(monkeypatch):
    # alpha = exp(-800) is 0.0, where the unconstrained transform is undefined
    def optimum_on_the_boundary(fun, x, max_iters, tol, wall=None, start=None):
        x = x.copy()
        x[1] = -800.0
        return x, fun(x)[0], np.zeros(x.size), 7

    monkeypatch.setattr(estimation, "_bfgs", optimum_on_the_boundary)
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=1000, seed=1))
    res = fit(series, FitConfig(FIGARCH, restarts=0))
    assert res.converged and res.params.alpha == 0.0
    assert res.stderr is None and res.pvalues is None and res.cov is None
    assert res.diagnostics["hessian_pd"] is False
    assert math.isfinite(res.loglik)


def test_student_fit_of_gaussian_data_converges_to_the_gaussian_fit():
    # nu climbed to 1.6e15 on the rounding of the Student-t normaliser
    series, _ = simulate_path(SimConfig(GARCH, ParamVector(1e-5, 0.08, 0.9), n=1500, seed=633))
    res = fit(series, FitConfig(GARCH))
    assert res.converged and res.diagnostics["near_gaussian"]
    gaussian = fit(series, FitConfig(GARCH, innovation="gaussian"))
    assert res.loglik == pytest.approx(gaussian.loglik, abs=1e-3)


def test_fit_recovers_garch_roughly_at_small_n():
    series = sim_garch(n=5000, seed=2)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=1, seed=0))
    assert res.converged
    assert res.n_obs == 5000
    assert res.params.alpha == pytest.approx(0.08, abs=0.05)
    assert res.params.beta == pytest.approx(0.91, abs=0.08)
    validate_params(GARCH, res.params)  # reparameterization invariance


def test_fit_loglik_equals_reevaluation():
    series = sim_garch(n=1200, seed=4)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=0))
    direct = log_likelihood(GARCH, res.params, series.returns)
    assert res.loglik == pytest.approx(direct, abs=1e-8)


def test_converged_fit_has_small_gradient():
    series = sim_garch(n=1500, seed=5)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=0))
    assert res.converged
    assert res.diagnostics["grad_norm"] < 1e-3


def test_fit_beats_three_point_grid_search():
    series = sim_garch(n=200, seed=6)
    var = float(series.returns.var())
    grid = [(0.05, 0.9), (0.1, 0.7), (0.2, 0.5)]
    best_grid = max(
        log_likelihood(GARCH, ParamVector(var * (1 - a - b), a, b), series.returns)
        for a, b in grid
    )
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=1, seed=1))
    assert res.loglik >= best_grid - 1e-9


def test_multistart_keeps_running_best():
    series = sim_garch(n=800, seed=7)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=3, seed=3))
    logliks = [s["loglik"] for s in res.diagnostics["starts"] if s["loglik"] is not None]
    running = np.maximum.accumulate(logliks)
    assert np.all(np.diff(running) >= 0)
    assert res.loglik == pytest.approx(max(logliks), abs=1e-6)


def test_fit_is_deterministic_given_seed():
    series = sim_garch(n=600, seed=8)
    cfg = FitConfig(GARCH, innovation="gaussian", restarts=2, seed=11)
    a, b = fit(series, cfg), fit(series, cfg)
    assert a.params == b.params
    assert a.loglik == b.loglik


def test_fit_with_tiny_budget_reports_nonconvergence():
    series = sim_garch(n=400, seed=9)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=0, max_iters=3))
    assert not res.converged
    assert res.stderr is None


def test_fit_figarch_with_pinned_d():
    cfg = SimConfig(FIGARCH, ParamVector(1e-6, 0.2, 0.4, d=0.6), n=4000, seed=10)
    series, _ = simulate_path(cfg)
    res = fit(series, FitConfig(FIGARCH, innovation="gaussian", restarts=0,
                                d_fixed=0.6, seed=0))
    assert res.params.d == 0.6
    assert "d" not in res.names
    assert res.converged


@pytest.mark.parametrize("d_fixed", [0.3, 0.62, 0.7, 0.95, 0.99])
def test_unjittered_figarch_start_at_a_fixed_d_has_nonnegative_weights(d_fixed):
    # the warm start (alpha, beta) = (0.05, 0.9) has a negative weight at
    # every fixed d above about 0.615; the start halves both until it has none
    config = FitConfig(FIGARCH, d_fixed=d_fixed)
    returns = np.random.default_rng(0).standard_normal(100)
    p = _initial_params(returns, config, np.random.default_rng(0), jitter=False)
    validate_params(FIGARCH, p, config.T)
    halvings = round(math.log2(0.05 / p.alpha))
    assert (p.alpha, p.beta) == (0.05 / 2 ** halvings, 0.9 / 2 ** halvings)
    assert (halvings == 0) == (d_fixed < 0.615)


@pytest.mark.parametrize("d_fixed", [0.62, 0.95, 0.99])
def test_figarch_fit_at_a_high_fixed_d_starts_feasible_and_converges(d_fixed):
    res = fit(sim_garch(n=2000, seed=1, nu=8.0), FitConfig(FIGARCH, restarts=0, d_fixed=d_fixed))
    assert res.diagnostics["starts"][0]["feasible"]
    assert res.converged and res.params.d == d_fixed


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_fit_igarch_recovers_igarch_1_1(seed):
    # IGARCH(1,1) with beta = 0.9 is the d = 1 point alpha = -beta: sigma2 =
    # omega/(1-beta) + (1-beta) sum beta^(j-1) e^2_{t-j}; 5000 Student-t(8)
    # returns give |beta-hat - 0.9| <= 0.019 and |alpha-hat + beta-hat| <= 0.030
    true = ParamVector(1e-6, -0.9, 0.9, d=1.0, nu=8.0)
    series, _ = simulate_path(SimConfig(IGARCH, true, n=5000, seed=seed))
    res = fit(series, FitConfig(IGARCH, restarts=1))
    assert res.converged and res.stderr is not None
    assert -1.0 < res.params.alpha < 0.0
    assert res.params.beta == pytest.approx(0.9, abs=0.03)
    assert res.params.alpha == pytest.approx(-res.params.beta, abs=0.05)


def test_fit_igarch_runs_on_persistent_data():
    series = sim_garch(n=3000, seed=12, alpha=0.1, beta=0.88)
    res = fit(series, FitConfig(IGARCH, innovation="gaussian", restarts=0, seed=2))
    assert res.params.d == 1.0
    assert res.params.omega > 0
    assert math.isfinite(res.loglik)


# ----------------------------------------------------------------- uncertainty

def test_standard_errors_cover_truth_in_most_replications():
    # Monte-Carlo coverage of +/-3 stderr around alpha-hat, 50 seeded fits
    hits = trials = 0
    for seed in range(50):
        series = sim_garch(n=50_000, seed=seed)
        res = fit(series, FitConfig(GARCH, innovation="gaussian",
                                    restarts=0, seed=seed))
        if res.stderr is None:
            continue
        trials += 1
        hits += abs(res.params.alpha - 0.08) <= 3.0 * res.stderr["alpha"]
    assert trials >= 45
    assert hits / trials >= 0.80


@pytest.mark.parametrize("n", [3000, 10_000])
def test_memoised_figarch_score_equals_a_fresh_engine(n, monkeypatch):
    # the keys a fit's last steps ask for: a score, the Hessian and a wall
    # check, all at the same (alpha, beta, d)
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=n, seed=1))
    config = FitConfig(FIGARCH)
    ll, grad = _make_engine(series.returns, config).score(true)
    _, _, H = _make_engine(series.returns, config).hessian(true)

    calls = []
    real = models.frac_weights
    monkeypatch.setattr(models, "frac_weights", lambda *a: calls.append(a) or real(*a))
    engine = _make_engine(series.returns, config)
    got_ll, got = engine.score(true)
    assert np.isfinite(got).all()
    assert got_ll == ll
    assert np.array_equal(got, grad)
    got_ll, got, got_H = engine.hessian(true)
    assert got_ll == ll
    assert np.array_equal(got, grad) and np.array_equal(got_H, H)
    u = transform_to_unconstrained(true, FIGARCH)
    moved, normal = _wall(engine, config, u)
    assert np.array_equal(moved, u) and normal is None
    assert len(calls) == 1


@pytest.mark.parametrize("family,true", [
    (GARCH, ParamVector(1e-6, 0.08, 0.91, nu=8.0)),
    (FIGARCH, ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)),
])
def test_score_hessian_agrees_with_the_loglik_stencil(family, true):
    series, _ = simulate_path(SimConfig(family, true, n=10_000, seed=1))
    config = FitConfig(family)
    engine = _make_engine(series.returns, config)
    at = lambda u: transform_from_unconstrained(u, family, "student")
    u0 = transform_to_unconstrained(true, family)
    H = _unconstrained_hessian(engine, at(u0), config)
    reference = _fd_hessian(lambda u: engine.loglik(at(u)), u0)
    assert np.abs(H - reference).max() <= 1e-3 * np.abs(reference).max()


@pytest.fixture(scope="module")
def hessian_series():
    """n = 2000 series: GARCH-t for GARCH and IGARCH fits, FIGARCH-t for FIGARCH."""
    garch = sim_garch(n=2000, seed=5, nu=8.0, beta=0.9)
    figarch, _ = simulate_path(SimConfig(FIGARCH, ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0),
                                         n=2000, seed=5))
    return {GARCH: garch, IGARCH: garch, FIGARCH: figarch}


@pytest.mark.parametrize("at_optimum", [True, False])
@pytest.mark.parametrize("innovation", ["student", "gaussian"])
@pytest.mark.parametrize("family,d_fixed", [(GARCH, None), (IGARCH, None),
                                            (FIGARCH, None), (FIGARCH, 0.6)])
def test_analytic_hessian_matches_central_differences_of_the_score(
        hessian_series, family, d_fixed, innovation, at_optimum):
    # fourth-order central differences of the exact score in u, steps
    # 1e-3 * max(1, |u_i|), within 1e-6 of the largest entry (2e-9 seen)
    series = hessian_series[family]
    config = FitConfig(family, innovation=innovation, restarts=0, d_fixed=d_fixed)
    params = fit(series, config).params
    if not at_optimum:
        params = params.with_(omega=1.2 * params.omega, alpha=0.9 * params.alpha,
                              beta=0.95 * params.beta,
                              d=0.55 if family is FIGARCH and d_fixed is None else params.d)
    if not at_optimum and params.nu is not None:
        params = params.with_(nu=1.1 * params.nu)
    engine = _make_engine(series.returns, config)
    H = _unconstrained_hessian(engine, params, config)
    u0 = transform_to_unconstrained(params, family, d_fixed)
    reference = np.empty_like(H)
    for i in range(u0.size):
        h = 1e-3 * max(1.0, abs(u0[i]))

        def at(k):
            u = u0.copy()
            u[i] += k * h
            return _unconstrained_score(engine, u, config)[1]

        reference[:, i] = (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)
    assert np.abs(H - reference).max() <= 1e-6 * np.abs(reference).max()


def test_figarch_t_standard_errors_take_one_weight_build_and_eleven_transforms(monkeypatch):
    # the analytic Hessian needs the weights of one (alpha, beta, d) and 11
    # one-dimensional transforms: the e^2 transform, the sigma2 convolution
    # (2), the score's correlation (2) and d sigma2 / d (alpha, beta, d) (6);
    # forward score differences needed 4 weight builds and 21 transforms
    import scipy.fft

    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=3000, seed=1))
    weights, transforms = [], []
    real_weights = models.frac_weights
    monkeypatch.setattr(models, "frac_weights", lambda *a: weights.append(a) or real_weights(*a))
    for name in ("rfft", "irfft"):
        def counting(x, *args, _real=getattr(scipy.fft, name), **kwargs):
            x = np.asarray(x)
            transforms.append(x.size // x.shape[-1])  # one transform per row
            return _real(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, name, counting)
    standard_errors(true, series, FitConfig(FIGARCH))
    assert len(weights) == 1
    assert sum(transforms) <= 11


def test_fit_passes_its_engine_to_the_standard_errors(monkeypatch):
    engines = []

    class Recording(models._Likelihood):
        def __init__(self, *args, **kwargs):
            engines.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(estimation, "_Likelihood", Recording)
    res = fit(sim_garch(n=1000, seed=2), FitConfig(GARCH, restarts=0))
    assert res.stderr is not None and len(engines) == 1


@pytest.mark.parametrize("family", [GARCH, FIGARCH])
def test_returns_whose_squares_overflow_raise_domain_error(family):
    r = sim_garch(n=200, seed=1).returns.copy()
    r[17] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="squares overflow"):
            fit(r, FitConfig(family, innovation="gaussian"))
        with pytest.raises(DomainError, match="squares overflow"):
            standard_errors(ParamVector(1e-5, 0.1, 0.5, d=0.4), r,
                            FitConfig(family, innovation="gaussian"))


@pytest.mark.parametrize("family, big", [(FIGARCH, 1e100), (GARCH, 1e150)])
def test_extreme_return_whose_covariance_overflows_gives_no_stderr(family, big):
    # squares finite, so the fit runs, to omega near 1e200, where the
    # delta-method product (FIGARCH) or the Hessian pass (GARCH) overflows;
    # a numpy warning there would fail under the RuntimeWarning filter
    r = 0.01 * np.random.default_rng(0).standard_normal(200)
    r[50] = big
    config = FitConfig(family, innovation="gaussian")
    res = fit(r, config)
    assert res.converged and res.params.omega > 1e150
    assert res.stderr is None and res.pvalues is None and res.cov is None
    assert res.diagnostics["hessian_pd"] is False
    se = standard_errors(res.params, r, config)
    assert se.stderr is None and se.cov is None and se.hessian_pd is False


@pytest.mark.parametrize("big", [1e151, 1e152, 1e153, 5e153, 1e154])
@pytest.mark.parametrize("family", [GARCH, IGARCH, FIGARCH])
def test_fit_at_an_extreme_return_ends_in_a_result_or_a_documented_error(family, big):
    # squares finite, but trial points overflow the transform product
    # (IGARCH, FIGARCH) or the score: they are rejected, not a numpy warning
    r = 0.01 * np.random.default_rng(0).standard_normal(200)
    r[50] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = fit(r, FitConfig(family, innovation="gaussian", restarts=0))
        except VolentropyError:
            return
    assert isinstance(res, FitResult) and math.isfinite(res.loglik)


@pytest.mark.parametrize("family, big, completes", [
    (IGARCH, 1e153, False), (IGARCH, 5e153, False), (IGARCH, 1e154, False),
    (FIGARCH, 1e153, False), (FIGARCH, 5e153, False), (FIGARCH, 1e154, False),
    (FIGARCH, 3e152, True), (GARCH, 1e153, True), (GARCH, 5e153, True),
])
def test_returns_that_overflow_the_transform_at_every_start_name_the_returns(family, big, completes):
    # one return large enough that every start's ARCH(inf) convolution
    # overflows: the error names the returns, not an infeasible start; a
    # fit that some start survives (FIGARCH at 3e152, GARCH) still returns
    r = 0.01 * np.random.default_rng(0).standard_normal(200)
    r[50] = big
    config = FitConfig(family, innovation="gaussian", restarts=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if completes:
            assert math.isfinite(fit(r, config).loglik)
        else:
            with pytest.raises(DomainError, match="returns too large: the ARCH"):
                fit(r, config)


_Z = np.random.default_rng(0).standard_normal(300)


@pytest.mark.parametrize("family", [GARCH, IGARCH, FIGARCH])
@pytest.mark.parametrize("r", [np.full(100, 0.5), np.zeros(100), 1e-154 * _Z, 1e-156 * _Z,
                               1e-170 * _Z],
                         ids=["constant", "zeros", "1e-154", "1e-156", "1e-170"])
def test_constant_or_tiny_returns_name_the_returns(family, r):
    # their mean squared deviation is 0 or subnormal, and the warm start
    # scales omega to it: the error names the returns before any start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="returns constant or too small"):
            fit(r, FitConfig(family, restarts=0))


@pytest.mark.parametrize("config", [
    FitConfig(FIGARCH, restarts=1, seed=3),
    FitConfig(FIGARCH, innovation="gaussian", restarts=1, seed=3),
    FitConfig(FIGARCH, restarts=1, seed=3, d_fixed=0.6),
])
def test_standard_errors_at_a_boundary_optimum_are_finite_or_flagged(config):
    # on this series the free-d fits stop on the lambda >= 0 wall
    true = ParamVector(1e-6, 0.2, 0.5, d=0.6, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=3000, seed=3))
    res = fit(series, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = standard_errors(res.params, series, config)
    if rep.hessian_pd:
        assert all(math.isfinite(v) and v > 0 for v in rep.stderr.values())
    else:
        assert rep.stderr is None and rep.cov is None


@pytest.mark.parametrize("nu", [1e155, 1e300])
def test_standard_errors_at_huge_nu_end_in_a_report(nu):
    # the Hessian's nu-nu entry squares nu - 2, and a float ** raises
    # OverflowError above nu ~ 1.3e154; each 1/(nu - 2)^2 term is 0 there
    r = 0.01 * np.random.default_rng(0).standard_normal(500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = standard_errors(ParamVector(1e-5, 0.1, 0.7, nu=nu), r,
                              FitConfig(GARCH, innovation="student"))
    assert isinstance(rep, StdErrReport)
    if rep.hessian_pd:
        assert all(math.isfinite(v) for v in rep.stderr.values())
    else:
        assert rep.stderr is None and rep.cov is None


def test_stderr_absent_when_hessian_not_pd():
    series = sim_garch(n=800, seed=3)
    var = float(series.returns.var())
    off_optimum = ParamVector(var * (1 - 0.3 - 0.1), 0.3, 0.1)
    rep = standard_errors(off_optimum, series, FitConfig(GARCH, innovation="gaussian"))
    assert not rep.hessian_pd
    assert rep.stderr is None and rep.pvalues is None and rep.cov is None


def test_stderr_present_and_positive_at_optimum():
    series = sim_garch(n=5000, seed=14)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=0))
    assert res.stderr is not None
    assert all(v >= 0 for v in res.stderr.values())
    assert all(0 <= p <= 1 for p in res.pvalues.values())
    assert set(res.significance.values()) <= {"1%", "5%", "none"}


def test_pvalues_are_two_sided_normal_tail_probabilities():
    series = sim_garch(n=5000, seed=14)
    res = fit(series, FitConfig(GARCH, innovation="gaussian", restarts=0))
    assert res.pvalues is not None
    for name in res.names:
        z = getattr(res.params, name) / res.stderr[name]
        assert res.pvalues[name] == pytest.approx(2.0 * scipy.stats.norm.sf(abs(z)),
                                                  rel=1e-14, abs=0)


# ------------------------------------------------------------------ concavity

def test_loglik_peaks_at_true_params_garch():
    true = ParamVector(1e-5, 0.1, 0.7, nu=8.0)
    series, _ = simulate_path(SimConfig(GARCH, true, n=10_000, seed=21))
    base = log_likelihood(GARCH, true, series.returns)
    for name in ("omega", "alpha", "beta", "nu"):
        for mult in (0.8, 1.2):
            perturbed = true.with_(**{name: getattr(true, name) * mult})
            assert log_likelihood(GARCH, perturbed, series.returns) < base, (name, mult)


def test_loglik_peaks_at_true_params_figarch():
    # Truth chosen so the whole +-20% box keeps every ARCH(inf) weight
    # nonnegative (larger d would push lambda_3 < 0 when d is scaled up).
    true = ParamVector(1e-6, 0.15, 0.3, d=0.4, nu=8.0)
    series, _ = simulate_path(SimConfig(FIGARCH, true, n=20_000, seed=2))
    base = log_likelihood(FIGARCH, true, series.returns)
    for name in ("omega", "alpha", "beta", "d", "nu"):
        for mult in (0.8, 1.2):
            perturbed = true.with_(**{name: getattr(true, name) * mult})
            assert log_likelihood(FIGARCH, perturbed, series.returns) < base, (name, mult)


# ---------------------------------------------------------- persistence check

def synthetic_garch_result(alpha, beta, cov=None, names=("omega", "alpha", "beta")):
    return FitResult(
        params=ParamVector(1e-6, alpha, beta), stderr=None, pvalues=None,
        significance=None, loglik=0.0, converged=True, iterations=10,
        n_obs=1000, family=GARCH, innovation="gaussian", mean=0.0,
        names=tuple(names), cov=cov,
    )


def test_persistence_flag_near_unit_root():
    chk = persistence_check(synthetic_garch_result(0.076581, 0.913627))
    assert chk.total == pytest.approx(0.990208, abs=1e-9)
    assert chk.flag
    assert "igarch" in chk.recommendation


def test_persistence_no_flag_far_from_unit_root():
    chk = persistence_check(synthetic_garch_result(0.1, 0.5))
    assert chk.total == pytest.approx(0.6)
    assert not chk.flag
    assert chk.recommendation is None


def test_persistence_boundary_is_strict():
    chk = persistence_check(synthetic_garch_result(0.05, 0.93))
    assert chk.total == pytest.approx(0.98)
    assert not chk.flag


def test_persistence_stderr_from_delta_method():
    cov = np.array([[1e-8, 0, 0], [0, 4e-4, 1e-4], [0, 1e-4, 9e-4]])
    chk = persistence_check(synthetic_garch_result(0.05, 0.90, cov=cov))
    assert chk.stderr == pytest.approx(math.sqrt(4e-4 + 9e-4 + 2e-4))


def test_persistence_rejects_non_garch():
    res = synthetic_garch_result(0.1, 0.5)
    object.__setattr__(res, "family", IGARCH)
    with pytest.raises(DomainError):
        persistence_check(res)
