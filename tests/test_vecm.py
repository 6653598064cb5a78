"""Cointegration testing, lag selection, ECM estimation, forecasting."""

import numpy as np
import pytest

from liqcov.vecm import (
    InsufficientDataError,
    fit_vecm,
    fitted_residual,
    johansen_trace,
    select_lag,
    var_one_step,
)


def random_walks(rng, n, dim, scale=1.0):
    return np.cumsum(rng.normal(0, scale, (n, dim)), axis=0)


def cointegrated_pair(rng, n):
    y1 = np.cumsum(rng.normal(0, 1.0, n))
    y2 = y1 + rng.normal(0, 0.3, n)    # stationary spread
    return np.column_stack([y1, y2])


def simulate_vecm1(rng, n, alpha, beta, noise=0.05):
    """Rank-1 ECM: dy_t = alpha (beta' y_{t-1}) + e_t."""
    dim = alpha.shape[0]
    y = np.zeros((n, dim))
    gamma = np.outer(alpha, beta)
    for t in range(1, n):
        y[t] = y[t - 1] + gamma @ y[t - 1] + rng.normal(0, noise, dim)
    return y, gamma


class TestJohansen:
    def test_independent_random_walks_rank_zero(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            if johansen_trace(random_walks(rng, 300, 2), 1) == 0:
                hits += 1
        assert hits >= 45

    def test_cointegrated_pair_rank_at_least_one(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(2000 + seed)
            if johansen_trace(cointegrated_pair(rng, 300), 1) >= 1:
                hits += 1
        assert hits >= 45

    def test_white_noise_full_rank(self):
        rng = np.random.default_rng(3)
        y = rng.normal(0, 1.0, (400, 3))
        assert johansen_trace(y, 1) == 3

    def test_insufficient_data(self):
        rng = np.random.default_rng(4)
        with pytest.raises(InsufficientDataError):
            johansen_trace(rng.normal(size=(15, 2)), 1)


class TestSelectLag:
    def test_white_noise_picks_one(self):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(3000 + seed)
            if select_lag(rng.normal(0, 1.0, (300, 2))) == 1:
                hits += 1
        assert hits >= 24

    def test_var2_picks_two(self):
        hits = 0
        phi1 = np.array([[0.2, 0.0], [0.0, 0.2]])
        phi2 = np.array([[0.5, 0.1], [0.1, 0.5]])
        for seed in range(30):
            rng = np.random.default_rng(4000 + seed)
            y = np.zeros((400, 2))
            for t in range(2, 400):
                y[t] = phi1 @ y[t - 1] + phi2 @ y[t - 2] + rng.normal(0, 0.1, 2)
            if select_lag(y) == 2:
                hits += 1
        assert hits >= 24

    def test_short_window_errors(self):
        rng = np.random.default_rng(5)
        with pytest.raises(InsufficientDataError):
            select_lag(rng.normal(size=(12, 3)))


class TestFitVecm:
    def test_white_noise_coefficients_near_zero(self):
        # Monte Carlo: each coefficient within 3 standard errors of zero
        # in most runs (full-rank stationary case)
        violations = 0
        for seed in range(20):
            rng = np.random.default_rng(5000 + seed)
            y = rng.normal(0, 0.01, (500, 2))
            fit = fit_vecm(y, p=1, coint_rank=2)
            # y_t = Phi_1 y_{t-1} + e: OLS standard error of each entry
            x = y[:-1]
            sigma_e = fit.residuals.std(ddof=1)
            se = sigma_e / np.sqrt(np.sum(x**2, axis=0)).min()
            if np.any(np.abs(fit.phi[0]) > 3.5 * se):
                violations += 1
        assert violations <= 4

    def test_known_vecm1_recovers_gamma(self):
        rng = np.random.default_rng(6)
        alpha = np.array([-0.2, 0.1])
        beta = np.array([1.0, -1.0])
        y, gamma_true = simulate_vecm1(rng, 2000, alpha, beta)
        fit = fit_vecm(y, p=1, coint_rank=1)
        assert np.max(np.abs(fit.gamma - gamma_true)) < 0.1

    def test_gamma_identity_all_ranks(self):
        rng = np.random.default_rng(7)
        y = np.cumsum(rng.normal(0, 0.5, (300, 3)), axis=0)
        for rank in (0, 1, 2, 3):
            for p in (1, 2, 3):
                fit = fit_vecm(y, p=p, coint_rank=rank)
                identity = -(np.eye(3) - fit.phi.sum(axis=0))
                assert np.max(np.abs(fit.gamma - identity)) < 1e-8

    def test_tested_rank_matches_given_rank(self):
        # the default rank reuses the trace test's eigenvectors
        rng = np.random.default_rng(10)
        windows = [random_walks(rng, 300, 3), rng.normal(size=(300, 3)),
                   np.column_stack([cointegrated_pair(rng, 300), random_walks(rng, 300, 1)])]
        ranks = set()
        for y in windows:
            for p in (1, 2):
                rank = johansen_trace(y, p)
                ranks.add(rank)
                tested, given = fit_vecm(y, p), fit_vecm(y, p, rank)
                assert tested.coint_rank == rank
                for name in ("gamma", "phi_star", "phi", "residuals"):
                    np.testing.assert_array_equal(getattr(tested, name), getattr(given, name))
                assert (tested.aic, tested.loglik) == (given.aic, given.loglik)
        assert ranks == {0, 1, 3}       # none, reduced and full rank

    def test_rank_zero_lag_one_residuals_are_the_differences(self):
        y = random_walks(np.random.default_rng(11), 100, 2)
        fit = fit_vecm(y, p=1, coint_rank=0)
        np.testing.assert_array_equal(fit.residuals, np.diff(y, axis=0))
        assert not fit.gamma.any() and fit.phi_star.shape == (0, 2, 2)

    def test_residual_count(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(200, 2))
        for p in (1, 2, 4):
            fit = fit_vecm(y, p=p, coint_rank=2)
            assert fit.residuals.shape == (200 - p, 2)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        y = np.cumsum(rng.normal(0, 0.3, (400, 2)), axis=0)
        fit = fit_vecm(y, p=2, coint_rank=2)
        dy = np.diff(y, axis=0)
        rows = np.arange(2, 400)
        regressors = np.hstack([y[rows - 1], dy[rows - 2]])
        cross = regressors.T @ fit.residuals
        scale = np.linalg.norm(regressors) * max(np.linalg.norm(fit.residuals), 1e-30)
        assert np.max(np.abs(cross)) < 1e-8 * scale


class TestForecast:
    def test_zero_coefficients_forecast_zero(self):
        rng = np.random.default_rng(10)
        y = rng.normal(size=(100, 2))
        fit = fit_vecm(y, p=1, coint_rank=2)
        zeroed = fit.phi * 0.0
        assert np.array_equal(var_one_step(zeroed, y[-1:]), np.zeros(2))

    def test_var1_analytic(self):
        phi = 0.5 * np.eye(2)
        out = var_one_step(phi[None, :, :], np.array([[0.02, -0.01]]))
        np.testing.assert_allclose(out, [0.01, -0.005], atol=1e-15)

    def test_matches_recursion_oracle(self):
        rng = np.random.default_rng(11)
        y = np.cumsum(rng.normal(0, 0.2, (300, 3)), axis=0)
        fit = fit_vecm(y, p=3, coint_rank=1)
        forecast = var_one_step(fit.phi, y[-3:])
        oracle = np.zeros(3)
        for i in range(3):
            oracle += fit.phi[i] @ y[-1 - i]
        np.testing.assert_allclose(forecast, oracle, atol=1e-12)

    def test_residual_fills_with_observed(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=(100, 2))
        fit = fit_vecm(y, p=1, coint_rank=2)
        q_hat = var_one_step(fit.phi, y[-1:])
        observed = np.array([0.01, 0.02])
        np.testing.assert_allclose(
            fitted_residual(fit, y[-1:], observed), observed - q_hat
        )


def test_level_and_ecm_paths_coincide():
    rng = np.random.default_rng(13)
    y = np.cumsum(rng.normal(0, 0.3, (400, 2)), axis=0)
    fit = fit_vecm(y, p=3, coint_rank=1)
    shocks = rng.normal(0, 0.01, (50, 2))
    initial = y[-3:]

    # level recursion
    level = list(initial)
    for shock in shocks:
        nxt = sum(fit.phi[i] @ level[-1 - i] for i in range(3)) + shock
        level.append(nxt)

    # error-correction recursion on the same shocks
    ecm = list(initial)
    for shock in shocks:
        dy = fit.gamma @ ecm[-1]
        for i in range(1, 3):
            dy += fit.phi_star[i - 1] @ (ecm[-i] - ecm[-i - 1])
        ecm.append(ecm[-1] + dy + shock)

    level = np.array(level)
    ecm = np.array(ecm)
    assert np.max(np.abs(level - ecm)) < 1e-10
