"""Mean-variance QP, risk aversion, Sharpe, and the rolling backtest."""

import dataclasses
import datetime as dt
import math

import numpy as np
import pytest

from liqcov import portfolio
from liqcov.portfolio import (
    MvProblem,
    VARIANTS,
    risk_aversion,
    run_backtest,
    sharpe_annualized,
    solve_mv,
)


def objective(mu, sigma, lam, w):
    return float(mu @ w - 0.5 * lam * w @ sigma @ w)


def grid_best(mu, sigma, lam, cap, step=0.001):
    """Dense grid search over the 2-asset feasible region."""
    hi = min(cap, 1.0)
    pts = np.arange(0.0, hi + step / 2, step)
    w1, w2 = np.meshgrid(pts, pts, indexing="ij")
    mask = (w1 + w2 <= 1.0 + 1e-12) & (w2 <= cap + 1e-12)
    obj = (
        mu[0] * w1 + mu[1] * w2
        - 0.5 * lam * (sigma[0, 0] * w1**2 + 2 * sigma[0, 1] * w1 * w2 + sigma[1, 1] * w2**2)
    )
    return float(np.max(np.where(mask, obj, -np.inf)))


def check_constraints(weights, cap):
    n = weights.shape[0] - 1
    assert abs(weights.sum() - 1.0) < 1e-10
    assert np.all(weights[:n] >= -1e-12)
    assert np.all(weights[:n] <= cap + 1e-12)
    assert -1e-12 <= weights[n] <= 1.0 + 1e-12


class TestSolveMv:
    def test_interior_optimum(self):
        w = solve_mv(MvProblem(np.array([0.01, 0.01]), 0.01 * np.eye(2), 2.0))
        np.testing.assert_allclose(w, [0.5, 0.5, 0.0], atol=1e-12)

    def test_nonpositive_drift_all_cash(self):
        w = solve_mv(MvProblem(np.array([-0.01, 0.0]), 0.01 * np.eye(2), 2.0))
        np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-14)

    def test_dominant_asset_capped(self):
        mu = np.array([0.05, 0.001])
        sigma = np.diag([1e-4, 1e-4])
        # unconstrained optimum far above the cap: budget and cap bind
        w = solve_mv(MvProblem(mu, sigma, 1.0))
        check_constraints(w, 1.5)
        got = objective(mu, sigma, 1.0, w[:2])
        best = grid_best(mu, sigma, 1.0, 1.5)
        assert got >= best - 1e-12
        assert got - best <= 1e-6

    def test_matches_grid_oracle_randomized(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            mu = rng.normal(0.0, 0.02, 2)
            a = rng.normal(size=(2, 2))
            sigma = a @ a.T * 1e-3 + 1e-6 * np.eye(2)
            lam = float(rng.uniform(0.1, 10.0))
            w = solve_mv(MvProblem(mu, sigma, lam))
            check_constraints(w, 1.5)
            got = objective(mu, sigma, lam, w[:2])
            best = grid_best(mu, sigma, lam, 1.5)
            assert got >= best - 1e-12
            assert got - best <= 1e-6

    def test_beats_reference_candidates(self):
        rng = np.random.default_rng(34)
        for n in (3, 8):
            mu = rng.normal(0.0005, 0.01, n)
            a = rng.normal(size=(n, n))
            sigma = a @ a.T * 1e-4 + 1e-8 * np.eye(n)
            lam = 2.0
            w = solve_mv(MvProblem(mu, sigma, lam))
            cap = 3.0 / n
            check_constraints(w, cap)
            equal_capped = np.full(n, min(cap, 1.0 / n))
            for cand in (np.zeros(n), equal_capped):
                assert objective(mu, sigma, lam, w[:n]) >= objective(mu, sigma, lam, cand) - 1e-10

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError, match="PSD"):
            solve_mv(MvProblem(np.array([0.01, 0.01]), np.diag([1.0, -1.0]), 1.0))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            solve_mv(MvProblem(np.array([0.01]), np.eye(1), 0.0))

    @pytest.mark.parametrize("mu, lam, message", [
        ([0.01, np.nan], 1.0, "mu has non-finite entries"),
        ([0.01, np.inf], 1.0, "mu has non-finite entries"),
        ([0.01, 0.02], np.nan, "lambda must be positive and finite"),
        ([0.01, 0.02], np.inf, "lambda must be positive and finite"),
    ])
    def test_rejects_non_finite_inputs(self, mu, lam, message):
        with pytest.raises(ValueError, match=message):
            solve_mv(MvProblem(np.array(mu), np.eye(2), lam))


class TestRiskAversion:
    def test_analytic(self):
        window = np.array([0.02, -0.02, 0.02, -0.02, 0.001])
        var = float(np.var(window, ddof=1))
        assert risk_aversion(window) == pytest.approx(0.001 / var)

    def test_floor_on_nonpositive(self):
        window = np.array([0.02, -0.02, 0.02, -0.03])
        assert risk_aversion(window) == 0.1

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(35)
        window = rng.normal(0.001, 0.01, 120)
        expected = window[-1] / np.var(window, ddof=1)
        expected = expected if expected > 0 else 0.1
        assert risk_aversion(window) == pytest.approx(float(expected), rel=1e-12)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="variance"):
            risk_aversion(np.full(10, 0.001))


class TestSharpe:
    def test_analytic(self):
        r = np.array([0.001 + 0.02, 0.001 - 0.02])
        # mean 0.001, std = 0.02 * sqrt(2) with ddof=1 ... use direct formula
        mean, std = r.mean(), r.std(ddof=1)
        expected = mean * 252 / (std * math.sqrt(252))
        assert sharpe_annualized(r, 252) == pytest.approx(expected)

    def test_reference_magnitude(self):
        # mean 0.001, std 0.02, 252 periods -> about 0.794
        rng = np.random.default_rng(36)
        r = rng.normal(0.001, 0.02, 200_000)
        assert sharpe_annualized(r, 252) == pytest.approx(0.252 / 0.3175, abs=0.03)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(37)
        r = rng.normal(0.0005, 0.01, 500)
        expected = r.mean() * 365 / (r.std(ddof=1) * math.sqrt(365))
        assert sharpe_annualized(r, 365) == pytest.approx(float(expected), rel=1e-12)

    def test_degenerate_constant_series(self):
        assert math.isinf(sharpe_annualized(np.full(10, 0.002), 252))
        assert math.isnan(sharpe_annualized(np.zeros(10), 252))


def make_dates(n):
    return [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(n)]


class TestBacktest:
    def test_equal_cov_sources_give_identical_paths(self):
        rng = np.random.default_rng(38)
        n, dim, window = 60, 3, 20
        q = rng.normal(0.0005, 0.01, (n, dim))
        # intraday covariance constructed to equal the rolling-window one
        sigma_tt = np.zeros((n, dim, dim))
        for t in range(window - 1, n):
            sigma_tt[t] = np.cov(q[t - window + 1:t + 1].T, ddof=1)
        results = run_backtest(
            make_dates(n), q, q, sigma_tt, sigma_tt, [1, 3], window, 365
        )
        by_id = {r.variant.id: r for r in results}
        np.testing.assert_array_equal(by_id[1].weights, by_id[3].weights)
        np.testing.assert_array_equal(by_id[1].realized, by_id[3].realized)

    def test_single_asset_constant_return_degenerate_flag(self):
        n, window = 40, 10
        q = np.full((n, 1), 0.001)
        q[0, 0] = 0.0011      # one early perturbation keeps lambda defined
        sigma_tt = np.full((n, 1, 1), 1e-10)
        results = run_backtest(make_dates(n), q, q, sigma_tt, sigma_tt, [3], window, 365)
        res = results[0]
        assert res.degenerate
        assert math.isinf(res.sharpe) and res.sharpe > 0
        # fully invested once the optimizer sees the positive drift
        assert res.weights[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_posterior_variants_use_supplied_forecasts(self):
        rng = np.random.default_rng(39)
        n, dim, window = 50, 2, 20
        q = rng.normal(0.0005, 0.01, (n, dim))
        sigma_tt = np.tile(np.eye(dim) * 1e-4, (n, 1, 1))
        dates = make_dates(n)
        posterior = {dates[t]: np.eye(dim) * 2e-4 for t in range(window, n)}
        results = run_backtest(
            dates, q, q, sigma_tt, sigma_tt, [5, 6], window, 365,
            posterior_regular=posterior, posterior_adjusted=posterior,
        )
        for res in results:
            assert not res.failures
            assert len(res.dates) == n - window

    def test_missing_posterior_inherits_weights(self):
        rng = np.random.default_rng(40)
        n, dim, window = 30, 2, 10
        q = rng.normal(0.0005, 0.01, (n, dim))
        sigma_tt = np.tile(np.eye(dim) * 1e-4, (n, 1, 1))
        results = run_backtest(
            make_dates(n), q, q, sigma_tt, sigma_tt, [5], window, 365,
            posterior_regular={}, posterior_adjusted={},
        )
        res = results[0]
        assert len(res.failures) == len(res.dates)
        assert all(msg.startswith("no posterior forecast") for _, msg in res.failures)
        np.testing.assert_array_equal(res.weights[:, :dim], 0.0)
        np.testing.assert_array_equal(res.weights[:, dim], 1.0)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(problem):
            raise TypeError("refactor bug")

        monkeypatch.setattr(portfolio, "solve_mv", broken)
        rng = np.random.default_rng(43)
        n, dim, window = 30, 2, 10
        q = rng.normal(0.0005, 0.01, (n, dim))
        sigma_tt = np.tile(np.eye(dim) * 1e-4, (n, 1, 1))
        with pytest.raises(TypeError, match="refactor bug"):
            run_backtest(make_dates(n), q, q, sigma_tt, sigma_tt, [1], window, 365)

    def test_constraints_hold_every_day(self):
        rng = np.random.default_rng(41)
        n, dim, window = 80, 4, 30
        q = rng.normal(0.0005, 0.01, (n, dim))
        q_adj = q * rng.uniform(0.5, 2.0, (n, dim))
        sigma_tt = np.zeros((n, dim, dim))
        for t in range(n):
            x = rng.normal(size=(dim + 4, dim)) * 0.01
            sigma_tt[t] = x.T @ x
        results = run_backtest(
            make_dates(n), q, q_adj, sigma_tt, sigma_tt, [1, 2, 3, 4], window, 365
        )
        cap = 3.0 / dim
        for res in results:
            assert not res.failures
            for row in res.weights:
                assert abs(row.sum() - 1.0) < 1e-10
                assert np.all(row[:dim] >= -1e-12)
                assert np.all(row[:dim] <= cap + 1e-12)

    def test_realized_pnl_uses_regular_returns(self):
        rng = np.random.default_rng(42)
        n, dim, window = 30, 2, 10
        q = rng.normal(0.001, 0.01, (n, dim))
        q_adj = q * 3.0          # wildly different adjusted series
        sigma_tt = np.tile(np.eye(dim) * 1e-4, (n, 1, 1))
        results = run_backtest(
            make_dates(n), q, q_adj, sigma_tt, sigma_tt, [2], window, 365
        )
        res = results[0]
        for i, date in enumerate(res.dates):
            t = window - 1 + i
            expected = float(res.weights[i, :dim] @ q[t + 1])
            assert res.realized[i] == pytest.approx(expected, rel=1e-12)


def test_variant_table_complete():
    assert set(VARIANTS) == {1, 2, 3, 4, 5, 6}
    for vid, var in VARIANTS.items():
        assert var.is_liquidity_adjusted == (vid % 2 == 0)


def test_failure_messages_survive_csv_quoting(tmp_path):
    rng = np.random.default_rng(44)
    n, dim, window = 40, 3, 15
    q = rng.normal(0.0005, 0.01, (n, dim))
    sigma_tt = np.tile(np.eye(dim) * 1e-4, (n, 1, 1))
    dates = make_dates(n)
    # two forecasts missing: variant 5 carries those days forward
    posterior = {d: np.eye(dim) * 2e-4 for d in dates[window + 2:]}
    res = run_backtest(dates, q, q, sigma_tt, sigma_tt, [5], window, 365,
                       posterior_regular=posterior)[0]
    assert len(res.failures) == 2
    odd = [(date, f'day {k}, "quoted",\nsecond line') for k, (date, _) in enumerate(res.failures)]
    path = tmp_path / "failures.csv"
    portfolio.write_failures_csv(path, [dataclasses.replace(res, failures=odd)])
    assert portfolio.read_failures_csv(path) == {5: odd}
