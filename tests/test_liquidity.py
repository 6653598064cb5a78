"""Liquidity adjustment, betas, and the portfolio liquidity matrices."""

import datetime as dt

import numpy as np
import pytest

from liqcov import liquidity
from liqcov.linalg import SingularMatrixError
from liqcov.liquidity import (
    DegenerateDayError,
    LiquidityBetas,
    build_snapshot,
    capped_determinant_value,
    composite_matrix,
    diffusion_matrix,
    intraday_covariance,
    jump_matrix,
    liquidity_adjusted_minutes,
    liquidity_betas,
    normalization_factor,
)
from liqcov.marketdata import AssetDay, MinuteGrid


def asset_day_of(grid):
    """The AssetDay that build_snapshot makes of grid."""
    return liquidity._asset_day(grid, liquidity._adjusted(grid))


def make_grid(rng, symbol="AAA", t=48, vol_sigma=1.0):
    return MinuteGrid(
        symbol, dt.date(2021, 5, 3),
        rng.normal(0.0, 1e-3, t), rng.lognormal(8.0, vol_sigma, t),
    )


class TestNormalizationFactor:
    def test_balanced_day_gives_one(self):
        # |r| share equals volume share for every minute
        r = np.array([0.001, -0.002, 0.003, -0.002])
        vol = np.abs(r) * 1e7
        assert normalization_factor(r, vol) == pytest.approx(1.0, abs=1e-14)

    def test_two_term_analytic(self):
        # ratio terms {2, 0.5}: eta = 2 / 2.5 = 0.8
        r = np.array([0.002, 0.001])      # |r|/mean = {4/3, 2/3}
        vol = np.array([1.0, 2.0])        # A/mean  = {2/3, 4/3}
        assert normalization_factor(r, vol) == pytest.approx(0.8, abs=1e-15)

    def test_constraint_sums_to_active_count(self):
        rng = np.random.default_rng(31)
        r = rng.normal(0, 1e-3, 390)
        vol = rng.lognormal(9, 1, 390)
        eta = normalization_factor(r, vol)
        ratio = (np.abs(r) / np.abs(r).mean()) / (vol / vol.mean())
        assert abs(eta * ratio.sum() - 390.0) < 1e-10

    def test_zero_volume_minutes_excluded(self):
        r = np.array([0.001, 0.002, -0.001, 0.003])
        vol = np.array([5.0, 0.0, 4.0, 6.0])
        eta = normalization_factor(r, vol)
        active = vol > 0
        ratio = (np.abs(r[active]) / np.abs(r).mean()) / (vol[active] / vol.mean())
        assert abs(eta * ratio.sum() - active.sum()) < 1e-12

    def test_degenerate_days(self):
        with pytest.raises(DegenerateDayError):
            normalization_factor(np.zeros(5), np.ones(5))
        with pytest.raises(DegenerateDayError):
            normalization_factor(np.full(5, 1e-3), np.zeros(5))


class TestAdjustedMinutes:
    def test_balanced_day_identity(self):
        r = np.array([0.001, -0.002, 0.003, -0.002])
        vol = np.abs(r) * 1e7
        r_adj, var_adj = liquidity_adjusted_minutes(r, vol)
        np.testing.assert_allclose(r_adj, r, atol=1e-18)
        assert var_adj == pytest.approx(float(np.mean((r - r.mean()) ** 2)))

    def test_uniform_volume_scaling_invariance(self):
        rng = np.random.default_rng(4)
        r = rng.normal(0, 1e-3, 60)
        vol = rng.lognormal(8, 1, 60)
        r1, v1 = liquidity_adjusted_minutes(r, vol)
        r2, v2 = liquidity_adjusted_minutes(r, vol * 37.5)
        np.testing.assert_allclose(r1, r2, rtol=1e-12)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_variance_matches_defining_sum(self):
        rng = np.random.default_rng(8)
        r = rng.normal(0, 1e-3, 120)
        vol = rng.lognormal(8, 1.2, 120)
        r_adj, var_adj = liquidity_adjusted_minutes(r, vol)
        # brute-force recomputation from the definition
        eta = normalization_factor(r, vol)
        factor = eta * (np.abs(r) / np.abs(r).mean()) / (vol / vol.mean())
        direct = np.sqrt(factor) * r
        brute = np.mean((direct - direct.mean()) ** 2)
        np.testing.assert_allclose(r_adj, direct, atol=1e-18)
        assert var_adj == pytest.approx(brute, rel=1e-14)

    def test_minute_signs_preserved(self):
        rng = np.random.default_rng(12)
        r = rng.normal(0, 1e-3, 50)
        vol = rng.lognormal(8, 1, 50)
        r_adj, _ = liquidity_adjusted_minutes(r, vol)
        assert np.all(np.sign(r_adj) == np.sign(r))


class TestBetas:
    def day(self, ret, ret_adj, vol=0.02, vol_adj=0.01, degenerate=False):
        return AssetDay("AAA", dt.date(2021, 5, 3), ret, ret_adj, vol, vol_adj, degenerate)

    def test_analytic_jump(self):
        betas = liquidity_betas(self.day(0.02, 0.01))
        assert betas.jump == pytest.approx(2.0)
        assert betas.diffusion == pytest.approx(2.0)

    def test_absolute_value_on_sign_flip(self):
        betas = liquidity_betas(self.day(-0.02, 0.01))
        assert betas.jump == pytest.approx(2.0)

    def test_equilibrium(self):
        betas = liquidity_betas(self.day(0.015, 0.015, 0.02, 0.02))
        assert betas.jump == 1.0 and betas.diffusion == 1.0

    def test_zero_denominator_flagged(self):
        betas = liquidity_betas(self.day(0.02, 0.0))
        assert betas.degenerate and betas.jump == 1.0


class TestIntradayCovariance:
    def test_identical_series_rank_one(self):
        rng = np.random.default_rng(2)
        r = rng.normal(0, 1e-3, 48)
        vol = rng.lognormal(8, 1, 48)
        date = dt.date(2021, 5, 3)
        grids = [MinuteGrid("AAA", date, r, vol), MinuteGrid("BBB", date, r.copy(), vol.copy())]
        cov = intraday_covariance(grids)
        assert cov[0, 1] == pytest.approx(cov[0, 0], rel=1e-12)
        assert np.linalg.matrix_rank(cov, tol=1e-18) == 1

    def test_zero_series_zero_matrix(self):
        date = dt.date(2021, 5, 3)
        grids = [MinuteGrid(s, date, np.zeros(10), np.ones(10)) for s in ("A", "B")]
        np.testing.assert_array_equal(intraday_covariance(grids), np.zeros((2, 2)))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(21)
        date = dt.date(2021, 5, 3)
        t = 48
        grids = [make_grid(rng, s, t) for s in ("A", "B", "C")]
        cov = intraday_covariance(grids)
        x = np.column_stack([g.returns for g in grids])
        means = x.mean(axis=0)
        oracle = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                oracle[i, j] = np.sum((x[:, i] - means[i]) * (x[:, j] - means[j])) / t
        oracle *= t
        np.testing.assert_allclose(cov, oracle, atol=1e-12 * np.max(np.abs(oracle)))

    def test_diagonal_equals_squared_daily_vol(self):
        rng = np.random.default_rng(22)
        grid = make_grid(rng)
        day = asset_day_of(grid)
        cov = intraday_covariance([grid])
        assert cov[0, 0] == pytest.approx(day.daily_vol**2, rel=1e-12)

    def test_dimension_mismatch(self):
        date = dt.date(2021, 5, 3)
        g1 = MinuteGrid("A", date, np.zeros(10), np.ones(10))
        g2 = MinuteGrid("B", date, np.zeros(12), np.ones(12))
        with pytest.raises(ValueError, match="mismatch"):
            intraday_covariance([g1, g2])


class TestMatrices:
    def test_jump_identity_and_analytic_determinant(self):
        assert np.linalg.det(jump_matrix([1.0, 1.0, 1.0])) == pytest.approx(1.0)
        assert np.linalg.det(jump_matrix([2.0, 0.5])) == pytest.approx(1.0)

    def test_jump_determinant_is_product(self):
        rng = np.random.default_rng(6)
        betas = rng.uniform(0.2, 5.0, 8)
        det = np.linalg.det(jump_matrix(betas))
        assert det == pytest.approx(float(np.prod(betas)), rel=1e-12)

    def test_jump_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            jump_matrix([1.0, 0.0])

    def test_diffusion_identity_case(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 4))
        sigma = x.T @ x
        h = diffusion_matrix(sigma, sigma)
        np.testing.assert_allclose(h, np.eye(4), atol=1e-10)

    def test_diffusion_diagonal_analytic(self):
        h = diffusion_matrix(np.diag([4.0, 1.0]), np.diag([1.0, 1.0]))
        np.testing.assert_allclose(h, np.diag([2.0, 1.0]), atol=1e-14)

    def test_diffusion_reconstruction_random(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(9, 5)); a = x.T @ x
        y = rng.normal(size=(9, 5)); b = y.T @ y
        h = diffusion_matrix(a, b)
        assert np.linalg.norm(h @ b @ h.T - a) / np.linalg.norm(a) < 1e-8

    def test_diffusion_singular_names_subspace(self):
        a = np.diag([4.0, 1.0])
        b = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError, match="asset indices \\[1\\]"):
            diffusion_matrix(a, b)

    def test_composite_identity_and_analytic(self):
        np.testing.assert_allclose(composite_matrix(np.eye(2), np.eye(2)), np.eye(2))
        out = composite_matrix(np.eye(2), np.diag([4.0, 4.0]))
        np.testing.assert_allclose(out, 0.5 * np.eye(2))

    def test_composite_determinant_identity(self):
        rng = np.random.default_rng(15)
        diff = rng.normal(size=(5, 5))
        jumps = rng.uniform(0.5, 3.0, 5)
        comp = composite_matrix(diff, np.diag(jumps))
        expected = np.linalg.det(diff) / np.sqrt(np.prod(jumps))
        assert np.linalg.det(comp) == pytest.approx(expected, rel=1e-10)

    def test_capped_determinant(self):
        assert capped_determinant_value(np.linalg.det(np.diag([37.0, 1.0]))) == 10.0
        assert capped_determinant_value(np.linalg.det(np.diag([0.7, 1.0]))) == pytest.approx(0.7)
        assert capped_determinant_value(np.linalg.det(np.eye(8))) == 1.0
        assert capped_determinant_value(-0.5) == 0.5


class TestSnapshot:
    def build(self, seed=19, n_assets=3, t=48):
        rng = np.random.default_rng(seed)
        date = dt.date(2021, 5, 3)
        grids = [
            MinuteGrid(f"A{i}", date, rng.normal(0, 1e-3, t), rng.lognormal(8, 1, t))
            for i in range(n_assets)
        ]
        return build_snapshot(grids)

    def test_jump_round_trip(self):
        snap = self.build()
        q_adj_back = np.linalg.solve(snap.jump_mat, snap.jump_mat @ snap.q_adj)
        np.testing.assert_allclose(q_adj_back, snap.q_adj, atol=1e-12)

    def test_reconstruction_invariant(self):
        snap = self.build()
        resid = np.linalg.norm(
            snap.diff_mat @ snap.sigma_tt_adj @ snap.diff_mat.T - snap.sigma_tt
        )
        assert resid <= 1e-8 * np.linalg.norm(snap.sigma_tt)

    def test_jump_diagonal_and_diffusion_symmetrizable(self):
        snap = self.build()
        off = snap.jump_mat - np.diag(np.diag(snap.jump_mat))
        assert np.all(off == 0.0)
        sym = 0.5 * (snap.diff_mat + snap.diff_mat.T)
        assert np.max(np.abs(sym - sym.T)) < 1e-10

    def test_uniform_volume_scaling_leaves_betas(self):
        rng = np.random.default_rng(23)
        date = dt.date(2021, 5, 3)
        r = rng.normal(0, 1e-3, 48)
        vol = rng.lognormal(8, 1, 48)
        day1 = asset_day_of(MinuteGrid("A", date, r, vol))
        day2 = asset_day_of(MinuteGrid("A", date, r, vol * 1000.0))
        b1, b2 = liquidity_betas(day1), liquidity_betas(day2)
        assert b1.jump == pytest.approx(b2.jump, rel=1e-10)
        assert b1.diffusion == pytest.approx(b2.diffusion, rel=1e-10)

    def test_degenerate_day_kept_in_series(self):
        date = dt.date(2021, 5, 3)
        day = asset_day_of(MinuteGrid("A", date, np.zeros(48), np.ones(48)))
        assert day.degenerate
        assert day.daily_return == 0.0 and day.daily_liq_return == 0.0
        betas = liquidity_betas(day)
        assert betas == LiquidityBetas(1.0, 1.0, True)

    def test_one_adjustment_per_asset_day(self, monkeypatch):
        calls = []
        adjust = liquidity.liquidity_adjusted_minutes

        def counting(returns, volumes):
            calls.append(1)
            return adjust(returns, volumes)

        monkeypatch.setattr(liquidity, "liquidity_adjusted_minutes", counting)
        rng = np.random.default_rng(19)
        grids = [make_grid(rng, f"A{i}") for i in range(3)]
        grids.append(MinuteGrid("Z", grids[0].date, np.zeros(48), np.ones(48)))  # degenerate
        snap = build_snapshot(grids)
        assert len(calls) == 4
        monkeypatch.setattr(liquidity, "liquidity_adjusted_minutes", adjust)
        assert snap.asset_days == tuple(asset_day_of(g) for g in grids)
        # the adjusted minute returns, raw for the degenerate asset
        x = np.column_stack([g.returns if d.degenerate else adjust(g.returns, g.dollar_volume)[0]
                             for g, d in zip(grids, snap.asset_days)])
        xc = x - x.mean(axis=0)
        assert np.array_equal(snap.sigma_tt_adj, 0.5 * (xc.T @ xc + (xc.T @ xc).T))

    def test_capped_properties(self):
        snap = self.build()
        assert snap.det_jump == min(abs(snap.det_jump_raw), 10.0)
        assert snap.det_diff == min(abs(snap.det_diff_raw), 10.0)
        assert snap.det_comp == min(abs(snap.det_comp_raw), 10.0)
