"""GARCH(1,1) and conditional-correlation fitting and forecasting."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from liqcov import dcc, pipeline, vecm
from liqcov._kernels import corr_negloglik, garch11_filter, garch11_negloglik
from liqcov.marketdata import CalendarSpec, ingest_minute_csv
from liqcov.synthetic import write_synthetic_csv


def simulate_garch(rng, n, omega, alpha, beta):
    e = np.empty(n)
    h2 = omega / (1.0 - alpha - beta)
    for t in range(n):
        e[t] = np.sqrt(h2) * rng.standard_normal()
        h2 = omega + alpha * e[t] ** 2 + beta * h2
    return e


def simulate_dcc(rng, n, a, b, corr):
    dim = corr.shape[0]
    q = corr.copy()
    xi_prev = np.zeros(dim)
    e = np.empty((n, dim))
    for t in range(n):
        q = (1 - a - b) * corr + a * np.outer(xi_prev, xi_prev) + b * q
        d = 1.0 / np.sqrt(np.diag(q))
        p = q * np.outer(d, d)
        z = np.linalg.cholesky(p) @ rng.standard_normal(dim)
        e[t] = z
        xi_prev = z
    return e


class TestGarch:
    def test_constant_variance_profile(self):
        # with alpha = beta = 0 the likelihood-optimal omega is the mean
        # squared residual over the recursion's reach
        rng = np.random.default_rng(1)
        e = rng.normal(0, 0.5, 400)
        eps2 = e * e
        var_s = float(eps2.mean())

        res = minimize_scalar(
            lambda w: garch11_negloglik(eps2, w, 0.0, 0.0, var_s)[0],
            bounds=(1e-6, 2.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert res.x == pytest.approx(float(eps2[1:].mean()), rel=1e-6)
        assert res.x == pytest.approx(var_s, rel=0.05)

    def test_one_step_recursion_analytic(self):
        h2 = garch11_filter(np.array([1.0, 0.0]), 0.1, 0.1, 0.8, 1.0)
        assert h2[1] == pytest.approx(1.0)

    def test_simulation_recovery(self):
        rng = np.random.default_rng(42)
        e = simulate_garch(rng, 10_000, 0.1, 0.1, 0.8)
        params = dcc.fit_garch11(e)
        assert abs(params.omega - 0.1) < 0.1
        assert abs(params.alpha - 0.1) < 0.1
        assert abs(params.beta - 0.8) < 0.1
        assert params.alpha + params.beta < 1.0
        assert not params.fallback

    def test_preconditions(self):
        with pytest.raises(dcc.InsufficientDataError):
            dcc.fit_garch11(np.ones(10))
        assert dcc.InsufficientDataError is vecm.InsufficientDataError
        with pytest.raises(ValueError, match="variance"):
            dcc.fit_garch11(np.zeros(100))


class TestDccFit:
    def test_zero_dynamics_equals_constant_correlation(self):
        rng = np.random.default_rng(2)
        xi = rng.standard_normal((200, 2))
        second = xi.T @ xi / 200
        d = np.sqrt(np.diag(second))
        obar = second / np.outer(d, d)
        np.fill_diagonal(obar, 1.0)
        neg = np.where(xi < 0, xi, 0.0)
        nbar = np.zeros((2, 2))
        nll = corr_negloglik(xi, neg, obar, nbar, 0.0, 0.0, 0.0)[0]
        # constant-correlation oracle
        inv = np.linalg.inv(obar)
        _, logdet = np.linalg.slogdet(obar)
        oracle = 0.5 * sum(float(logdet + x @ inv @ x) for x in xi)
        assert nll == pytest.approx(oracle, rel=1e-12)

    def test_simulation_recovery(self):
        rng = np.random.default_rng(42)
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        e = simulate_dcc(rng, 3000, 0.05, 0.90, corr)
        fit = dcc.fit_dcc(e, "dcc")
        assert abs(fit.a - 0.05) < 0.05
        assert abs(fit.b - 0.90) < 0.05
        assert fit.a + fit.b < 1.0
        assert fit.g == 0.0

    def test_all_positive_residuals_make_asymmetry_vanish(self):
        rng = np.random.default_rng(3)
        xi = np.abs(rng.standard_normal((300, 2))) + 0.1
        second = xi.T @ xi / 300
        d = np.sqrt(np.diag(second))
        obar = second / np.outer(d, d)
        np.fill_diagonal(obar, 1.0)
        neg = np.where(xi < 0, xi, 0.0)
        nbar = neg.T @ neg / 300
        assert np.all(nbar == 0.0)
        nll_dcc = corr_negloglik(xi, neg, obar, nbar, 0.04, 0.9, 0.0)[0]
        nll_adcc = corr_negloglik(xi, neg, obar, nbar, 0.04, 0.9, 0.03)[0]
        assert nll_adcc == pytest.approx(nll_dcc, rel=1e-12)

    def test_adcc_stationarity_and_selection(self):
        rng = np.random.default_rng(4)
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        e = simulate_dcc(rng, 800, 0.04, 0.9, corr)
        fit_d = dcc.fit_dcc(e, "dcc")
        fit_a = dcc.fit_dcc(e, "adcc")
        assert fit_a.a + fit_a.b + fit_a.g < 1.0
        best = dcc.select_best(fit_d, fit_a)
        assert best.loglik == max(fit_d.loglik, fit_a.loglik)

    @pytest.mark.parametrize("kind", ["dcc", "adcc"])
    def test_prefit_garch_stage_gives_identical_fit(self, kind):
        rng = np.random.default_rng(7)
        corr = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
        e = simulate_dcc(rng, 400, 0.05, 0.9, corr)
        fresh = dcc.fit_dcc(e, kind)
        shared = dcc.fit_dcc(e, kind, garch=dcc.fit_garch_stage(e))
        for field in dataclasses.fields(dcc.DccFit):
            a, b = getattr(fresh, field.name), getattr(shared, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    def test_prefit_garch_stage_must_match_assets(self):
        e = np.random.default_rng(8).standard_normal((200, 2))
        with pytest.raises(ValueError, match="GARCH fits"):
            dcc.fit_dcc(e, "dcc", garch=dcc.fit_garch_stage(e[:, :1]))

    def test_select_best_rules(self):
        rng = np.random.default_rng(5)
        e = rng.standard_normal((200, 2))
        base = dcc.fit_dcc(e, "dcc")
        low = dataclasses.replace(base, kind="dcc", loglik=-100.0)
        high = dataclasses.replace(base, kind="adcc", loglik=-99.0)
        assert dcc.select_best(low, high).kind == "adcc"
        tie = dataclasses.replace(base, kind="adcc", loglik=-100.0)
        assert dcc.select_best(low, tie).kind == "dcc"

    def test_selected_beats_constant_correlation(self):
        rng = np.random.default_rng(6)
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        e = simulate_dcc(rng, 600, 0.06, 0.88, corr)
        fit = dcc.fit_dcc(e, "dcc")
        h2, xi = dcc._standardize(e, fit.garch)
        xi = np.ascontiguousarray(xi)
        neg = np.ascontiguousarray(np.where(xi < 0, xi, 0.0))
        nll_const = corr_negloglik(xi, neg, fit.obar, fit.nbar, 0.0, 0.0, 0.0)[0]
        nll_fit = corr_negloglik(xi, neg, fit.obar, fit.nbar, fit.a, fit.b, fit.g)[0]
        assert nll_fit <= nll_const + 1e-9


class TestBoxCoordinates:
    @pytest.mark.parametrize("size", [2, 3])
    def test_jacobian_matches_central_differences(self, size):
        x = np.array([0.7, 0.3, 0.6])[:size]
        _, jac = dcc._corr_from_x(x)
        numeric = np.empty((3, size))
        for k in range(size):
            up, down = x.copy(), x.copy()
            up[k] += 1e-6
            down[k] -= 1e-6
            numeric[:, k] = (np.array(dcc._corr_from_x(up)[0])
                             - np.array(dcc._corr_from_x(down)[0])) / 2e-6
        np.testing.assert_allclose(jac, numeric, atol=1e-9)

    def test_box_maps_into_the_stationarity_simplex(self):
        rng = np.random.default_rng(13)
        points = rng.random((4000, 3))
        points[rng.random(points.shape) < 0.3] = 1.0     # faces where a + b + g = cap
        for v in points:
            for x in (v[:2], v):
                a, b, g = dcc._corr_from_x(x)[0]
                assert min(a, b, g) >= 0.0
                assert a + b + g <= dcc.MAX_PERSISTENCE
                assert x.size == 3 or g == 0.0

    def test_starts_map_back_to_the_start_points(self):
        for kind, starts in (("dcc", dcc._DCC_STARTS), ("adcc", dcc._ADCC_STARTS)):
            for x0, start in zip(dcc._corr_starts(kind), starts):
                params = dcc._corr_from_x(np.array(x0))[0]
                np.testing.assert_allclose(params[:len(start)], start, rtol=1e-12)


@pytest.fixture(scope="module")
def bundled_windows(tmp_path_factory):
    """Return windows of the bundled series (8 assets x 600 days x 48
    minutes, window 365) at anchors 364-367, regular and adjusted."""
    path = tmp_path_factory.mktemp("bundled") / "bundled.csv"
    write_synthetic_csv(path, n_assets=8, n_days=600, minutes_per_day=48, seed=7)
    grids = ingest_minute_csv(path, CalendarSpec.crypto(48)).grids
    series = pipeline.assemble_series(pipeline.snapshots_from_grids(grids))
    return [q[t - 364:t + 1] for t in range(364, 368) for q in (series.q, series.q_adj)]


def test_bundled_fits_are_optima(bundled_windows):
    """Neither a start point, nor a feasible step of 0.001 in a, b or g, nor
    a point of a coarse grid beats a fit by more than 1e-6 relative, and
    ADCC, which nests DCC, is never below it."""
    grid = [np.array(p) for p in itertools.product(
        (0.0, 0.005, 0.01, 0.02, 0.05), (0.0, 0.3, 0.5, 0.7, 0.9), (0.0, 0.01, 0.03))]
    for window in bundled_windows:
        fit, dcc_fit, adcc_fit = pipeline._fit_window_pipeline(window)
        _, xi = dcc._standardize(fit.residuals, dcc_fit.garch)
        xi = np.ascontiguousarray(xi)
        neg = np.ascontiguousarray(np.minimum(xi, 0.0))
        assert adcc_fit.loglik >= dcc_fit.loglik - 1e-9 * abs(dcc_fit.loglik)
        for res, starts in ((dcc_fit, dcc._DCC_STARTS), (adcc_fit, dcc._ADCC_STARTS)):
            best = np.array([res.a, res.b, res.g])
            nll_fit = corr_negloglik(xi, neg, res.obar, res.nbar, *best)[0]
            candidates = [np.array(s + (0.0,) * (3 - len(s))) for s in starts]
            candidates += [p for p in grid if res.kind == "adcc" or p[2] == 0.0]
            for k in range(2 if res.kind == "dcc" else 3):
                for step in (-1e-3, 1e-3):
                    cand = best.copy()
                    cand[k] += step
                    candidates.append(cand)
            for cand in candidates:
                if cand.min() < 0.0 or cand.sum() > dcc.MAX_PERSISTENCE:
                    continue
                gain = nll_fit - corr_negloglik(xi, neg, res.obar, res.nbar, *cand)[0]
                assert gain <= 1e-6 * abs(res.loglik), (res.kind, tuple(cand), gain)


class TestForecast:
    def test_static_model_forecasts_obar(self):
        rng = np.random.default_rng(7)
        e = rng.standard_normal((300, 2))
        fit = dcc.fit_dcc(e, "dcc")
        import dataclasses
        static = dataclasses.replace(
            fit, a=0.0, b=0.0, g=0.0, last_o=fit.obar,
            garch=tuple(dcc.Garch11Params(1.0, 0.0, 0.0) for _ in range(2)),
            last_h2=np.ones(2),
        )
        omega = dcc.forecast_covariance(static)
        np.testing.assert_allclose(omega, static.obar, atol=1e-12)

    def test_univariate_reduces_to_garch(self):
        rng = np.random.default_rng(8)
        e = simulate_garch(rng, 400, 0.2, 0.05, 0.9)
        fit = dcc.fit_dcc(e[:, None], "dcc")
        assert (fit.a, fit.b, fit.g) == (0.0, 0.0, 0.0)
        omega = dcc.forecast_covariance(fit)
        g = fit.garch[0]
        expected = g.omega + g.alpha * e[-1] ** 2 + g.beta * fit.last_h2[0]
        assert omega[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_matches_recursion_oracle(self):
        rng = np.random.default_rng(9)
        corr = np.eye(3) * 0.4 + 0.6 * np.ones((3, 3))
        e = simulate_dcc(rng, 500, 0.05, 0.9, corr)
        fit = dcc.fit_dcc(e, "dcc")

        # independent step-by-step recursion with the fitted parameters
        h2 = np.empty((500, 3))
        for i, g in enumerate(fit.garch):
            eps2 = e[:, i] ** 2
            h2[0, i] = eps2.mean()
            for t in range(1, 500):
                h2[t, i] = g.omega + g.alpha * eps2[t - 1] + g.beta * h2[t - 1, i]
        xi = e / np.sqrt(h2)
        q = fit.obar.copy()
        for t in range(1, 500):
            q = (1 - fit.a - fit.b) * fit.obar + fit.a * np.outer(xi[t - 1], xi[t - 1]) + fit.b * q
        q_next = (1 - fit.a - fit.b) * fit.obar + fit.a * np.outer(xi[-1], xi[-1]) + fit.b * q
        d = 1.0 / np.sqrt(np.diag(q_next))
        p_next = q_next * np.outer(d, d)
        h2_next = np.array([
            g.omega + g.alpha * e[-1, i] ** 2 + g.beta * h2[-1, i]
            for i, g in enumerate(fit.garch)
        ])
        oracle = p_next * np.outer(np.sqrt(h2_next), np.sqrt(h2_next))

        omega = dcc.forecast_covariance(fit)
        assert np.max(np.abs(omega - oracle)) < 1e-10

    def test_advance_equals_refiltering(self):
        rng = np.random.default_rng(10)
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        e = simulate_dcc(rng, 402, 0.05, 0.9, corr)
        fit = dcc.fit_dcc(e[:400], "dcc")
        stepped = dcc.advance(dcc.advance(fit, e[400]), e[401])
        omega_stepped = dcc.forecast_covariance(stepped)

        # oracle: filter the full series with the same fitted parameters
        h2 = np.empty((402, 2))
        for i, g in enumerate(fit.garch):
            eps2 = e[:, i] ** 2
            h2[0, i] = float((e[:400, i] ** 2).mean())
            for t in range(1, 402):
                h2[t, i] = g.omega + g.alpha * eps2[t - 1] + g.beta * h2[t - 1, i]
        xi = e / np.sqrt(h2)
        q = fit.obar.copy()
        for t in range(1, 402):
            q = (1 - fit.a - fit.b) * fit.obar + fit.a * np.outer(xi[t - 1], xi[t - 1]) + fit.b * q
        q_next = (1 - fit.a - fit.b) * fit.obar + fit.a * np.outer(xi[-1], xi[-1]) + fit.b * q
        d = 1.0 / np.sqrt(np.diag(q_next))
        h2_next = np.array([
            g.omega + g.alpha * e[-1, i] ** 2 + g.beta * h2[-1, i]
            for i, g in enumerate(fit.garch)
        ])
        oracle = (q_next * np.outer(d, d)) * np.outer(np.sqrt(h2_next), np.sqrt(h2_next))
        assert np.max(np.abs(omega_stepped - oracle)) < 1e-10

    def test_unit_diagonal_correlation_path(self):
        rng = np.random.default_rng(11)
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        e = simulate_dcc(rng, 300, 0.05, 0.9, corr)
        fit = dcc.fit_dcc(e, "dcc")
        _, o_next = dcc._next_state(fit)
        d = 1.0 / np.sqrt(np.diag(o_next))
        p = o_next * np.outer(d, d)
        assert np.max(np.abs(np.diag(p) - 1.0)) < 1e-10
        assert np.linalg.eigvalsh(p)[0] > -1e-10


class TestJumpScaling:
    def test_identity(self):
        omega = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(dcc.scale_covariance_by_jump(omega, np.eye(2)), omega)

    def test_analytic(self):
        out = dcc.scale_covariance_by_jump(np.eye(2), np.diag([4.0, 4.0]))
        np.testing.assert_allclose(out, 0.25 * np.eye(2))

    def test_determinant_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 4))
        omega = x.T @ x
        jumps = rng.uniform(0.5, 3.0, 4)
        out = dcc.scale_covariance_by_jump(omega, np.diag(jumps))
        expected = np.linalg.det(omega) / np.prod(jumps)
        assert np.linalg.det(out) == pytest.approx(expected, rel=1e-10)
