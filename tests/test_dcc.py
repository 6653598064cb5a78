"""GARCH(1,1) and conditional-correlation fitting and forecasting."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from liqcov import _kernels, dcc, pipeline, vecm
from liqcov._kernels import CorrTerms, corr_negloglik, garch11_filter, garch11_negloglik
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
        nll = corr_negloglik(CorrTerms(xi, neg, obar, nbar), 0.0, 0.0, 0.0)[0]
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
        terms = CorrTerms(xi, neg, obar, nbar)
        nll_dcc = corr_negloglik(terms, 0.04, 0.9, 0.0)[0]
        nll_adcc = corr_negloglik(terms, 0.04, 0.9, 0.03)[0]
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
        """A fit from a stage that the other kind's fit has read equals a
        fit from the residuals array."""
        rng = np.random.default_rng(7)
        corr = np.array([[1.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.0]])
        e = simulate_dcc(rng, 400, 0.05, 0.9, corr)
        fresh = dcc.fit_dcc(e, kind)
        stage = dcc.fit_garch_stage(e)
        dcc.fit_dcc(stage, "adcc" if kind == "dcc" else "dcc")
        shared = dcc.fit_dcc(stage, kind)
        assert shared.garch is stage.garch
        for field in dataclasses.fields(dcc.DccFit):
            a, b = getattr(fresh, field.name), getattr(shared, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

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
        stage = dcc.fit_garch_stage(e)
        fit = dcc.fit_dcc(stage, "dcc")
        nll_const = corr_negloglik(stage.terms, 0.0, 0.0, 0.0)[0]
        nll_fit = corr_negloglik(stage.terms, fit.a, fit.b, fit.g)[0]
        assert nll_fit <= nll_const + 1e-9


class TestNesting:
    """ADCC with g = 0 is DCC, so an ADCC fit never ends below the DCC fit
    it is given."""

    @staticmethod
    def fits():
        rng = np.random.default_rng(4)
        e = simulate_dcc(rng, 800, 0.04, 0.9, np.array([[1.0, 0.3], [0.3, 1.0]]))
        stage = dcc.fit_garch_stage(e)
        return e, stage, dcc.fit_dcc(stage, "dcc")

    @staticmethod
    def count_solves(monkeypatch) -> list:
        solves = []
        minimize = dcc._minimize_fd

        def counting(fun, x0, bounds):
            solves.append(x0)
            return minimize(fun, x0, bounds)

        monkeypatch.setattr(dcc, "_minimize_fd", counting)
        return solves

    def test_adcc_below_dcc_is_solved_from_the_dcc_optimum(self, monkeypatch):
        _, stage, dcc_fit = self.fits()
        # an ADCC search that ends on the no-dynamics corner
        monkeypatch.setattr(dcc, "_fit_box", lambda fun, starts, bounds: np.zeros(len(bounds)))
        stuck = dcc.fit_dcc(stage, "adcc")
        assert stuck.loglik < dcc_fit.loglik - 1.0
        solves = self.count_solves(monkeypatch)
        nested = dcc.fit_dcc(stage, "adcc", nested=dcc_fit)
        assert len(solves) == 1
        params = dcc._corr_from_x(solves[0])[0]
        np.testing.assert_allclose(params, (dcc_fit.a, dcc_fit.b, 0.0), rtol=1e-12, atol=1e-15)
        assert nested.loglik >= dcc_fit.loglik
        assert not nested.fallback

    def test_no_extra_solve_when_adcc_is_not_below(self, monkeypatch):
        _, stage, dcc_fit = self.fits()
        solves = self.count_solves(monkeypatch)
        alone = dcc.fit_dcc(stage, "adcc")
        n_alone = len(solves)
        nested = dcc.fit_dcc(stage, "adcc", nested=dcc_fit)
        assert alone.loglik >= dcc_fit.loglik
        assert len(solves) == 2 * n_alone
        assert (nested.a, nested.b, nested.g, nested.loglik) == (
            alone.a, alone.b, alone.g, alone.loglik)

    def test_each_start_is_solved_once(self, monkeypatch):
        e, stage, dcc_fit = self.fits()
        solves = self.count_solves(monkeypatch)
        dcc.fit_garch11(e[:, 0])
        assert len(solves) == len(dcc._GARCH_STARTS)
        for kind, nested, starts in (("dcc", None, dcc._DCC_STARTS),
                                     ("adcc", None, dcc._ADCC_STARTS),
                                     ("adcc", dcc_fit, dcc._ADCC_STARTS)):
            solves.clear()
            fit = dcc.fit_dcc(stage, kind, nested=nested)
            assert fit.loglik >= dcc_fit.loglik     # the nesting re-solve has no cause to run
            assert len(solves) == len(starts)

    def test_nested_must_be_a_dcc_fit_of_the_same_garch_stage(self):
        e, stage, dcc_fit = self.fits()
        with pytest.raises(ValueError, match="nests"):
            dcc.fit_dcc(stage, "dcc", nested=dcc_fit)
        # another stage of the same residuals, and the stage an array builds
        for other in (dcc.fit_garch_stage(e), e):
            with pytest.raises(ValueError, match="GARCH stage"):
                dcc.fit_dcc(other, "adcc", nested=dcc_fit)


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


def test_bundled_fits_are_optima(bundled_windows, monkeypatch):
    """Neither a start point, nor a feasible step of 0.001 in a, b or g, nor
    a point of a coarse grid beats a fit by more than 1e-6 relative, and
    ADCC, which nests DCC, is never below it."""
    grid = [np.array(p) for p in itertools.product(
        (0.0, 0.005, 0.01, 0.02, 0.05), (0.0, 0.3, 0.5, 0.7, 0.9), (0.0, 0.01, 0.03))]
    stages = []
    fit_garch_stage = dcc.fit_garch_stage

    def recording(residuals):
        stages.append(fit_garch_stage(residuals))
        return stages[-1]

    monkeypatch.setattr(dcc, "fit_garch_stage", recording)
    for window in bundled_windows:
        _, dcc_fit, adcc_fit = pipeline._fit_window_pipeline(window)
        terms = stages[-1].terms
        assert adcc_fit.loglik >= dcc_fit.loglik - 1e-9 * abs(dcc_fit.loglik)
        for res, starts in ((dcc_fit, dcc._DCC_STARTS), (adcc_fit, dcc._ADCC_STARTS)):
            best = np.array([res.a, res.b, res.g])
            nll_fit = corr_negloglik(terms, *best)[0]
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
                gain = nll_fit - corr_negloglik(terms, *cand)[0]
                assert gain <= 1e-6 * abs(res.loglik), (res.kind, tuple(cand), gain)


@pytest.fixture(scope="module")
def short_windows(tmp_path_factory):
    """Return every 70-day window of a short series (3 assets x 110 days x
    16 minutes, seed 13), regular and adjusted."""
    path = tmp_path_factory.mktemp("short") / "short.csv"
    write_synthetic_csv(path, n_assets=3, n_days=110, minutes_per_day=16, seed=13)
    grids = ingest_minute_csv(path, CalendarSpec.crypto(16)).grids
    series = pipeline.assemble_series(pipeline.snapshots_from_grids(grids))
    return [q[t - 69:t + 1] for t in range(69, series.n_days) for q in (series.q, series.q_adj)]


def test_dropped_garch_start_never_beats_the_fit(short_windows, monkeypatch):
    """A solve from (0.05, 0.90), the start dropped from _GARCH_STARTS, ends
    at most 1e-9 (relative) above the fit on every VECM residual column."""
    columns = []
    for window in short_windows:
        # the chain's lag and ECM fit (pipeline._fit_window_pipeline)
        lag = vecm.select_lag(window, max_lag=min(vecm.MAX_LAG, len(window) - dcc.GARCH_MIN_OBS))
        residuals = vecm.fit_vecm(window, lag).residuals
        columns += [residuals[:, i] for i in range(residuals.shape[1])]
    fits = [dcc.fit_garch11(e) for e in columns]
    monkeypatch.setattr(dcc, "_GARCH_STARTS", ((0.05, 0.90),))
    for e, fit in zip(columns, fits):
        eps2 = e * e
        nll_fit = garch11_negloglik(eps2, fit.omega, fit.alpha, fit.beta, eps2.mean())[0]
        alt = dcc.fit_garch11(e)
        gain = nll_fit - garch11_negloglik(eps2, alt.omega, alt.alpha, alt.beta, eps2.mean())[0]
        assert gain <= 1e-9 * abs(nll_fit), (fit, alt, gain)


def test_warm_fits_never_end_below_cold_fits(short_windows):
    """Chained along consecutive windows as the pipeline chains its anchors,
    no warm-started correlation fit ends more than 1e-6 (relative) below
    the cold fit of the same window."""
    for side in (0, 1):     # regular, adjusted
        warm = None
        for window in short_windows[side::2]:
            _, *cold = pipeline._fit_window_pipeline(window)
            _, *fits = pipeline._fit_window_pipeline(window, warm)
            for fit, ref in zip(fits, cold):
                assert fit.loglik >= ref.loglik - 1e-6 * abs(ref.loglik), (fit, ref)
            warm = fits


@pytest.fixture
def correlated_residuals():
    """The GARCH stages of two nearby 300-day residual windows."""
    rng = np.random.default_rng(3)
    corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    e = simulate_dcc(rng, 301, 0.05, 0.9, corr)
    return [dcc.fit_garch_stage(w) for w in (e[:300], e[1:])]


def counting_solves(monkeypatch, kernel_calls: list) -> list:
    """Wrap both solvers and the correlation kernel's forward pass, under
    both names it is called by: each solve appends its result, each pass
    appends to kernel_calls."""
    results = []

    def solve(*args, fn):
        results.append(fn(*args))
        return results[-1]

    def kernel(*args, fn):
        kernel_calls.append(args)
        return fn(*args)

    for module, name, wrap in ((dcc, "_minimize_fd", solve), (dcc, "_newton_box", solve),
                               (dcc, "corr_negloglik", kernel),
                               (_kernels, "corr_negloglik", kernel)):
        monkeypatch.setattr(module, name, functools.partial(wrap, fn=getattr(module, name)))
    return results


def test_each_optimum_is_scored_from_its_evaluation(correlated_residuals, monkeypatch):
    stage, stage_next = correlated_residuals
    kernel_calls = []
    solves = counting_solves(monkeypatch, kernel_calls)
    dcc_fit = dcc.fit_dcc(stage, "dcc")
    # a nested fit scored above any ADCC optimum forces the nesting re-solve
    above = dataclasses.replace(dcc_fit, loglik=dcc_fit.loglik + 1.0)
    dcc.fit_dcc(stage, "adcc", nested=above)
    dcc.fit_dcc(stage_next, "dcc", warm=dcc_fit)
    assert len(solves) == 3 + 3 + 1 + 1      # starts, starts and re-solve, warm solve
    assert solves[-1].nhev > 0               # the warm solve is the Newton solve
    # one pass per evaluation: no scoring pass, and each Hessian reuses one
    assert len(kernel_calls) == sum(res.nfev for res in solves)


def test_warm_fit_solves_once_from_the_previous_optimum(correlated_residuals, monkeypatch):
    stage, stage_next = correlated_residuals
    prev = {kind: dcc.fit_dcc(stage, kind) for kind in ("dcc", "adcc")}
    x0s = {"_minimize_fd": [], "_newton_box": []}
    for (name, x0_list), at in zip(x0s.items(), (1, 2)):       # x0's place in each solve's call
        def recording(*args, solve=getattr(dcc, name), x0_list=x0_list, at=at):
            x0_list.append(args[at])
            return solve(*args)
        monkeypatch.setattr(dcc, name, recording)
    for kind, fit in prev.items():
        for x0_list in x0s.values():
            x0_list.clear()
        warm = dcc.fit_dcc(stage_next, kind, warm=fit)
        assert (len(x0s["_newton_box"]), len(x0s["_minimize_fd"])) == (1, 0)
        params = dcc._corr_from_x(x0s["_newton_box"][0])[0]
        np.testing.assert_allclose(params, (fit.a, fit.b, fit.g), rtol=1e-12, atol=1e-15)
        cold = dcc.fit_dcc(stage_next, kind)
        assert warm.loglik >= cold.loglik - 1e-9 * abs(cold.loglik)
        # a fallback, or a fit with no dynamics, is no optimum to start from
        for unusable in (dataclasses.replace(fit, fallback=True),
                         dataclasses.replace(fit, a=0.0, g=0.0)):
            for x0_list in x0s.values():
                x0_list.clear()
            dcc.fit_dcc(stage_next, kind, warm=unusable)
            assert (len(x0s["_newton_box"]), len(x0s["_minimize_fd"])) == (0, 3)
    with pytest.raises(TypeError, match="cannot start from"):
        dcc.fit_dcc(stage_next, "dcc", warm=prev["adcc"])


def simulate_adcc(rng, n, b, g, corr):
    """Residuals of an ADCC recursion with a = 0: only negative shocks move Q."""
    dim = corr.shape[0]
    m = np.minimum(rng.multivariate_normal(np.zeros(dim), corr, 20000), 0.0)
    nbar = m.T @ m / len(m)
    q = corr.copy()
    neg_prev = np.zeros(dim)
    e = np.empty((n, dim))
    for t in range(n):
        q = (1 - b) * corr - g * nbar + b * q + g * np.outer(neg_prev, neg_prev)
        d = 1.0 / np.sqrt(np.diag(q))
        e[t] = np.linalg.cholesky(q * np.outer(d, d)) @ rng.standard_normal(dim)
        neg_prev = np.minimum(e[t], 0.0)
    return e


def test_warm_adcc_solve_ends_on_the_a_zero_face(monkeypatch):
    """A warm ADCC solve from an optimum with a = 0, on a window whose
    optimum also has a = 0, holds a on that face and converges: its
    projected gradient ends at most 1e-9, and its value within 1e-9
    (relative) of an L-BFGS-B solve from the same start."""
    rng = np.random.default_rng(5)
    corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    e = simulate_adcc(rng, 301, 0.9, 0.08, corr)
    prev = dcc.fit_dcc(e[:300], "adcc")
    assert prev.a == 0.0 and prev.g > 0.0
    solves = []
    newton_box = dcc._newton_box

    def recording(fun, hessian, x0):
        solves.append((fun, x0, newton_box(fun, hessian, x0)))
        return solves[-1][2]

    monkeypatch.setattr(dcc, "_newton_box", recording)
    fit = dcc.fit_dcc(e[1:], "adcc", warm=prev)
    assert fit.a == 0.0 and fit.g > 0.0
    (fun, x0, res), = solves
    assert dcc._projected_gradient(res.x, fun(res.x)[1]) <= 1e-9
    ref = dcc._minimize_fd(fun, x0, [(0.0, 1.0)] * 3)
    assert res.fun <= ref.fun + 1e-9 * abs(ref.fun)


def test_warm_solves_stay_under_a_call_cap(bundled_windows, monkeypatch):
    """Chained along the bundled anchors, each warm correlation fit makes at
    most 10 kernel calls: a solve that stops only at the gradient tolerance
    can run on where the likelihood no longer resolves a decrease."""
    kernel_calls = []
    solves = counting_solves(monkeypatch, kernel_calls)
    for side in (0, 1):     # regular, adjusted
        warm = None
        for window in bundled_windows[side::2]:
            _, *warm = pipeline._fit_window_pipeline(window, warm)
    warm_solves = [res for res in solves if "nhev" in res]
    assert len(warm_solves) == 2 * 2 * 3
    assert max(res.nfev + res.nhev for res in warm_solves) <= 10


class TestForecast:
    def test_static_model_forecasts_obar(self):
        rng = np.random.default_rng(7)
        e = rng.standard_normal((300, 2))
        fit = dcc.fit_dcc(e, "dcc")
        import dataclasses
        static = dataclasses.replace(
            fit, a=0.0, b=0.0, g=0.0, o_next=fit.obar,
            garch=tuple(dcc.Garch11Params(1.0, 0.0, 0.0) for _ in range(2)),
            h2_next=np.ones(2),
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
        eps2 = e**2
        last_h2 = garch11_filter(eps2, g.omega, g.alpha, g.beta, float(eps2.mean()))[-1]
        expected = g.omega + g.alpha * e[-1] ** 2 + g.beta * last_h2
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
        o_next = fit.o_next
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
