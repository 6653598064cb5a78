"""Rolling forecast engine: coverage, stride, determinism, alignment."""

import contextlib
import datetime as dt

import numpy as np
import pytest

from liqcov import dcc, pipeline, vecm
from liqcov.marketdata import CalendarSpec, ingest_minute_csv
from liqcov.pipeline import (
    assemble_series,
    read_posteriors_csv,
    run_forecasts,
    snapshots_from_grids,
    write_posteriors_csv,
)
from liqcov.synthetic import write_synthetic_csv


@pytest.fixture(scope="module")
def series(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    path = tmp / "mini.csv"
    write_synthetic_csv(path, n_assets=3, n_days=120, minutes_per_day=16, seed=11)
    grids = ingest_minute_csv(path, CalendarSpec.crypto(16)).grids
    return assemble_series(snapshots_from_grids(grids))


def test_series_assembly(series):
    assert series.n_days == 120
    assert series.q.shape == (120, 3)
    assert series.sigma_tt.shape == (120, 3, 3)


def test_every_out_of_sample_day_covered(series):
    fset = run_forecasts(series, window_days=80, stride=1)
    out_days = series.n_days - 80
    assert len(fset.records) == out_days * 2 * 3     # pipelines x kinds
    assert len(fset.windows) == out_days * 2
    assert not fset.failures
    dates_r, dets_r = fset.dets("regular", "best", "omega")
    dates_a, dets_a = fset.dets("adjusted", "best", "omega")
    assert dates_r == dates_a and len(dates_r) == out_days
    assert np.all(np.isfinite(dets_r)) and np.all(np.isfinite(dets_a))


def test_stride_reduces_fits_but_not_coverage(series):
    fset = run_forecasts(series, window_days=80, stride=7)
    out_days = series.n_days - 80
    expected_anchors = -(-out_days // 7)             # ceil division
    assert len(fset.windows) == expected_anchors * 2
    assert len(fset.records) == out_days * 2 * 3


def test_stride_anchor_days_match_per_day_refit(series):
    full = run_forecasts(series, window_days=80, stride=1)
    strided = run_forecasts(series, window_days=80, stride=5)
    full_by_key = {(r.date, r.pipeline, r.kind): r for r in full.records}
    anchor_dates = {series.dates[t + 1] for t in range(79, series.n_days - 1, 5)}
    hits = 0
    for rec in strided.records:
        if rec.date in anchor_dates:
            ref = full_by_key[(rec.date, rec.pipeline, rec.kind)]
            assert rec.det_omega == ref.det_omega
            assert rec.det_post == ref.det_post
            hits += 1
    assert hits == len(anchor_dates) * 2 * 3


def test_posterior_dominates_prior_every_day(series):
    fset = run_forecasts(series, window_days=80, stride=6)
    for rec in fset.records:
        assert rec.det_post >= rec.det_prior * (1 - 1e-10)
    adjusted = [r for r in fset.records if r.pipeline == "adjusted"]
    assert adjusted and all(np.isfinite(r.det_omega_scaled) for r in adjusted)
    regular = [r for r in fset.records if r.pipeline == "regular"]
    assert regular and all(np.isnan(r.det_omega_scaled) for r in regular)


def test_best_is_max_loglik_choice(series):
    fset = run_forecasts(series, window_days=80, stride=10)
    by_key = {(r.date, r.pipeline, r.kind): r for r in fset.records}
    for (date, pipe, kind), rec in by_key.items():
        if kind != "best":
            continue
        dcc_rec = by_key[(date, pipe, "dcc")]
        adcc_rec = by_key[(date, pipe, "adcc")]
        expected = adcc_rec if adcc_rec.loglik > dcc_rec.loglik else dcc_rec
        assert rec.det_omega == expected.det_omega
        assert rec.kind == "best"


def test_posterior_roundtrip(series, tmp_path):
    fset = run_forecasts(series, window_days=100, stride=10)
    path = tmp_path / "post.csv"
    write_posteriors_csv(path, fset, "regular")
    loaded = read_posteriors_csv(path)
    direct = fset.posteriors("regular")
    assert set(loaded) == set(direct)
    for date, mat in direct.items():
        assert np.array_equal(loaded[date], mat)


def test_coefficient_arrays_shape(series):
    fset = run_forecasts(series, window_days=80, stride=10)
    coeffs = fset.coefficients("regular")
    n_windows = len([w for w in fset.windows if w.pipeline == "regular"])
    assert coeffs["dcc"].shape == (n_windows, 2)
    assert coeffs["adcc"].shape == (n_windows, 3)
    assert np.all(coeffs["dcc"] >= 0.0)
    assert np.all(coeffs["dcc"].sum(axis=1) < 1.0)
    assert np.all(coeffs["adcc"].sum(axis=1) < 1.0)


def test_window_too_long_errors(series):
    with pytest.raises(ValueError, match="window"):
        run_forecasts(series, window_days=200)


def random_series(rng, n_days, n_assets):
    eye = np.broadcast_to(np.eye(n_assets), (n_days, n_assets, n_assets))
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n_days))
    q = rng.standard_normal((n_days, n_assets)) * 0.01
    return pipeline.PortfolioSeries(
        dates=dates, symbols=tuple(f"A{i}" for i in range(n_assets)),
        q=q, q_adj=q.copy(), sigma_tt=eye * 1e-4, sigma_tt_adj=eye * 1e-4,
        jump=eye, diff=eye, comp=eye)


@pytest.mark.parametrize("n_assets, window_days, message", [
    (13, 200, "trace test"),        # critical values tabulated up to 12 assets
    (3, 29, "10 days per asset"),
    (3, 50, "variance fits need 50"),   # passes 10 per asset, leaves 49 residuals
    (1, 30, "variance fits need 50"),   # also below select_lag's limit at one asset
])
def test_hard_limits_rejected_before_any_fit(monkeypatch, n_assets, window_days, message):
    calls = []
    monkeypatch.setattr(vecm, "fit_vecm", lambda *args, **kwargs: calls.append(args))
    series = random_series(np.random.default_rng(12), 300, n_assets)
    with pytest.raises(ValueError, match=message):
        run_forecasts(series, window_days=window_days)
    assert calls == []


def test_lag_leaves_the_variance_fits_enough_residuals(series):
    # at 51 days AIC may not pick a lag above 1: lag 2 would leave 49 residuals
    fset = run_forecasts(series, window_days=51, stride=20)
    assert not fset.failures
    assert len(fset.windows) == 2 * 4
    assert all(51 - w.lag >= dcc.GARCH_MIN_OBS for w in fset.windows)


def test_garch_stage_fitted_once_per_window(series, monkeypatch):
    calls = []
    fit_garch11 = dcc.fit_garch11

    def counting(resid, *args, **kwargs):
        calls.append(resid.shape)
        return fit_garch11(resid, *args, **kwargs)

    monkeypatch.setattr(dcc, "fit_garch11", counting)
    fset = run_forecasts(series, window_days=100, stride=5)
    anchors = len(fset.windows) // 2
    assert anchors == 4 and not fset.failures
    # one fit per asset and pipeline, shared by the dcc and adcc fits
    assert len(calls) == anchors * len(series.symbols) * 2


def test_blas_pin_does_not_change_results(series, monkeypatch):
    pinned = run_forecasts(series, window_days=100, stride=5)
    monkeypatch.setattr(pipeline, "single_blas_thread", contextlib.nullcontext)
    unpinned = run_forecasts(series, window_days=100, stride=5)
    assert len(pinned.records) == len(unpinned.records) > 0
    for a, b in zip(pinned.records, unpinned.records):
        assert (a.date, a.pipeline, a.kind, a.loglik) == (b.date, b.pipeline, b.kind, b.loglik)
        assert np.array_equal(a.omega_hat, b.omega_hat)
        assert np.array_equal(a.sigma_post, b.sigma_post)
    assert pinned.windows == unpinned.windows


@pytest.mark.parametrize("stride", [1, 2])
def test_programming_errors_propagate(series, monkeypatch, stride):
    # Whether every day is an anchor or days are carried between anchors,
    # a bug in a fit is raised, never recorded as a dropped anchor.
    def broken(*args, **kwargs):
        raise TypeError("refactor bug")

    monkeypatch.setattr(vecm, "fit_vecm", broken)
    with pytest.raises(TypeError, match="refactor bug"):
        run_forecasts(series, window_days=100, stride=stride)


def test_domain_errors_drop_anchors(series, monkeypatch):
    def too_short(*args, **kwargs):
        raise vecm.InsufficientDataError("window too short")

    monkeypatch.setattr(vecm, "fit_vecm", too_short)
    fset = run_forecasts(series, window_days=100, stride=5)
    assert not fset.records
    assert len(fset.failures) == 4
    assert all(msg == "window too short" for _, msg in fset.failures)
