"""Rolling forecast engine: coverage, stride, determinism, alignment."""

import contextlib
import dataclasses
import datetime as dt
import multiprocessing
import os

import numpy as np
import pytest

from liqcov import dcc, pipeline, vecm
from liqcov.linalg import SingularMatrixError
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


def test_stride_anchor_days_match_per_day_refit(series, monkeypatch):
    # With every anchor cold the anchor-day forecasts of the two strides are
    # the same bits.  At the shipped block size a warm start follows the
    # previous anchor, which strides 1 and 5 do not share, so the two fits
    # of an anchor only reach the same optimum to the solver's tolerance.
    for block, rtol in ((1, 0.0), (pipeline.BLOCK_ANCHORS, 1e-7)):
        monkeypatch.setattr(pipeline, "BLOCK_ANCHORS", block)
        full = run_forecasts(series, window_days=80, stride=1)
        strided = run_forecasts(series, window_days=80, stride=5)
        full_by_key = {(r.date, r.pipeline, r.kind): r for r in full.records}
        anchor_dates = {series.dates[t + 1] for t in range(79, series.n_days - 1, 5)}
        hits = 0
        for rec in strided.records:
            if rec.date in anchor_dates:
                ref = full_by_key[(rec.date, rec.pipeline, rec.kind)]
                assert abs(rec.det_omega - ref.det_omega) <= rtol * abs(ref.det_omega)
                assert abs(rec.det_post - ref.det_post) <= rtol * abs(ref.det_post)
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


def use_cpus(monkeypatch, cpus):
    """Make run_forecasts see the given set of usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def test_each_forecast_day_steps_each_recursion_once(series, monkeypatch):
    use_cpus(monkeypatch, {0})      # the counter below only sees this process
    calls = []
    step = dcc._step

    def counting(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(dcc, "_step", counting)
    stride = 3
    fset = run_forecasts(series, window_days=102, stride=stride)
    anchors = len(fset.windows) // 2
    assert anchors == 6 and not fset.failures       # every anchor forecasts 3 days
    # the fit's own step, then one advance a day: stride x 2 pipelines x 2 kinds
    assert len(calls) == anchors * stride * 2 * 2


def test_garch_stage_fitted_once_per_window(series, monkeypatch):
    use_cpus(monkeypatch, {0})      # the counter below only sees this process
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
    for cpus in ({0}, {0, 1}):      # in this process, then in worker processes
        use_cpus(monkeypatch, cpus)
        with pytest.raises(TypeError, match="refactor bug"):
            run_forecasts(series, window_days=100, stride=stride)


def bits(record):
    """A record's fields, with every float and array as its bytes."""
    return tuple(np.asarray(v).tobytes() if isinstance(v, (float, np.ndarray)) else v
                 for v in dataclasses.astuple(record))


@pytest.mark.parametrize("stride, failing", [
    pytest.param(1, 103, id="1"),
    pytest.param(2, 103, id="2"),
    pytest.param(1, None, id="1-no-failure"),
    pytest.param(2, None, id="2-no-failure"),
])
def test_worker_processes_match_the_in_process_run(series, monkeypatch, stride, failing):
    fit_side = pipeline._fit_side
    parent_calls = []

    def singular_at(series, side, t, *args):
        parent_calls.append(t)      # a worker appends to its own copy
        if t == failing:
            raise SingularMatrixError("Sigma", "forced")
        return fit_side(series, side, t, *args)

    monkeypatch.setattr(pipeline, "_fit_side", singular_at)
    use_cpus(monkeypatch, {0})
    serial = run_forecasts(series, window_days=100, stride=stride)
    # each anchor once per pipeline
    assert sorted(parent_calls) == sorted(2 * list(range(99, 119, stride)))
    use_cpus(monkeypatch, {0, 1})
    pooled = run_forecasts(series, window_days=100, stride=stride)
    if "fork" in multiprocessing.get_all_start_methods():
        assert len(parent_calls) == 2 * len(range(99, 119, stride))

    message = "matrix 'Sigma' is singular beyond the regularization floor: forced"
    expected = [] if failing is None else [(series.dates[failing], message)]
    assert serial.failures == pooled.failures == expected
    assert len(serial.records) > 0
    assert [bits(r) for r in serial.records] == [bits(r) for r in pooled.records]
    assert [bits(w) for w in serial.windows] == [bits(w) for w in pooled.windows]


def test_no_worker_outlives_a_run(series, monkeypatch):
    use_cpus(monkeypatch, {0, 1})
    assert run_forecasts(series, window_days=100, stride=5).records
    assert multiprocessing.active_children() == []

    def broken(*args, **kwargs):
        raise TypeError("refactor bug")

    monkeypatch.setattr(vecm, "fit_vecm", broken)
    with pytest.raises(TypeError, match="refactor bug"):
        run_forecasts(series, window_days=100, stride=5)
    assert multiprocessing.active_children() == []


def test_domain_errors_drop_anchors(series, monkeypatch):
    def too_short(*args, **kwargs):
        raise vecm.InsufficientDataError("window too short")

    monkeypatch.setattr(vecm, "fit_vecm", too_short)
    fset = run_forecasts(series, window_days=100, stride=5)
    assert not fset.records
    assert len(fset.failures) == 4
    assert all(msg == "window too short" for _, msg in fset.failures)


def corr_fits(fset, pipeline_name):
    """Each window's correlation coefficients and log-likelihoods as bytes, by anchor date."""
    return {w.anchor_date: np.array([w.dcc_a, w.dcc_b, w.dcc_loglik, w.adcc_a, w.adcc_b,
                                     w.adcc_g, w.adcc_loglik]).tobytes()
            for w in fset.windows if w.pipeline == pipeline_name}


def cold_corr_fits(series, t, pipeline_name, window_days=100):
    """corr_fits' entry for a cold _fit_window_pipeline fit at anchor t."""
    q = series.q if pipeline_name == "regular" else series.q_adj
    _, d, a = pipeline._fit_window_pipeline(q[t - window_days + 1:t + 1])
    return np.array([d.a, d.b, d.loglik, a.a, a.b, a.g, a.loglik]).tobytes()


def test_each_block_starts_cold_and_warms_along(series, monkeypatch):
    use_cpus(monkeypatch, {0})      # the spy below only sees this process
    starts = []
    fit_dcc = dcc.fit_dcc

    def spy(residuals, kind, **kwargs):
        starts.append((kind, kwargs.get("warm") is not None))
        return fit_dcc(residuals, kind, **kwargs)

    monkeypatch.setattr(dcc, "fit_dcc", spy)
    fset = run_forecasts(series, window_days=100, stride=1)
    assert pipeline.BLOCK_ANCHORS == 16 and len(fset.windows) == 2 * 20
    # two blocks, anchors 99..114 and 115..118; a chain per block and pipeline
    blocks = [[False] + [True] * 15, [False] + [True] * 3]
    assert starts == [(kind, warm) for block in blocks for _ in pipeline.PIPELINES
                      for warm in block for kind in ("dcc", "adcc")]
    for name in pipeline.PIPELINES:
        for t in (99, 115):
            assert corr_fits(fset, name)[series.dates[t]] == cold_corr_fits(series, t, name)


def test_failed_anchor_restarts_its_pipeline_cold(series, monkeypatch):
    use_cpus(monkeypatch, {0, 1})
    clean = run_forecasts(series, window_days=100, stride=1)
    fit_side = pipeline._fit_side

    def failing(series, side, t, *args):
        if (side, t) == ("adjusted", 105):
            raise SingularMatrixError("Sigma", "forced")
        return fit_side(series, side, t, *args)

    monkeypatch.setattr(pipeline, "_fit_side", failing)
    fset = run_forecasts(series, window_days=100, stride=1)
    assert [date for date, _ in fset.failures] == [series.dates[105]]
    assert series.dates[106] not in {r.date for r in fset.records}
    assert len(fset.windows) == len(clean.windows) - 2
    assert corr_fits(fset, "adjusted")[series.dates[106]] == cold_corr_fits(
        series, 106, "adjusted")
    assert corr_fits(fset, "adjusted")[series.dates[106]] != corr_fits(
        clean, "adjusted")[series.dates[106]]
    # the regular chain did not fail, so it stays warm
    assert corr_fits(fset, "regular") == {
        date: fits for date, fits in corr_fits(clean, "regular").items()
        if date != series.dates[105]}
