"""Each benchmark check passes on liqcov's output and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

The inputs are small synthetic datasets, so the whole file runs in seconds.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from liqcov import cli, dcc, marketdata, pipeline, vecm  # noqa: E402
from liqcov.synthetic import write_synthetic_csv  # noqa: E402

MINUTES = 16
WINDOW = 70
CAP = dcc.MAX_PERSISTENCE


def replace_record(records, index, **changes):
    out = list(records)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "minutes.csv"
    write_synthetic_csv(path, n_assets=3, n_days=110, minutes_per_day=MINUTES, seed=13)
    return str(path)


@pytest.fixture(scope="module")
def series(data):
    grids = marketdata.ingest_minute_csv(data, marketdata.CalendarSpec.crypto(MINUTES)).grids
    return pipeline.assemble_series(pipeline.snapshots_from_grids(grids))


@pytest.fixture(scope="module")
def reference(data):
    return checks.LiquidityReference(checks.RawMinutes.read(data, MINUTES))


# ---------------------------------------------------------------------------
# liquidity stage
# ---------------------------------------------------------------------------

def test_liquidity_checks_pass(series, reference):
    checks.check_daily_returns(series, reference)
    checks.check_adjusted_returns(series, reference)
    checks.check_diffusion_reconstructs(series, reference)
    checks.check_composite_determinant(series)


def test_shifted_daily_return_fails(series, reference):
    wrong = dataclasses.replace(series, q=np.roll(series.q, 1, axis=0))
    with pytest.raises(checks.CheckError, match="daily return"):
        checks.check_daily_returns(wrong, reference)


def test_unadjusted_q_adj_fails(series, reference):
    wrong = dataclasses.replace(series, q_adj=series.q)
    with pytest.raises(checks.CheckError, match="q_adj"):
        checks.check_adjusted_returns(wrong, reference)


def test_transposed_diffusion_fails(series, reference):
    wrong = dataclasses.replace(series, diff=np.transpose(series.diff, (0, 2, 1)))
    with pytest.raises(checks.CheckError, match="misses Sigma"):
        checks.check_diffusion_reconstructs(wrong, reference)


def test_scaled_composite_fails(series):
    wrong = dataclasses.replace(series, comp=series.comp * 1.001)
    with pytest.raises(checks.CheckError, match="det\\(composite\\)"):
        checks.check_composite_determinant(wrong)


# ---------------------------------------------------------------------------
# forecast chain
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_series(series):
    n = WINDOW + 2
    return dataclasses.replace(
        series, dates=series.dates[:n],
        **{f: getattr(series, f)[:n]
           for f in ("q", "q_adj", "sigma_tt", "sigma_tt_adj", "jump", "diff", "comp")})


@pytest.fixture(scope="module")
def records(short_series):
    fset = pipeline.run_forecasts(short_series, WINDOW)
    assert not fset.failures
    return fset.records


def find(records, kind, pipeline_name="regular"):
    return next(i for i, r in enumerate(records)
                if r.kind == kind and r.pipeline == pipeline_name)


def test_forecast_checks_pass(records, short_series):
    checks.check_forecast_records(records, short_series, 1.0, CAP)


def test_sign_flipped_increment_fails(records, short_series):
    i = find(records, "dcc")
    prior = short_series.sigma_tt[short_series.dates.index(records[i].date) - 1]
    flipped = 2 * prior - records[i].sigma_post
    wrong = replace_record(records, i, sigma_post=flipped)
    with pytest.raises(checks.CheckError, match="posterior"):
        checks.check_forecast_records(wrong, short_series, 1.0, CAP)


def test_wrong_tau_posterior_fails(records, short_series):
    with pytest.raises(checks.CheckError, match="plain-inverse formula"):
        checks.check_forecast_records(records, short_series, 2.0, CAP)


def test_indefinite_forecast_fails(records, short_series):
    i = find(records, "adcc")
    omega = records[i].omega_hat.copy()
    omega[0, 0] = -omega[0, 0]
    wrong = replace_record(records, i, omega_hat=omega)
    with pytest.raises(checks.CheckError, match="forecast is not positive definite"):
        checks.check_forecast_records(wrong, short_series, 1.0, CAP)


def test_asymmetric_posterior_fails(records, short_series):
    i = find(records, "dcc")
    post = records[i].sigma_post.copy()
    post[0, 1] *= 1.01
    wrong = replace_record(records, i, sigma_post=post)
    with pytest.raises(checks.CheckError, match="not symmetric"):
        checks.check_forecast_records(wrong, short_series, 1.0, CAP)


def test_nonstationary_parameters_fail(records, short_series):
    i = find(records, "adcc")
    wrong = replace_record(records, i, b=1.0)
    with pytest.raises(checks.CheckError, match="stationarity simplex"):
        checks.check_forecast_records(wrong, short_series, 1.0, CAP)


def test_lowered_adcc_loglik_fails(records, short_series):
    i, j = find(records, "adcc"), find(records, "dcc")
    wrong = replace_record(records, i, loglik=records[j].loglik - 1.0)
    with pytest.raises(checks.CheckError, match="ADCC log-likelihood"):
        checks.check_forecast_records(wrong, short_series, 1.0, CAP)


def test_best_pointing_at_lower_model_fails(records, short_series):
    i, j, k = find(records, "adcc"), find(records, "dcc"), find(records, "best")
    lower = min((records[i], records[j]), key=lambda r: r.loglik)
    wrong = replace_record(records, k, loglik=lower.loglik, sigma_post=lower.sigma_post)
    with pytest.raises(checks.CheckError, match="best"):
        checks.check_forecast_records(wrong, short_series, 1.0, CAP)


@pytest.fixture(scope="module")
def dcc_case(short_series, records):
    """Residuals, GARCH fits and the DCC record of the first anchor."""
    rec = records[find(records, "dcc")]
    fit = vecm.fit_vecm(short_series.q[:WINDOW], rec.lag, rec.rank)
    refit = dcc.fit_dcc(fit.residuals, "dcc")
    assert refit.loglik == rec.loglik
    return checks.ReferenceLikelihood(fit.residuals, refit.garch), rec


def test_reference_likelihood_passes(dcc_case):
    ref, rec = dcc_case
    checks.check_reference_loglik(ref, rec)
    checks.check_no_better_point(ref, rec, dcc._DCC_STARTS, CAP)


def test_lowered_loglik_fails(dcc_case):
    ref, rec = dcc_case
    wrong = dataclasses.replace(rec, loglik=rec.loglik - 0.5)
    with pytest.raises(checks.CheckError, match="reference log-likelihood"):
        checks.check_reference_loglik(ref, wrong)


def test_point_off_the_optimum_fails(dcc_case):
    ref, rec = dcc_case
    a, b = rec.a + 0.05, max(rec.b - 0.1, 0.0)
    off = dataclasses.replace(rec, a=a, b=b, loglik=ref(a, b, 0.0))
    checks.check_reference_loglik(ref, off)
    with pytest.raises(checks.CheckError, match="beats the fit"):
        checks.check_no_better_point(ref, off, dcc._DCC_STARTS, CAP)


def test_start_point_beating_the_fit_fails(dcc_case):
    ref, rec = dcc_case
    off = dataclasses.replace(rec, a=1e-3, b=1e-3, loglik=ref(1e-3, 1e-3, 0.0))
    with pytest.raises(checks.CheckError, match=r"\(a, b, g\) = \((0\.05|0\.02|0\.0001), "):
        checks.check_no_better_point(ref, off, dcc._DCC_STARTS, CAP, step=1e-9)


# ---------------------------------------------------------------------------
# backtest stage
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def stages(data, tmp_path_factory):
    out = tmp_path_factory.mktemp("tree")
    cfg = cli.RunConfig.from_mapping(dict(
        data_csv=data, out_dir=str(out), minutes_per_day=MINUTES,
        window_days=WINDOW, refit_stride=8))
    series = cli.run_liquidity(cfg)
    cli.run_forecast(cfg)
    results = cli.run_backtest_stage(cfg)
    cli.run_report(cfg)
    posteriors = {side: checks.read_posteriors(out / f"posteriors_{side}.csv")
                  for side in ("regular", "adjusted")}
    return cfg, series, results, posteriors


MV_DAYS = (WINDOW - 1, WINDOW + 20, 108)


def test_stage_checks_pass(stages, data):
    cfg, series, results, posteriors = stages
    tree = checks.read_tree(cfg.out_dir)
    checks.check_trees_equal(tree, dict(tree))
    checks.check_weights(results)
    q_raw = checks.RawMinutes.read(data, MINUTES).daily_returns()
    checks.check_realized_returns(results, series.dates, q_raw)
    checks.check_mv_optimal(results, series, WINDOW, posteriors, MV_DAYS)


def test_changed_or_extra_file_fails(stages, tmp_path):
    tree = checks.read_tree(stages[0].out_dir)
    changed = dict(tree, **{"table4.md": b"\0" * 32})
    with pytest.raises(checks.CheckError, match="differ"):
        checks.check_trees_equal(changed, tree)
    extra = dict(tree, **{"stale.csv": b"\0" * 32})
    with pytest.raises(checks.CheckError, match="changed"):
        checks.check_trees_equal(extra, tree)


def with_weights(result, weights, realized=None):
    return dataclasses.replace(result, weights=weights,
                               realized=result.realized if realized is None else realized)


def test_shifted_realized_return_fails(stages, data):
    _, series, results, _ = stages
    q_raw = checks.RawMinutes.read(data, MINUTES).daily_returns()
    wrong = [with_weights(results[0], results[0].weights, results[0].realized + 1e-6)]
    with pytest.raises(checks.CheckError, match="realized return"):
        checks.check_realized_returns(wrong, series.dates, q_raw)


@pytest.mark.parametrize("edit, message", [
    (lambda w: w.__setitem__((0, 0), -1e-3), "negative weight"),
    (lambda w: w.__setitem__((0, 0), 1.01), "above 3/N"),
    (lambda w: w.__setitem__((0, -1), w[0, -1] + 0.1), "sum to one"),
])
def test_bad_weights_fail(stages, edit, message):
    res = stages[2][0]
    weights = res.weights.copy()
    edit(weights)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_weights([with_weights(res, weights)])


def test_suboptimal_weights_fail(stages):
    _, series, results, posteriors = stages
    res = results[0]
    weights = res.weights.copy()
    n_assets = weights.shape[1] - 1
    row = MV_DAYS[0] - WINDOW + 1
    weights[row] = np.append(np.full(n_assets, 1.0 / (2 * n_assets)), 0.5)
    with pytest.raises(checks.CheckError, match="below the scipy solve"):
        checks.check_mv_optimal([with_weights(res, weights)], series, WINDOW, posteriors, MV_DAYS)
