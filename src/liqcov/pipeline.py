"""Rolling-window forecasting chain over regular and adjusted return series.

For each refit anchor the chain is: lag selection and trace-test rank on the
trailing window, an error-correction fit, per-asset variance dynamics and
correlation dynamics (symmetric and asymmetric, keeping whichever has the
higher log-likelihood as "best"), then the Bayesian posterior that shrinks
the day's intraday covariance toward the one-step conditional forecast.
It runs twice per window, once on regular returns with the regular intraday
prior and once on liquidity-adjusted returns with the adjusted prior.

With a refit stride the coefficients stay fixed between anchors while the
recursion states absorb each newly observed residual, so a forecast still
comes out every day.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dcc as dcc_mod
from . import vecm as vecm_mod
from .bayes import posterior_covariance
from .linalg import single_blas_thread
from .liquidity import LiquiditySnapshot, build_snapshot
from .marketdata import MinuteGrid, group_by_day

logger = logging.getLogger(__name__)

PIPELINES = ("regular", "adjusted")


@dataclass(frozen=True)
class PortfolioSeries:
    """Daily stacked view of the per-day snapshots."""

    dates: tuple[dt.date, ...]
    symbols: tuple[str, ...]
    q: np.ndarray               # (n_days, n_assets)
    q_adj: np.ndarray
    sigma_tt: np.ndarray        # (n_days, n_assets, n_assets)
    sigma_tt_adj: np.ndarray
    jump: np.ndarray
    diff: np.ndarray
    comp: np.ndarray

    @property
    def n_days(self) -> int:
        return len(self.dates)


def assemble_series(snapshots: Sequence[LiquiditySnapshot]) -> PortfolioSeries:
    snaps = sorted(snapshots, key=lambda s: s.date)
    if not snaps:
        raise ValueError("no snapshots")
    symbols = snaps[0].symbols
    for snap in snaps:
        if snap.symbols != symbols:
            raise ValueError(f"snapshot {snap.date} has different symbols")
    return PortfolioSeries(
        dates=tuple(s.date for s in snaps),
        symbols=symbols,
        q=np.array([s.q for s in snaps]),
        q_adj=np.array([s.q_adj for s in snaps]),
        sigma_tt=np.array([s.sigma_tt for s in snaps]),
        sigma_tt_adj=np.array([s.sigma_tt_adj for s in snaps]),
        jump=np.array([s.jump_mat for s in snaps]),
        diff=np.array([s.diff_mat for s in snaps]),
        comp=np.array([s.comp_mat for s in snaps]),
    )


def snapshots_from_grids(grids: Sequence[MinuteGrid]) -> list[LiquiditySnapshot]:
    """One snapshot per day on which every symbol has a grid."""
    return [build_snapshot(day_grids) for _, day_grids in group_by_day(grids)]


@dataclass(frozen=True)
class ForecastRecord:
    """One out-of-sample day's conditional and posterior covariance."""

    date: dt.date
    pipeline: str               # "regular" | "adjusted"
    kind: str                   # "dcc" | "adcc" | "best"
    omega_hat: np.ndarray
    sigma_post: np.ndarray
    det_prior: float
    det_omega: float
    det_post: float
    det_omega_scaled: float     # analytic jump-scaled counterpart (adjusted side); nan otherwise
    a: float
    b: float
    g: float
    loglik: float
    fallback: bool
    lag: int
    rank: int


@dataclass(frozen=True)
class WindowRecord:
    """Per-anchor fit diagnostics for one pipeline."""

    anchor_date: dt.date
    pipeline: str
    lag: int
    rank: int
    aic: float
    vecm_loglik: float
    ridge: bool
    dcc_a: float
    dcc_b: float
    dcc_loglik: float
    dcc_fallback: bool
    adcc_a: float
    adcc_b: float
    adcc_g: float
    adcc_loglik: float
    adcc_fallback: bool
    best_kind: str


@dataclass
class ForecastSet:
    records: list[ForecastRecord] = field(default_factory=list)
    windows: list[WindowRecord] = field(default_factory=list)
    failures: list[tuple[dt.date, str]] = field(default_factory=list)

    def dets(self, pipeline: str, kind: str, what: str = "omega") -> tuple[list[dt.date], np.ndarray]:
        recs = sorted(
            (r for r in self.records if r.pipeline == pipeline and r.kind == kind),
            key=lambda r: r.date,
        )
        values = [r.det_omega if what == "omega" else r.det_post for r in recs]
        return [r.date for r in recs], np.array(values)

    def posteriors(self, pipeline: str) -> dict[dt.date, np.ndarray]:
        """The posterior of the better correlation model per day."""
        return {
            r.date: r.sigma_post
            for r in self.records
            if r.pipeline == pipeline and r.kind == "best"
        }

    def coefficients(self, pipeline: str) -> dict[str, np.ndarray]:
        wins = sorted((w for w in self.windows if w.pipeline == pipeline),
                      key=lambda w: w.anchor_date)
        return {
            "dcc": np.array([[w.dcc_a, w.dcc_b] for w in wins]).reshape(-1, 2),
            "adcc": np.array([[w.adcc_a, w.adcc_b, w.adcc_g] for w in wins]).reshape(-1, 3),
        }


def _fit_window_pipeline(q_window: np.ndarray):
    """Lag, rank, ECM fit, one GARCH stage and both correlation fits for one window."""
    # a lag that left the variance fits under their minimum would fail the window
    lag = vecm_mod.select_lag(
        q_window, max_lag=min(vecm_mod.MAX_LAG, q_window.shape[0] - dcc_mod.GARCH_MIN_OBS))
    fit = vecm_mod.fit_vecm(q_window, lag)
    garch = dcc_mod.fit_garch_stage(fit.residuals)
    dcc_fit = dcc_mod.fit_dcc(fit.residuals, "dcc", garch=garch)
    adcc_fit = dcc_mod.fit_dcc(fit.residuals, "adcc", garch=garch)
    return fit, dcc_fit, adcc_fit


def _run_anchor(
    series: PortfolioSeries,
    t: int,
    window_days: int,
    stride: int,
    tau: float,
) -> tuple[list[ForecastRecord], list[WindowRecord]]:
    """Fit at anchor t and forecast days t+1 .. t+stride (clipped)."""
    records: list[ForecastRecord] = []
    windows: list[WindowRecord] = []
    lo = t - window_days + 1
    last_day = min(t + stride - 1, series.n_days - 2)

    per_pipeline = {}
    for pipeline in PIPELINES:
        q_src = series.q if pipeline == "regular" else series.q_adj
        fit, dcc_fit, adcc_fit = _fit_window_pipeline(q_src[lo:t + 1])
        best_kind = dcc_mod.select_best(dcc_fit, adcc_fit).kind
        per_pipeline[pipeline] = (q_src, fit, {"dcc": dcc_fit, "adcc": adcc_fit}, best_kind)
        windows.append(WindowRecord(
            anchor_date=series.dates[t],
            pipeline=pipeline,
            lag=fit.p,
            rank=fit.coint_rank,
            aic=fit.aic,
            vecm_loglik=fit.loglik,
            ridge=fit.ridge_applied,
            dcc_a=dcc_fit.a, dcc_b=dcc_fit.b,
            dcc_loglik=dcc_fit.loglik, dcc_fallback=dcc_fit.fallback,
            adcc_a=adcc_fit.a, adcc_b=adcc_fit.b, adcc_g=adcc_fit.g,
            adcc_loglik=adcc_fit.loglik, adcc_fallback=adcc_fit.fallback,
            best_kind=best_kind,
        ))

    for d in range(t, last_day + 1):
        if d > t:
            for pipeline in PIPELINES:
                q_src, fit, states, _ = per_pipeline[pipeline]
                resid = vecm_mod.fitted_residual(fit, q_src[d - fit.p:d], q_src[d])
                for kind in ("dcc", "adcc"):
                    states[kind] = dcc_mod.advance(states[kind], resid)
        day_omegas = {}
        for pipeline in PIPELINES:
            q_src, fit, states, best_kind = per_pipeline[pipeline]
            prior = series.sigma_tt[d] if pipeline == "regular" else series.sigma_tt_adj[d]
            day_records = {}
            for kind in ("dcc", "adcc"):
                state = states[kind]
                omega_hat = dcc_mod.forecast_covariance(state)
                sigma_post = posterior_covariance(prior, omega_hat, tau)
                if pipeline == "adjusted":
                    scaled = dcc_mod.scale_covariance_by_jump(
                        day_omegas[("regular", kind)], series.jump[d]
                    )
                    det_scaled = float(np.linalg.det(scaled))
                else:
                    det_scaled = float("nan")
                day_omegas[(pipeline, kind)] = omega_hat
                day_records[kind] = ForecastRecord(
                    date=series.dates[d + 1],
                    pipeline=pipeline,
                    kind=kind,
                    omega_hat=omega_hat,
                    sigma_post=sigma_post,
                    det_prior=float(np.linalg.det(prior)),
                    det_omega=float(np.linalg.det(omega_hat)),
                    det_post=float(np.linalg.det(sigma_post)),
                    det_omega_scaled=det_scaled,
                    a=state.a, b=state.b, g=state.g,
                    loglik=state.loglik,
                    fallback=state.fallback,
                    lag=fit.p,
                    rank=fit.coint_rank,
                )
            chosen = day_records[best_kind]
            records.extend(day_records.values())
            records.append(dataclasses.replace(chosen, kind="best"))
    return records, windows


def run_forecasts(
    series: PortfolioSeries,
    window_days: int,
    tau: float = 1.0,
    stride: int = 1,
) -> ForecastSet:
    """Produce one ForecastRecord per out-of-sample day, pipeline, and kind.

    A failed anchor drops its days from both pipelines (keeping the two
    sides aligned) and is logged on the result.  Only domain errors
    (ValueError and its subclasses: too-short windows, singular matrices,
    degenerate days, LinAlgError) fail an anchor; any other exception is a
    bug and propagates.  The anchors run in date order with BLAS on one
    thread.

    Hard limits are checked before the first fit: no more assets than the
    trace test has critical values for, a window of at least 10 days per
    asset, and enough days that the error-correction fit leaves the
    variance fits their minimum number of residuals.
    """
    n = series.n_days
    n_assets = len(series.symbols)
    max_assets = vecm_mod.TRACE_CRIT_95.shape[0]
    if n_assets > max_assets:
        raise ValueError(f"{n_assets} assets exceed the trace test's tabulated {max_assets}")
    if window_days < 10 * n_assets:
        raise ValueError(f"window of {window_days} days is below 10 days per asset "
                         f"({10 * n_assets} for {n_assets} assets)")
    if window_days - 1 < dcc_mod.GARCH_MIN_OBS:
        raise ValueError(f"window of {window_days} days leaves at most {window_days - 1} "
                         f"residuals; the variance fits need {dcc_mod.GARCH_MIN_OBS}")
    if window_days >= n:
        raise ValueError(f"window of {window_days} needs more than {n} days of data")
    if stride < 1:
        raise ValueError("stride must be >= 1")

    out = ForecastSet()
    with single_blas_thread():
        for t in range(window_days - 1, n - 1, stride):
            try:
                records, windows = _run_anchor(series, t, window_days, stride, tau)
            except ValueError as exc:
                logger.warning("forecast anchor %s failed: %s", series.dates[t], exc)
                out.failures.append((series.dates[t], str(exc)))
                continue
            out.records.extend(records)
            out.windows.extend(windows)
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

FORECAST_HEADER = [
    "date", "pipeline", "kind", "det_prior", "det_omega", "det_post",
    "det_omega_scaled", "a", "b", "g", "loglik", "fallback", "lag", "rank",
]
WINDOW_HEADER = [
    "anchor_date", "pipeline", "lag", "rank", "aic", "vecm_loglik", "ridge",
    "dcc_a", "dcc_b", "dcc_loglik", "dcc_fallback",
    "adcc_a", "adcc_b", "adcc_g", "adcc_loglik", "adcc_fallback", "best_kind",
]


def write_forecasts_csv(path, fset: ForecastSet) -> None:
    rows = sorted(fset.records, key=lambda r: (r.date, r.pipeline, r.kind))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FORECAST_HEADER)
        for r in rows:
            writer.writerow([
                r.date.isoformat(), r.pipeline, r.kind,
                repr(r.det_prior), repr(r.det_omega), repr(r.det_post),
                repr(r.det_omega_scaled),
                repr(r.a), repr(r.b), repr(r.g), repr(r.loglik),
                int(r.fallback), r.lag, r.rank,
            ])


def write_windows_csv(path, fset: ForecastSet) -> None:
    rows = sorted(fset.windows, key=lambda w: (w.anchor_date, w.pipeline))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(WINDOW_HEADER)
        for w in rows:
            writer.writerow([
                w.anchor_date.isoformat(), w.pipeline, w.lag, w.rank,
                repr(w.aic), repr(w.vecm_loglik), int(w.ridge),
                repr(w.dcc_a), repr(w.dcc_b), repr(w.dcc_loglik), int(w.dcc_fallback),
                repr(w.adcc_a), repr(w.adcc_b), repr(w.adcc_g),
                repr(w.adcc_loglik), int(w.adcc_fallback), w.best_kind,
            ])


def write_posteriors_csv(path, fset: ForecastSet, pipeline: str) -> None:
    """The "best" posterior covariance matrices in long form for the backtest stage."""
    posteriors = fset.posteriors(pipeline)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "row", "col", "value"])
        for date in sorted(posteriors):
            mat = posteriors[date]
            for i in range(mat.shape[0]):
                for j in range(mat.shape[1]):
                    writer.writerow([date.isoformat(), i, j, repr(float(mat[i, j]))])


def read_posteriors_csv(path) -> dict[dt.date, np.ndarray]:
    cells: dict[dt.date, dict[tuple[int, int], float]] = {}
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            date = dt.date.fromisoformat(row[0])
            cells.setdefault(date, {})[(int(row[1]), int(row[2]))] = float(row[3])
    out = {}
    for date, vals in cells.items():
        n = max(i for i, _ in vals) + 1
        mat = np.empty((n, n))
        for (i, j), v in vals.items():
            mat[i, j] = v
        out[date] = mat
    return out
