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

Consecutive windows share all but a stride of their days, so the anchors
are cut into fixed blocks of BLOCK_ANCHORS, and within a block each
pipeline's correlation fits start from that pipeline's optima at the
previous anchor (the block's first anchor, and the anchor after a failed
one, solve from the fixed starts).  Each (block, pipeline) chain is one
task for a forked worker process, one per usable CPU; the records are then
assembled per anchor from both pipelines' fits.  The blocks depend only on
the anchors, so every result is the same for any number of workers.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import logging
import zipfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dcc as dcc_mod
from . import stats
from . import vecm as vecm_mod
from . import workers
from .bayes import posterior_covariance
from .linalg import single_blas_thread
from .liquidity import LiquiditySnapshot, build_snapshot
from .marketdata import MinuteGrid, group_by_day

logger = logging.getLogger(__name__)

PIPELINES = ("regular", "adjusted")

# Anchors per warm-start chain: the first anchor of each block of this many
# consecutive anchors fits cold.
BLOCK_ANCHORS = 16


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


_SERIES_ARRAYS = ("q", "q_adj", "sigma_tt", "sigma_tt_adj", "jump", "diff", "comp")


def write_series_npz(path, series: PortfolioSeries) -> None:
    """Write series as an ``.npz`` that read_series_npz reads back bitwise.

    Dates are stored as proleptic ordinals and symbols as a ``str`` array.
    Every member carries an explicit fixed timestamp, not whatever zipfile
    would stamp, so the file's bytes depend only on the series.
    """
    members = {
        "dates": np.array([d.toordinal() for d in series.dates], dtype=np.int64),
        "symbols": np.array(series.symbols, dtype=str),
        **{name: getattr(series, name) for name in _SERIES_ARRAYS},
    }
    with zipfile.ZipFile(path, "w") as zf:
        for name, values in members.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            with zf.open(info, "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, values, allow_pickle=False)


def read_series_npz(path) -> PortfolioSeries:
    with np.load(path, allow_pickle=False) as npz:
        return PortfolioSeries(
            dates=tuple(dt.date.fromordinal(d) for d in npz["dates"].tolist()),
            symbols=tuple(npz["symbols"].tolist()),
            **{name: npz[name] for name in _SERIES_ARRAYS},
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


def _fit_window_pipeline(q_window: np.ndarray, warm: tuple | None = None):
    """Lag, rank, ECM fit, one GARCH stage and both correlation fits for one
    window; warm, when given, is the (dcc, adcc) pair whose optima start the
    correlation fits."""
    # a lag that left the variance fits under their minimum would fail the window
    lag = vecm_mod.select_lag(
        q_window, max_lag=min(vecm_mod.MAX_LAG, q_window.shape[0] - dcc_mod.GARCH_MIN_OBS))
    fit = vecm_mod.fit_vecm(q_window, lag)
    garch = dcc_mod.fit_garch_stage(fit.residuals)
    warm_dcc, warm_adcc = warm or (None, None)
    dcc_fit = dcc_mod.fit_dcc(fit.residuals, "dcc", garch=garch, warm=warm_dcc)
    adcc_fit = dcc_mod.fit_dcc(fit.residuals, "adcc", garch=garch, nested=dcc_fit, warm=warm_adcc)
    return fit, dcc_fit, adcc_fit


def _fit_side(series: PortfolioSeries, pipeline: str, t: int, window_days: int,
              warm: tuple | None):
    """One pipeline's (VecmFit, DccFit, DccFit) at anchor t, warm-started
    from warm as in _fit_window_pipeline.  The VECM residuals, which no
    record needs, are dropped before the fits leave a worker."""
    q_src = series.q if pipeline == "regular" else series.q_adj
    fit, dcc_fit, adcc_fit = _fit_window_pipeline(q_src[t - window_days + 1:t + 1], warm)
    stripped = dataclasses.replace(fit, residuals=np.empty((0, fit.residuals.shape[1])))
    return stripped, dcc_fit, adcc_fit


def _fit_chain(series: PortfolioSeries, pipeline: str, anchors: range, window_days: int) -> list:
    """_fit_side's fits at each of a block's anchors, or the message of the
    domain error that failed the anchor.

    The block's first anchor, and an anchor after a failed one, fit cold;
    every other anchor warm-starts its correlation fits from the previous
    anchor's.  A message survives the trip back from a worker whether or
    not its exception would pickle.
    """
    out: list = []
    warm = None
    for t in anchors:
        try:
            fits = _fit_side(series, pipeline, t, window_days, warm)
        except ValueError as exc:
            out.append(str(exc))
            warm = None
            continue
        out.append(fits)
        warm = fits[1:]
    return out


def _run_anchor(
    series: PortfolioSeries,
    t: int,
    stride: int,
    tau: float,
    fits: tuple,
) -> tuple[list[ForecastRecord], list[WindowRecord]]:
    """Forecast days t+1 .. t+stride (clipped) from the fits at anchor t,
    one (VecmFit, DccFit, DccFit) per pipeline in PIPELINES order."""
    last_day = min(t + stride - 1, series.n_days - 2)

    sides = []
    windows: list[WindowRecord] = []
    for pipeline, (fit, dcc_fit, adcc_fit) in zip(PIPELINES, fits):
        q_src, priors = ((series.q, series.sigma_tt) if pipeline == "regular"
                         else (series.q_adj, series.sigma_tt_adj))
        best_kind = dcc_mod.select_best(dcc_fit, adcc_fit).kind
        sides.append((pipeline, q_src, priors, fit, {"dcc": dcc_fit, "adcc": adcc_fit}, best_kind))
        windows.append(WindowRecord(
            anchor_date=series.dates[t], pipeline=pipeline,
            lag=fit.p, rank=fit.coint_rank,
            aic=fit.aic,
            vecm_loglik=fit.loglik,
            ridge=fit.ridge_applied,
            dcc_a=dcc_fit.a, dcc_b=dcc_fit.b,
            dcc_loglik=dcc_fit.loglik, dcc_fallback=dcc_fit.fallback,
            adcc_a=adcc_fit.a, adcc_b=adcc_fit.b, adcc_g=adcc_fit.g,
            adcc_loglik=adcc_fit.loglik, adcc_fallback=adcc_fit.fallback,
            best_kind=best_kind,
        ))

    records: list[ForecastRecord] = []
    for d in range(t, last_day + 1):
        regular_omegas = {}
        for pipeline, q_src, priors, fit, states, best_kind in sides:
            if d > t:
                resid = vecm_mod.fitted_residual(fit, q_src[d - fit.p:d], q_src[d])
                for kind in states:
                    states[kind] = dcc_mod.advance(states[kind], resid)
            prior = priors[d]
            det_prior = float(np.linalg.det(prior))
            day_records = {}
            for kind, state in states.items():
                omega_hat = dcc_mod.forecast_covariance(state)
                sigma_post = posterior_covariance(prior, omega_hat, tau)
                if pipeline == "adjusted":
                    scaled = dcc_mod.scale_covariance_by_jump(regular_omegas[kind], series.jump[d])
                    det_scaled = float(np.linalg.det(scaled))
                else:
                    regular_omegas[kind] = omega_hat
                    det_scaled = float("nan")
                day_records[kind] = ForecastRecord(
                    date=series.dates[d + 1], pipeline=pipeline, kind=kind,
                    omega_hat=omega_hat, sigma_post=sigma_post,
                    det_prior=det_prior,
                    det_omega=float(np.linalg.det(omega_hat)),
                    det_post=float(np.linalg.det(sigma_post)),
                    det_omega_scaled=det_scaled,
                    a=state.a, b=state.b, g=state.g,
                    loglik=state.loglik, fallback=state.fallback,
                    lag=fit.p, rank=fit.coint_rank,
                )
            records.extend(day_records.values())
            records.append(dataclasses.replace(day_records[best_kind], kind="best"))
    return records, windows


def run_forecasts(
    series: PortfolioSeries,
    window_days: int,
    tau: float = 1.0,
    stride: int = 1,
) -> ForecastSet:
    """Produce one ForecastRecord per out-of-sample day, pipeline, and kind.

    A failed anchor drops its days from both pipelines (keeping the two
    sides aligned) and is logged on the result with the regular side's
    error if that side failed, else the adjusted side's.  Only domain
    errors (ValueError and its subclasses: too-short windows, singular
    matrices, degenerate days, LinAlgError) fail an anchor; any other
    exception is a bug and propagates.  The anchors are fitted with BLAS
    on one thread, in worker processes where more than one CPU is usable
    (see _fit_anchors), and collected in date order; the result is the
    same for any number of workers.

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

    anchors = range(window_days - 1, n - 1, stride)
    out = ForecastSet()
    with single_blas_thread():
        for t, sides in zip(anchors, _fit_anchors(series, anchors, window_days)):
            failed = next((side for side in sides if isinstance(side, str)), None)
            if failed is None:
                try:
                    records, windows = _run_anchor(series, t, stride, tau, sides)
                except ValueError as exc:
                    failed = str(exc)
            if failed is not None:
                logger.warning("forecast anchor %s failed: %s", series.dates[t], failed)
                out.failures.append((series.dates[t], failed))
                continue
            out.records.extend(records)
            out.windows.extend(windows)
    return out


def _fit_anchors(series, anchors, window_days) -> list[tuple]:
    """The fits of every anchor, in anchor order: per anchor, one _fit_chain
    result per pipeline, in PIPELINES order.

    The anchors are cut into fixed blocks of BLOCK_ANCHORS, so that which
    fit warm-starts from which depends only on the anchors, and each
    (block, pipeline) chain is one task of workers.task_results, whose
    forked workers inherit the series and the caller's BLAS pin.  Every
    worker has exited when this returns or raises.
    """
    tasks = [(pipeline, anchors[i:i + BLOCK_ANCHORS], window_days)
             for i in range(0, len(anchors), BLOCK_ANCHORS) for pipeline in PIPELINES]
    with workers.task_results(_fit_chain, tasks, shared=(series,)) as results:
        chains = list(results)
    width = len(PIPELINES)
    blocks = [chains[i:i + width] for i in range(0, len(chains), width)]
    return [sides for block in blocks for sides in zip(*block)]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _write_records_csv(path, cls, records, omit=()) -> None:
    """One row per record, one column per field of cls not in omit."""
    header = [f.name for f in dataclasses.fields(cls) if f.name not in omit]
    stats.write_csv_table(path, header, ([getattr(r, name) for name in header] for r in records))


def write_forecasts_csv(path, fset: ForecastSet) -> None:
    _write_records_csv(path, ForecastRecord,
                       sorted(fset.records, key=lambda r: (r.date, r.pipeline, r.kind)),
                       omit=("omega_hat", "sigma_post"))


def write_windows_csv(path, fset: ForecastSet) -> None:
    _write_records_csv(path, WindowRecord,
                       sorted(fset.windows, key=lambda w: (w.anchor_date, w.pipeline)))


def write_posteriors_csv(path, fset: ForecastSet, pipeline: str) -> None:
    """The "best" posterior covariance matrices in long form for the backtest stage."""
    posteriors = fset.posteriors(pipeline)
    stats.write_csv_table(path, ["date", "row", "col", "value"], (
        [date, i, j, value]
        for date in sorted(posteriors)
        for i, row in enumerate(posteriors[date].tolist())
        for j, value in enumerate(row)
    ))


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
