"""Command-line pipeline: ingest -> liquidity -> forecast -> backtest -> report.

Runs are driven by a JSON config file; flags override config keys.  Every
stage persists CSV intermediates under the output directory together with a
manifest keyed by the hash of the run configuration, so stages can be
skipped or resumed and identical (config, seed) pairs reproduce identical
output trees.  The liquidity stage also writes the daily series as one exact
binary file, ``series.npz``, which every later stage loads instead of
rebuilding it.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import json
import logging
import os
from dataclasses import dataclass

import click
import numpy as np

from . import pipeline, portfolio, stats
from .condsvd import conditional_svd
from .liquidity import (
    write_snapshot_matrices,
    write_snapshots_csv,
)
from .marketdata import (
    AssetClass,
    CalendarSpec,
    CsvParseError,
    ingest_minute_csv,
    ingest_tick_csv,
    write_grids_csv,
)
from .synthetic import write_synthetic_csv

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    data_csv: str
    out_dir: str
    data_kind: str = "minute"       # "minute" | "tick"
    minutes_per_day: int = 1440
    day_boundary: str = "00:00"
    asset_class: str = "crypto"
    window_days: int = 365
    refit_stride: int = 1
    tau: float = 1.0
    variants: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    seed: int = 7
    periods_per_year: float | None = None
    histogram_bins: int = 50
    export_matrices: bool = False

    def validate(self) -> None:
        if not 0.01 <= self.tau <= 10.0:
            raise ValueError(f"tau must be in [0.01, 10], got {self.tau}")
        if self.window_days < 10:
            raise ValueError("window_days must be at least 10")
        if self.refit_stride < 1:
            raise ValueError("refit_stride must be >= 1")
        bad = set(self.variants) - set(range(1, 7))
        if bad:
            raise ValueError(f"unknown variants: {sorted(bad)}")
        if self.asset_class not in ("crypto", "equity"):
            raise ValueError("asset_class must be 'crypto' or 'equity'")
        if self.data_kind not in ("minute", "tick"):
            raise ValueError("data_kind must be 'minute' or 'tick'")

    def calendar(self) -> CalendarSpec:
        hour, minute = (int(x) for x in self.day_boundary.split(":"))
        return CalendarSpec(
            minutes_per_day=self.minutes_per_day,
            day_boundary=dt.time(hour, minute),
            asset_class=AssetClass(self.asset_class),
        )

    def annualization(self) -> float:
        if self.periods_per_year is not None:
            return self.periods_per_year
        return float(self.calendar().periods_per_year())

    def config_hash(self) -> str:
        payload = dataclasses.asdict(self)
        # identity of the run excludes where it is written
        payload.pop("out_dir")
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_mapping(raw, **overrides)

    @classmethod
    def from_mapping(cls, raw: dict, **overrides) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(raw)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        if "variants" in merged:
            merged["variants"] = tuple(int(v) for v in merged["variants"])
        cfg = cls(**merged)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def load_manifest(out_dir: str, cfg_hash: str) -> dict:
    """The manifest of cfg_hash's run in out_dir, empty if there is none.

    A manifest of another config is replaced on disk by the empty one at
    once, before this config overwrites any of the files it lists, so an
    interrupted run can never leave that config's stages marked complete
    over this config's files.
    """
    path = _manifest_path(out_dir)
    empty = {"config_hash": cfg_hash, "stages": {}}
    if not os.path.exists(path):
        return empty
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("config_hash") == cfg_hash:
        return manifest
    save_manifest(out_dir, empty)
    return empty


def _write_replacing(path: str, write) -> None:
    """Call write on a temporary file next to path, then move it onto path,
    so that path is never seen half-written."""
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_manifest(out_dir: str, manifest: dict) -> None:
    def write(path):
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    _write_replacing(_manifest_path(out_dir), write)


def stage_complete(manifest: dict, out_dir: str, stage: str) -> bool:
    files = manifest["stages"].get(stage)
    if not files:
        return False
    return all(os.path.exists(os.path.join(out_dir, f)) for f in files)


def mark_stage(manifest: dict, out_dir: str, stage: str, files: list[str]) -> None:
    manifest["stages"][stage] = sorted(files)
    save_manifest(out_dir, manifest)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _ensure_grids(cfg: RunConfig):
    """Build the grids from the raw CSV and write the grids.csv dump, plus
    rejected_days.csv when a day was rejected."""
    if not os.path.exists(cfg.data_csv):
        raise click.ClickException(f"data file not found: {cfg.data_csv}")
    ingest = ingest_tick_csv if cfg.data_kind == "tick" else ingest_minute_csv
    try:
        result = ingest(cfg.data_csv, cfg.calendar())
    except CsvParseError as exc:
        raise click.ClickException(f"{cfg.data_csv}: {exc}") from exc
    if not result.grids:
        raise click.ClickException(f"{cfg.data_csv}: no complete asset-days found")
    write_grids_csv(os.path.join(cfg.out_dir, "grids.csv"), result.grids)
    if result.rejected:
        rej_path = os.path.join(cfg.out_dir, "rejected_days.csv")
        stats.write_csv_table(
            rej_path,
            ["symbol", "date", "missing_minutes", "total_minutes", "reason"],
            [[r.symbol, r.date.isoformat(), r.missing_minutes, r.total_minutes, r.reason]
             for r in result.rejected],
        )
        logger.warning("%d asset-days rejected; see %s", len(result.rejected), rej_path)
    return result.grids


def _series_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out_dir, "series.npz")


def _liquidity_complete(cfg: RunConfig, manifest: dict) -> bool:
    # a stage written before series.npz existed is rebuilt
    return ("series.npz" in manifest["stages"].get("liquidity", ())
            and stage_complete(manifest, cfg.out_dir, "liquidity"))


def _build_series(cfg: RunConfig, manifest: dict) -> pipeline.PortfolioSeries:
    """The series of cfg's completed liquidity stage, else one built from
    the raw CSV.  manifest must be the one load_manifest returned for cfg."""
    if _liquidity_complete(cfg, manifest):
        return pipeline.read_series_npz(_series_path(cfg))
    snapshots = pipeline.snapshots_from_grids(_ensure_grids(cfg))
    return pipeline.assemble_series(snapshots)


def run_liquidity(cfg: RunConfig) -> pipeline.PortfolioSeries:
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = load_manifest(cfg.out_dir, cfg.config_hash())
    if _liquidity_complete(cfg, manifest):
        return pipeline.read_series_npz(_series_path(cfg))
    snapshots = pipeline.snapshots_from_grids(_ensure_grids(cfg))
    series = pipeline.assemble_series(snapshots)

    files = ["grids.csv", "snapshots.csv", "asset_days.csv", "table1.csv", "table1.md",
             "series.npz"]
    write_snapshots_csv(os.path.join(cfg.out_dir, "snapshots.csv"), snapshots)

    day_rows = []
    for snap in snapshots:
        for asset in snap.asset_days:
            day_rows.append([
                asset.date.isoformat(), asset.symbol,
                repr(asset.daily_return), repr(asset.daily_liq_return),
                repr(asset.daily_vol), repr(asset.daily_liq_vol),
                int(asset.degenerate),
            ])
    stats.write_csv_table(
        os.path.join(cfg.out_dir, "asset_days.csv"),
        ["date", "symbol", "ret", "ret_adj", "vol", "vol_adj", "degenerate"],
        day_rows,
    )

    capped = {
        "liquidity jump": np.array([s.det_jump for s in snapshots]),
        "liquidity diffusion": np.array([s.det_diff for s in snapshots]),
        "liquidity composite": np.array([s.det_comp for s in snapshots]),
    }
    desc = {name: stats.descriptive_table(vals) for name, vals in capped.items()}
    headers, body = stats.descriptive_rows_table(desc)
    stats.write_csv_table(os.path.join(cfg.out_dir, "table1.csv"), headers, body)
    with open(os.path.join(cfg.out_dir, "table1.md"), "w") as fh:
        fh.write("# Portfolio liquidity measures (capped at 10)\n\n")
        fh.write(stats.render_markdown_table(headers, body))

    for name, vals in capped.items():
        tag = name.split()[-1]
        counts, edges = stats.histogram(vals, cfg.histogram_bins)
        stats.write_histogram_csv(os.path.join(cfg.out_dir, f"hist_{tag}.csv"), counts, edges)
        stats.write_histogram_svg(
            os.path.join(cfg.out_dir, f"hist_{tag}.svg"), counts, edges, title=name
        )
        files += [f"hist_{tag}.csv", f"hist_{tag}.svg"]

    if cfg.export_matrices:
        mat_dir = os.path.join(cfg.out_dir, "matrices")
        os.makedirs(mat_dir, exist_ok=True)
        for snap in snapshots:
            write_snapshot_matrices(mat_dir, snap)

    _write_replacing(_series_path(cfg), lambda path: pipeline.write_series_npz(path, series))
    mark_stage(manifest, cfg.out_dir, "liquidity", files)
    return series


def run_forecast(cfg: RunConfig,
                 series: pipeline.PortfolioSeries | None = None) -> pipeline.ForecastSet | None:
    """Fit the rolling chain and write forecast tables.

    series, when given, is the series the caller already built for cfg; it
    spares a second ingest when no liquidity stage has completed yet.
    Returns the in-memory forecast set (None when the stage was already
    complete and the caller only needs the persisted files).
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = load_manifest(cfg.out_dir, cfg.config_hash())
    if stage_complete(manifest, cfg.out_dir, "forecast"):
        return None
    if series is None:
        series = _build_series(cfg, manifest)
    fset = pipeline.run_forecasts(
        series,
        window_days=cfg.window_days,
        tau=cfg.tau,
        stride=cfg.refit_stride,
    )
    if not fset.records:
        raise click.ClickException("forecast stage produced no records; check window_days")

    pipeline.write_forecasts_csv(os.path.join(cfg.out_dir, "forecasts.csv"), fset)
    pipeline.write_windows_csv(os.path.join(cfg.out_dir, "windows.csv"), fset)
    pipeline.write_posteriors_csv(
        os.path.join(cfg.out_dir, "posteriors_regular.csv"), fset, "regular")
    pipeline.write_posteriors_csv(
        os.path.join(cfg.out_dir, "posteriors_adjusted.csv"), fset, "adjusted")

    files = [
        "forecasts.csv", "windows.csv",
        "posteriors_regular.csv", "posteriors_adjusted.csv",
        "table2.csv", "table2.md", "table3.csv", "table3.md",
    ]
    _write_table2(cfg, fset)
    _write_table3(cfg, fset)
    mark_stage(manifest, cfg.out_dir, "forecast", files)
    return fset


def _write_table2(cfg: RunConfig, fset: pipeline.ForecastSet) -> None:
    kind_labels = {"dcc": "dcc", "adcc": "adcc", "best": "dcc_best"}
    panels = []
    for what, label in (("omega", "conditional covariance"), ("post", "posterior covariance")):
        regular, adjusted = {}, {}
        for kind, name in kind_labels.items():
            _, regular[name] = fset.dets("regular", kind, what)
            _, adjusted[name] = fset.dets("adjusted", kind, what)
        rows = stats.determinant_tests(regular, adjusted, kinds=tuple(kind_labels.values()))
        panels.append((label, rows))
    headers = ["panel"] + stats.comparison_rows_table(panels[0][1])[0]
    body = []
    for label, rows in panels:
        _, rendered = stats.comparison_rows_table(rows)
        body += [[label] + r for r in rendered]
    stats.write_csv_table(os.path.join(cfg.out_dir, "table2.csv"), headers, body)
    with open(os.path.join(cfg.out_dir, "table2.md"), "w") as fh:
        fh.write("# One-sided tests: determinant, regular minus adjusted\n\n")
        fh.write(stats.render_markdown_table(headers, body))


def _write_table3(cfg: RunConfig, fset: pipeline.ForecastSet) -> None:
    rows = stats.coefficient_tests(
        fset.coefficients("regular"), fset.coefficients("adjusted")
    )
    headers, body = stats.comparison_rows_table(rows)
    stats.write_csv_table(os.path.join(cfg.out_dir, "table3.csv"), headers, body)
    with open(os.path.join(cfg.out_dir, "table3.md"), "w") as fh:
        fh.write("# Two-sided tests: dynamics coefficients, regular vs adjusted\n\n")
        fh.write(stats.render_markdown_table(headers, body))


def run_backtest_stage(cfg: RunConfig) -> list[portfolio.BacktestResult]:
    os.makedirs(cfg.out_dir, exist_ok=True)
    manifest = load_manifest(cfg.out_dir, cfg.config_hash())
    series = _build_series(cfg, manifest)

    needs_chain = bool(set(cfg.variants) & {5, 6})
    posterior_regular = posterior_adjusted = None
    if needs_chain:
        if not stage_complete(manifest, cfg.out_dir, "forecast"):
            run_forecast(cfg, series)
            manifest = load_manifest(cfg.out_dir, cfg.config_hash())
        posterior_regular = pipeline.read_posteriors_csv(
            os.path.join(cfg.out_dir, "posteriors_regular.csv"))
        posterior_adjusted = pipeline.read_posteriors_csv(
            os.path.join(cfg.out_dir, "posteriors_adjusted.csv"))

    results = portfolio.run_backtest(
        series.dates, series.q, series.q_adj, series.sigma_tt, series.sigma_tt_adj,
        cfg.variants, cfg.window_days, cfg.annualization(),
        posterior_regular=posterior_regular,
        posterior_adjusted=posterior_adjusted,
    )

    files = []
    for res in results:
        name = f"variant_{res.variant.id}.csv"
        files.append(name)
        headers = ["date"] + [f"w_{s}" for s in series.symbols] + ["cash", "realized_return"]
        rows = []
        for i, date in enumerate(res.dates):
            rows.append(
                [date.isoformat()]
                + [repr(float(w)) for w in res.weights[i]]
                + [repr(float(res.realized[i]))]
            )
        stats.write_csv_table(os.path.join(cfg.out_dir, name), headers, rows)

    headers = ["variant", "description", "return_in_mv", "covariance_in_mv",
               "mean_daily", "std_daily", "annualized_sharpe"]
    body = portfolio.performance_rows(results)
    stats.write_csv_table(os.path.join(cfg.out_dir, "table4.csv"), headers, body)
    with open(os.path.join(cfg.out_dir, "table4.md"), "w") as fh:
        fh.write("# Portfolio performance comparison\n\n")
        fh.write(stats.render_markdown_table(headers, body))
    files += ["table4.csv", "table4.md"]
    mark_stage(manifest, cfg.out_dir, "backtest", files)
    return results


def run_report(cfg: RunConfig) -> str:
    parts = ["# Run report\n"]
    for name in ("table1.md", "table2.md", "table3.md", "table4.md"):
        path = os.path.join(cfg.out_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                parts.append(fh.read())
    report = "\n".join(parts)
    out_path = os.path.join(cfg.out_dir, "report.md")
    with open(out_path, "w") as fh:
        fh.write(report)
    manifest = load_manifest(cfg.out_dir, cfg.config_hash())
    mark_stage(manifest, cfg.out_dir, "report", ["report.md"])
    return out_path


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _common_options(fn):
    options = [
        click.option("--config", "-c", "config_path", type=click.Path(), default=None,
                     help="JSON config file; flags override its keys."),
        click.option("--data", "data_csv", type=click.Path(), default=None),
        click.option("--out", "out_dir", type=click.Path(), default=None),
        click.option("--variants", default=None, help="comma-separated variant ids"),
        click.option("--window", "window_days", type=int, default=None),
        click.option("--stride", "refit_stride", type=int, default=None),
        click.option("--tau", type=float, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--calendar", "asset_class",
                     type=click.Choice(["crypto", "equity"]), default=None),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


def _build_config(config_path, **overrides) -> RunConfig:
    if overrides.get("variants") is not None:
        overrides["variants"] = tuple(
            int(v) for v in str(overrides["variants"]).split(",") if v
        )
    try:
        if config_path:
            return RunConfig.from_file(config_path, **overrides)
        clean = {k: v for k, v in overrides.items() if v is not None}
        if "data_csv" not in clean or "out_dir" not in clean:
            raise ValueError("--data and --out are required without a config file")
        return RunConfig.from_mapping(clean)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(str(exc)) from exc


@click.group()
def main():
    """Liquidity-adjusted multivariate volatility pipeline."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


@main.command("liquidity")
@_common_options
def cmd_liquidity(config_path, **overrides):
    """Build per-day liquidity snapshots, the descriptive table, and histograms."""
    cfg = _build_config(config_path, **overrides)
    series = run_liquidity(cfg)
    click.echo(f"liquidity stage complete: {series.n_days} days -> {cfg.out_dir}")


@main.command("forecast")
@_common_options
def cmd_forecast(config_path, **overrides):
    """Run the rolling forecasting chain on both pipelines."""
    cfg = _build_config(config_path, **overrides)
    run_forecast(cfg)
    click.echo(f"forecast stage complete -> {cfg.out_dir}")


@main.command("backtest")
@_common_options
def cmd_backtest(config_path, **overrides):
    """Backtest the selected portfolio variants."""
    cfg = _build_config(config_path, **overrides)
    results = run_backtest_stage(cfg)
    for res in results:
        sharpe = "degenerate" if res.degenerate else f"{res.sharpe:.2f}"
        click.echo(f"variant {res.variant.id} ({res.variant.description}): SR_a = {sharpe}")


@main.command("report")
@_common_options
def cmd_report(config_path, **overrides):
    """Assemble the markdown report from persisted tables."""
    cfg = _build_config(config_path, **overrides)
    click.echo(run_report(cfg))


@main.command("condsvd-debug")
@click.argument("matrix_a", type=click.Path(exists=True))
@click.argument("matrix_b", type=click.Path(exists=True))
@click.option("--floor", type=float, default=None)
def cmd_condsvd_debug(matrix_a, matrix_b, floor):
    """Solve A = H B H' for two dense CSV matrices and print diagnostics."""
    a = np.loadtxt(matrix_a, delimiter=",", ndmin=2)
    b = np.loadtxt(matrix_b, delimiter=",", ndmin=2)
    try:
        res = conditional_svd(a, b, floor=floor)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo("H =")
    for row in res.h:
        click.echo("  " + "  ".join(f"{v: .10e}" for v in row))
    click.echo(f"residual = {res.residual:.3e}")
    click.echo(f"regularized = {res.regularized} (floor {res.floor_used:.3e})")


@main.command("synth")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--assets", type=int, default=8)
@click.option("--days", type=int, default=600)
@click.option("--minutes", type=int, default=48)
@click.option("--seed", type=int, default=7)
def cmd_synth(out_path, assets, days, minutes, seed):
    """Write the bundled synthetic minute-bar dataset."""
    write_synthetic_csv(out_path, n_assets=assets, n_days=days,
                        minutes_per_day=minutes, seed=seed)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
