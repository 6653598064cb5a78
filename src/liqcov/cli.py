"""Command-line pipeline: ingest -> liquidity -> forecast -> backtest -> report.

Runs are driven by a JSON config file; flags override config keys.  The
data file's header row picks the minute-bar or tick reader, so no key names
the format.  Every stage persists CSV intermediates under the output
directory, and the manifest records each completed stage's files under a
key that digests exactly the inputs those files depend on (the data file by
its content).  So a stage is skipped or resumed only while its own inputs
are unchanged, and identical (config, data content) runs reproduce
identical output trees.  The liquidity stage also writes the daily series
as one exact binary file, ``series.npz``, which every later stage loads.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import functools
import hashlib
import json
import logging
import os
import re
import warnings
from dataclasses import dataclass

import click
import numpy as np

from . import pipeline, portfolio, stats
from .condsvd import conditional_svd
from .marketdata import CalendarSpec, CsvParseError, ingest_csv
from .synthetic import write_synthetic_csv

logger = logging.getLogger(__name__)


def _data_sha256(path: str) -> str:
    """The sha256 of the file's content.

    Memoized per process by os.stat's (path, size, st_mtime_ns, st_ino), so
    a run that enters several stages hashes the file once.  The limit: a
    rewrite within one process that leaves all four unchanged is not seen.
    Every new process hashes the content again.
    """
    try:
        st = os.stat(path)
        return _content_sha256(path, st.st_size, st.st_mtime_ns, st.st_ino)
    except FileNotFoundError:
        raise click.ClickException(f"data file not found: {path}") from None
    except OSError as exc:          # a directory, or no permission to read
        raise click.ClickException(f"cannot read data file {path}: {exc.strerror or exc}") from None


@functools.lru_cache(maxsize=16)
def _content_sha256(path: str, *stat_key: int) -> str:
    # stat_key is not read: it is part of the cache key
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


# trading days per year, by asset class: the annualization of Sharpe ratios
_PERIODS_PER_YEAR = {"crypto": 365, "equity": 252}
# by annotation: the exact types a config field's values take, so a bool is no int
_FIELD_TYPES = {"str": ((str,), "a string"), "int": ((int,), "an integer"),
                "float": ((int, float), "a number"), "tuple[int, ...]": ((int,), "a list of integers")}


def _time_of_day(text) -> dt.time:
    """An HH:MM time within one day."""
    match = re.fullmatch(r"([0-9]{2}):([0-9]{2})", str(text))
    if match is None or int(match[1]) > 23 or int(match[2]) > 59:
        raise ValueError(f"day_boundary must be an HH:MM time within one day, got {text!r}")
    return dt.time(int(match[1]), int(match[2]))


@dataclass
class RunConfig:
    data_csv: str
    out_dir: str
    minutes_per_day: int = 1440
    day_boundary: str = "00:00"
    asset_class: str = "crypto"
    window_days: int = 365
    refit_stride: int = 1
    tau: float = 1.0
    variants: tuple[int, ...] = (1, 2, 3, 4, 5, 6)

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            (types, kind), value = _FIELD_TYPES[field.type], getattr(self, field.name)
            items = value if field.type.startswith("tuple") else (value,)
            if not isinstance(items, tuple) or any(type(v) not in types for v in items):
                raise ValueError(f"{field.name} must be {kind}, got {value!r}")
        if not 0.01 <= self.tau <= 10.0:
            raise ValueError(f"tau must be in [0.01, 10], got {self.tau}")
        if self.window_days < 10:
            raise ValueError("window_days must be at least 10")
        if self.refit_stride < 1:
            raise ValueError("refit_stride must be >= 1")
        if not self.variants:
            raise ValueError("variants must name at least one variant")
        bad = set(self.variants) - set(range(1, 7))
        if bad:
            raise ValueError(f"unknown variants: {sorted(bad)}")
        if self.asset_class not in _PERIODS_PER_YEAR:
            raise ValueError("asset_class must be 'crypto' or 'equity'")
        # a longer session would run into the next day's
        if not 2 <= self.minutes_per_day <= 1440:
            raise ValueError(f"minutes_per_day must be in [2, 1440], got {self.minutes_per_day}")
        _time_of_day(self.day_boundary)

    def calendar(self) -> CalendarSpec:
        return CalendarSpec(minutes_per_day=self.minutes_per_day,
                            day_boundary=_time_of_day(self.day_boundary))

    def stage_keys(self) -> dict[str, str]:
        """Each resumable stage's key: a digest of exactly the inputs its
        files depend on.  Variants 5 and 6 use the forecast stage's output."""
        liquidity = _digest(_data_sha256(self.data_csv), self.minutes_per_day,
                            self.day_boundary)
        forecast = _digest(liquidity, self.window_days, self.refit_stride, self.tau)
        chain = forecast if set(self.variants) & {5, 6} else None
        return {"liquidity": liquidity, "forecast": forecast,
                "backtest": _digest(liquidity, chain, self.window_days,
                                    list(self.variants), self.asset_class)}

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_mapping(raw, **overrides)

    @classmethod
    def from_mapping(cls, raw: dict, **overrides) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(raw)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        if isinstance(merged.get("variants"), list):
            merged["variants"] = tuple(merged["variants"])
        cfg = cls(**merged)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# manifest: {"stages": {stage: {"key", "files"}}}
# ---------------------------------------------------------------------------

def _manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def _read_entries(out_dir: str) -> dict:
    """The manifest's well-formed stage entries.  A manifest that is missing,
    unreadable or in the older whole-config-hash format has none, and an
    entry without a str key and a list of plain file names counts as absent:
    begin_stage deletes the files an entry lists, so a name must not reach
    outside the output directory."""
    try:
        with open(_manifest_path(out_dir)) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return {}
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, dict):
        return {}
    return {stage: entry for stage, entry in stages.items()
            if isinstance(entry, dict) and isinstance(entry.get("key"), str)
            and isinstance(entry.get("files"), list)
            and all(isinstance(name, str) and name not in ("", ".", "..")
                    and os.path.basename(name) == name for name in entry["files"])}


def _write_entries(out_dir: str, entries: dict) -> None:
    def write(path):
        with open(path, "w") as fh:
            json.dump({"stages": entries}, fh, indent=2, sort_keys=True)
            fh.write("\n")

    stats.write_replacing(_manifest_path(out_dir), write)


def stage_complete(cfg: RunConfig, stage: str, *required: str) -> bool:
    """Whether stage's entry has cfg's key, lists every required file, and
    every file it lists exists.  An entry that an older version wrote
    without a file the stage now needs is not complete."""
    key = cfg.stage_keys()[stage]      # first: a missing data file is an error
    entry = _read_entries(cfg.out_dir).get(stage)
    return (entry is not None and entry["key"] == key and set(required) <= set(entry["files"])
            and all(os.path.exists(os.path.join(cfg.out_dir, f)) for f in entry["files"]))


def begin_stage(cfg: RunConfig, stage: str) -> None:
    """Drop stage's entry, and every other entry whose key is not cfg's key
    for that stage, from the manifest on disk; then delete the files they
    listed.  Runs before the stage writes its first file, so an interrupted
    stage is never marked complete, and no file of an earlier run of the
    stage, or of a stage computed from other inputs, is left behind."""
    keys = cfg.stage_keys()
    entries = _read_entries(cfg.out_dir)
    dropped = [entries.pop(name) for name in list(entries)
               if name == stage or entries[name]["key"] != keys.get(name)]
    _write_entries(cfg.out_dir, entries)
    for name in (f for entry in dropped for f in entry["files"]):
        if os.path.exists(path := os.path.join(cfg.out_dir, name)):
            os.remove(path)


def mark_stage(cfg: RunConfig, stage: str, files: list[str]) -> None:
    entries = _read_entries(cfg.out_dir)
    entries[stage] = {"key": cfg.stage_keys()[stage], "files": sorted(files)}
    _write_entries(cfg.out_dir, entries)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _write_table(cfg: RunConfig, name: str, title: str, headers, body) -> list[str]:
    """Write <name>.csv and <name>.md (under a title heading); returns both names."""
    stats.write_csv_table(os.path.join(cfg.out_dir, f"{name}.csv"), headers, body)
    with open(os.path.join(cfg.out_dir, f"{name}.md"), "w") as fh:
        fh.write(f"# {title}\n\n")
        fh.write(stats.render_markdown_table(headers, body))
    return [f"{name}.csv", f"{name}.md"]


def _begin_liquidity(cfg: RunConfig, files: list[str]):
    """Build the grids from the raw CSV, begin the liquidity stage and write
    rejected_days.csv when a day was rejected.  Returns the grids and adds
    the name written to files."""
    try:
        result = ingest_csv(cfg.data_csv, cfg.calendar())
    except CsvParseError as exc:
        raise click.ClickException(f"{cfg.data_csv}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise click.ClickException(f"{cfg.data_csv}: not UTF-8 text ({exc.reason})") from exc
    if not result.grids:
        raise click.ClickException(f"{cfg.data_csv}: no complete asset-days found")
    begin_stage(cfg, "liquidity")
    if result.rejected:
        rej_path = os.path.join(cfg.out_dir, "rejected_days.csv")
        stats.write_csv_table(
            rej_path,
            ["symbol", "date", "missing_minutes", "total_minutes", "reason"],
            [[r.symbol, r.date, r.missing_minutes, r.total_minutes, r.reason]
             for r in result.rejected],
        )
        files.append("rejected_days.csv")
        logger.warning("%d asset-days rejected; see %s", len(result.rejected), rej_path)
    return result.grids


def run_liquidity(cfg: RunConfig) -> pipeline.PortfolioSeries:
    """The daily series of cfg's data: loaded from series.npz when the
    liquidity stage is complete, else built from the raw CSV while the
    stage's files are written."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    series_path = os.path.join(cfg.out_dir, "series.npz")
    if stage_complete(cfg, "liquidity"):
        return pipeline.read_series_npz(series_path)
    files = ["snapshots.csv", "asset_days.csv", "series.npz"]
    snapshots = pipeline.snapshots_from_grids(_begin_liquidity(cfg, files))
    series = pipeline.assemble_series(snapshots)

    header = ["date", "det_jump_raw", "det_jump_capped", "det_diff_raw", "det_diff_capped",
              "det_comp_raw", "det_comp_capped"]
    header += [f"{col}_{sym}" for sym in series.symbols
               for col in ("beta_jump", "beta_diff", "degenerate")]
    stats.write_csv_table(os.path.join(cfg.out_dir, "snapshots.csv"), header, (
        [snap.date, snap.det_jump_raw, snap.det_jump, snap.det_diff_raw, snap.det_diff,
         snap.det_comp_raw, snap.det_comp]
        + [v for beta in snap.betas for v in (beta.jump, beta.diffusion, beta.degenerate)]
        for snap in snapshots
    ))
    stats.write_csv_table(
        os.path.join(cfg.out_dir, "asset_days.csv"),
        ["date", "symbol", "ret", "ret_adj", "vol", "vol_adj", "degenerate"],
        [[asset.date, asset.symbol, asset.daily_return, asset.daily_liq_return,
          asset.daily_vol, asset.daily_liq_vol, asset.degenerate]
         for snap in snapshots for asset in snap.asset_days],
    )

    capped = {
        "liquidity jump": np.array([s.det_jump for s in snapshots]),
        "liquidity diffusion": np.array([s.det_diff for s in snapshots]),
        "liquidity composite": np.array([s.det_comp for s in snapshots]),
    }
    desc = {name: stats.descriptive_table(vals) for name, vals in capped.items()}
    files += _write_table(cfg, "table1", "Portfolio liquidity measures (capped at 10)",
                          *stats.descriptive_rows_table(desc))

    for name, vals in capped.items():
        tag = name.split()[-1]
        counts, edges = stats.histogram(vals)
        stats.write_histogram_csv(os.path.join(cfg.out_dir, f"hist_{tag}.csv"), counts, edges)
        stats.write_histogram_svg(
            os.path.join(cfg.out_dir, f"hist_{tag}.svg"), counts, edges, title=name
        )
        files += [f"hist_{tag}.csv", f"hist_{tag}.svg"]

    stats.write_replacing(series_path, lambda path: pipeline.write_series_npz(path, series))
    mark_stage(cfg, "liquidity", files)
    return series


def run_forecast(cfg: RunConfig) -> pipeline.ForecastSet | None:
    """Fit the rolling chain and write forecast tables.

    Returns the in-memory forecast set (None when the stage was already
    complete and the caller only needs the persisted files).
    """
    if stage_complete(cfg, "forecast"):
        return None
    series = run_liquidity(cfg)
    try:
        fset = pipeline.run_forecasts(series, window_days=cfg.window_days, tau=cfg.tau,
                                      stride=cfg.refit_stride)
    except ValueError as exc:       # a hard limit, checked before the first fit
        raise click.ClickException(str(exc)) from exc
    if not fset.records:
        raise click.ClickException("forecast stage produced no records; check window_days")

    begin_stage(cfg, "forecast")
    pipeline.write_forecasts_csv(os.path.join(cfg.out_dir, "forecasts.csv"), fset)
    pipeline.write_windows_csv(os.path.join(cfg.out_dir, "windows.csv"), fset)
    pipeline.write_posteriors_csv(
        os.path.join(cfg.out_dir, "posteriors_regular.csv"), fset, "regular")
    pipeline.write_posteriors_csv(
        os.path.join(cfg.out_dir, "posteriors_adjusted.csv"), fset, "adjusted")
    stats.write_csv_table(os.path.join(cfg.out_dir, "forecast_failures.csv"),
                          ["date", "message"], fset.failures)
    files = ["forecasts.csv", "windows.csv", "posteriors_regular.csv", "posteriors_adjusted.csv",
             "forecast_failures.csv"]
    files += _write_table2(cfg, fset) + _write_table3(cfg, fset)
    mark_stage(cfg, "forecast", files)
    return fset


def _write_table2(cfg: RunConfig, fset: pipeline.ForecastSet) -> list[str]:
    kind_labels = {"dcc": "dcc", "adcc": "adcc", "best": "dcc_best"}
    panels = []
    for what, label in (("omega", "conditional covariance"), ("post", "posterior covariance")):
        regular, adjusted = {}, {}
        for kind, name in kind_labels.items():
            _, regular[name] = fset.dets("regular", kind, what)
            _, adjusted[name] = fset.dets("adjusted", kind, what)
        rows = stats.determinant_tests(regular, adjusted)
        panels.append((label, rows))
    headers = ["panel"] + stats.comparison_rows_table(panels[0][1])[0]
    body = []
    for label, rows in panels:
        _, rendered = stats.comparison_rows_table(rows)
        body += [[label] + r for r in rendered]
    return _write_table(cfg, "table2", "One-sided tests: determinant, regular minus adjusted",
                        headers, body)


def _write_table3(cfg: RunConfig, fset: pipeline.ForecastSet) -> list[str]:
    rows = stats.coefficient_tests(
        fset.coefficients("regular"), fset.coefficients("adjusted")
    )
    return _write_table(cfg, "table3",
                        "Two-sided tests: dynamics coefficients, regular vs adjusted",
                        *stats.comparison_rows_table(rows))


def run_backtest_stage(cfg: RunConfig) -> list[portfolio.BacktestResult]:
    """The backtest results of cfg's variants: read back from the stage's
    own files when the stage is complete, else solved and written."""
    periods_per_year = _PERIODS_PER_YEAR[cfg.asset_class]
    names = {vid: f"variant_{vid}.csv" for vid in sorted(set(cfg.variants))}
    failures_path = os.path.join(cfg.out_dir, "backtest_failures.csv")
    if stage_complete(cfg, "backtest", "backtest_failures.csv"):
        failures = portfolio.read_failures_csv(failures_path)
        return [portfolio.read_variant_csv(os.path.join(cfg.out_dir, name), portfolio.VARIANTS[vid],
                                           periods_per_year, failures.get(vid, ()))
                for vid, name in names.items()]

    series = run_liquidity(cfg)
    posterior_regular = posterior_adjusted = None
    if set(cfg.variants) & {5, 6}:
        run_forecast(cfg)
        posterior_regular = pipeline.read_posteriors_csv(
            os.path.join(cfg.out_dir, "posteriors_regular.csv"))
        posterior_adjusted = pipeline.read_posteriors_csv(
            os.path.join(cfg.out_dir, "posteriors_adjusted.csv"))

    try:
        results = portfolio.run_backtest(
            series.dates, series.q, series.q_adj, series.sigma_tt, series.sigma_tt_adj,
            cfg.variants, cfg.window_days, periods_per_year,
            posterior_regular=posterior_regular,
            posterior_adjusted=posterior_adjusted,
        )
    except ValueError as exc:       # the window check; a failing day is carried forward
        raise click.ClickException(str(exc)) from exc

    begin_stage(cfg, "backtest")
    for res in results:
        portfolio.write_variant_csv(os.path.join(cfg.out_dir, names[res.variant.id]), res,
                                    series.symbols)
    portfolio.write_failures_csv(failures_path, results)
    files = [*names.values(), "backtest_failures.csv"]
    headers = ["variant", "description", "return_in_mv", "covariance_in_mv",
               "mean_daily", "std_daily", "annualized_sharpe"]
    files += _write_table(cfg, "table4", "Portfolio performance comparison",
                          headers, portfolio.performance_rows(results))
    mark_stage(cfg, "backtest", files)
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
        click.option("--calendar", "asset_class",
                     type=click.Choice(["crypto", "equity"]), default=None),
    ]
    for opt in reversed(options):
        fn = opt(fn)
    return fn


def _build_config(config_path, **overrides) -> RunConfig:
    try:
        if overrides.get("variants") is not None:
            overrides["variants"] = tuple(
                int(v) for v in str(overrides["variants"]).split(",") if v
            )
        if config_path:
            cfg = RunConfig.from_file(config_path, **overrides)
        else:
            clean = {k: v for k, v in overrides.items() if v is not None}
            if "data_csv" not in clean or "out_dir" not in clean:
                raise ValueError("--data and --out are required without a config file")
            cfg = RunConfig.from_mapping(clean)
        os.makedirs(cfg.out_dir, exist_ok=True)     # fails on a file, or a path under one
        return cfg
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


def _read_matrix(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, without numpy's warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:     # a non-numeric cell, a ragged row
        raise click.ClickException(f"cannot read matrix {path}: {exc}") from None
    if matrix.size == 0:
        raise click.ClickException(f"cannot read matrix {path}: no data")
    return matrix


@main.command("condsvd-debug")
@click.argument("matrix_a", type=click.Path(exists=True))
@click.argument("matrix_b", type=click.Path(exists=True))
@click.option("--floor", type=float, default=None)
def cmd_condsvd_debug(matrix_a, matrix_b, floor):
    """Solve A = H B H' for two dense CSV matrices and print diagnostics."""
    try:
        res = conditional_svd(_read_matrix(matrix_a), _read_matrix(matrix_b), floor=floor)
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
    try:
        write_synthetic_csv(out_path, n_assets=assets, n_days=days,
                            minutes_per_day=minutes, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    except OSError as exc:      # a directory, or under a missing one
        raise click.ClickException(f"cannot write {out_path}: {exc.strerror or exc}") from None
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
