"""Deterministic synthetic minute-bar dataset with a liquidity-spike regime.

A factor model with persistent stochastic volatility drives correlated
minute returns; dollar volumes follow an independent lognormal process on
which a two-state regime occasionally fires large spikes concentrated in a
few minutes.  Spikes are decoupled from returns by construction, so they
distort the volume shares that the liquidity adjustment keys on without
moving prices, which is exactly the kind of day the jump/diffusion measures
are built to flag.

Everything is generated from one seed; identical seeds give byte-identical
CSV output (pinned by sha256 in ``tests/test_synthetic.py``).
"""

from __future__ import annotations

import datetime as dt
import errno
import os

import numpy as np

from .stats import write_replacing

BASE_DATE = dt.date(2020, 1, 1)


def write_synthetic_csv(
    path,
    n_assets: int = 8,
    n_days: int = 600,
    minutes_per_day: int = 48,
    seed: int = 7,
) -> None:
    """Write the dataset's (timestamp, symbol, close, dollar_volume) rows,
    sorted by symbol then time, each day's minutes starting at 00:00 UTC.

    The file is written next to path and moved onto it when complete, so an
    interrupted write leaves path as it was.  Raises ValueError, before
    writing anything, unless n_assets >= 1, n_days >= 1 and
    2 <= minutes_per_day <= 1440: a day of more minutes would run into the
    next day, and ingest needs at least two minutes for a return.  Raises
    IsADirectoryError or FileNotFoundError, before generating any data, if
    path is a directory or its parent directory does not exist.
    """
    target = os.fspath(path)
    if os.path.isdir(target):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    if not os.path.isdir(os.path.dirname(os.path.abspath(target))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), target)
    if n_assets < 1:
        raise ValueError(f"n_assets must be >= 1, got {n_assets}")
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    if not 2 <= minutes_per_day <= 1440:
        raise ValueError(f"minutes_per_day must be in [2, 1440], got {minutes_per_day}")

    rng = np.random.default_rng(seed)
    base_price = 10.0 * np.exp(rng.uniform(0.0, 3.0, n_assets))
    base_volume = 1e6 * np.exp(rng.uniform(-1.0, 1.0, n_assets))

    sigma_minute = 0.002
    factor_weight = 0.45
    logvol = np.zeros(n_assets)

    # two-state spike regime: calm vs spiky, persistent
    spike_prob = {0: 0.10, 1: 0.85}
    regime = 0

    # row 0 holds the base prices and row 1 + d*T + m the gross return of
    # minute m of day d, so the running product down the rows is the close;
    # cumprod multiplies in time order, as a per-minute loop did, so the
    # closes (and the file) are bitwise the same
    growth = np.empty((n_days * minutes_per_day + 1, n_assets))
    growth[0] = base_price
    volumes = np.empty((n_days * minutes_per_day, n_assets))
    for d in range(n_days):
        if rng.random() < 0.03:
            regime = 1 - regime
        logvol = 0.97 * logvol + 0.25 * rng.standard_normal(n_assets)
        day_vol = sigma_minute * np.exp(logvol - 0.25**2 / (2 * (1 - 0.97**2)))
        common = rng.standard_normal(minutes_per_day)
        idio = rng.standard_normal((minutes_per_day, n_assets))
        shocks = (
            np.sqrt(factor_weight) * common[:, None]
            + np.sqrt(1.0 - factor_weight) * idio
        )
        rets = day_vol[None, :] * shocks

        vol = base_volume[None, :] * np.exp(0.6 * rng.standard_normal((minutes_per_day, n_assets)))
        if rng.random() < spike_prob[regime]:
            n_spikes = 1 + rng.poisson(2)
            spike_minutes = rng.choice(minutes_per_day, size=min(n_spikes, minutes_per_day), replace=False)
            spike_assets = rng.random(n_assets) < 0.8
            boost = np.exp(rng.uniform(3.0, 4.5))
            vol[np.ix_(spike_minutes, np.where(spike_assets)[0])] *= boost

        rows = slice(d * minutes_per_day, (d + 1) * minutes_per_day)
        growth[1:][rows] = 1.0 + rets
        volumes[rows] = vol
    closes = np.cumprod(growth, axis=0, out=growth)[1:]

    clock = [f"T{m // 60:02d}:{m % 60:02d}:00Z" for m in range(minutes_per_day)]
    stamps = [
        day + hhmm
        for day in (str(BASE_DATE + dt.timedelta(days=d)) for d in range(n_days))
        for hhmm in clock
    ]

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            fh.write("timestamp,symbol,close,dollar_volume\n")
            for i in range(n_assets):
                sym = f"A{i:02d}"
                fh.writelines(
                    f"{ts},{sym},{c!r},{v!r}\n"
                    for ts, c, v in zip(stamps, closes[:, i].tolist(), volumes[:, i].tolist())
                )

    write_replacing(path, write)
