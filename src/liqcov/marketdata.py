"""Minute-grid construction from minute-bar or tick CSV data.

A trading session is a fixed grid of T minutes per (symbol, day):
1440 for round-the-clock crypto sessions, 390 for a US equity session,
or anything smaller for tests.  Sessions start at a configurable UTC
time-of-day; timestamps outside the session are ignored.  Minute bars and
ticks share one grid builder: missing minutes are filled with return 0 /
volume 0 (closes carry forward), and a minute-bar day missing more than 20%
of its minutes is rejected with a warning record instead of inventing
prices; ticks, time-sorted within each session, never reject a day.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_MISSING_FRACTION = 0.20


class AssetClass(str, Enum):
    CRYPTO = "crypto"
    EQUITY = "equity"


class CsvParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class CalendarSpec:
    """Session layout shared by every asset in a portfolio."""

    minutes_per_day: int = 1440
    day_boundary: dt.time = dt.time(0, 0)
    asset_class: AssetClass = AssetClass.CRYPTO

    def __post_init__(self):
        if self.minutes_per_day < 2:
            raise ValueError("minutes_per_day must be >= 2")

    @classmethod
    def crypto(cls, minutes_per_day: int = 1440) -> "CalendarSpec":
        return cls(minutes_per_day, dt.time(0, 0), AssetClass.CRYPTO)

    @classmethod
    def equity(cls, minutes_per_day: int = 390) -> "CalendarSpec":
        # 13:30 UTC = 09:30 New York standard market open
        return cls(minutes_per_day, dt.time(13, 30), AssetClass.EQUITY)

    def periods_per_year(self) -> int:
        return 365 if self.asset_class is AssetClass.CRYPTO else 252

    def session_start(self, day: dt.date) -> dt.datetime:
        return dt.datetime.combine(day, self.day_boundary, tzinfo=dt.timezone.utc)

    def locate(self, ts: dt.datetime) -> tuple[dt.date, int] | None:
        """Map a UTC timestamp to (session day, minute index), or None if
        the timestamp falls outside the session window."""
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=dt.timezone.utc)
        boundary_secs = (
            self.day_boundary.hour * 3600
            + self.day_boundary.minute * 60
            + self.day_boundary.second
        )
        shifted = ts - dt.timedelta(seconds=boundary_secs)
        day = shifted.date()
        offset = ts - self.session_start(day)
        minute = int(offset.total_seconds() // 60)
        if 0 <= minute < self.minutes_per_day:
            return day, minute
        return None


@dataclass(frozen=True)
class MinuteGrid:
    """One asset-day of aligned minute returns and dollar volumes."""

    symbol: str
    date: dt.date
    returns: np.ndarray
    dollar_volume: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=np.float64)
        v = np.asarray(self.dollar_volume, dtype=np.float64)
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "dollar_volume", v)
        if r.shape != v.shape or r.ndim != 1:
            raise ValueError("returns and dollar_volume must be 1-d vectors of equal length")
        if not np.all(np.isfinite(r)):
            raise ValueError(f"{self.symbol} {self.date}: non-finite returns")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError(f"{self.symbol} {self.date}: dollar volumes must be finite and >= 0")


@dataclass(frozen=True)
class AssetDay:
    """Day-level regular and liquidity-adjusted return/volatility of one asset.

    degenerate is set when the day had no usable return/volume variation, in
    which case the adjusted quantities fall back to the regular ones so the
    day stays in the return series while being excluded from liquidity-ratio
    descriptive statistics.
    """

    symbol: str
    date: dt.date
    daily_return: float
    daily_liq_return: float
    daily_vol: float
    daily_liq_vol: float
    degenerate: bool = False


@dataclass(frozen=True)
class RejectedDay:
    """Warning record for a day dropped by the missing-minute rule."""

    symbol: str
    date: dt.date
    missing_minutes: int
    total_minutes: int
    reason: str


@dataclass
class IngestResult:
    grids: list[MinuteGrid] = field(default_factory=list)
    rejected: list[RejectedDay] = field(default_factory=list)


def daily_compound_return(returns: Sequence[float] | np.ndarray) -> float:
    """Compound minute returns into the day return: prod(1 + r) - 1."""
    r = np.asarray(returns, dtype=np.float64)
    if np.any(r <= -1.0):
        raise DomainError("minute return <= -1 cannot be compounded")
    return float(np.prod(1.0 + r) - 1.0)


# CalendarSpec.locate shifts a timestamp back by under one day, which stays
# representable from the second day of year 1 on.
_EARLIEST_TIMESTAMP = dt.datetime(1, 1, 2, tzinfo=dt.timezone.utc)


def _parse_timestamp(raw: str, line_no: int) -> dt.datetime:
    raw = raw.strip()
    if not raw:
        raise CsvParseError(line_no, "empty timestamp")
    try:
        if raw.isdigit() or (raw[0] in "+-" and raw[1:].isdigit()):
            # epoch milliseconds
            ts = dt.datetime.fromtimestamp(int(raw) / 1000.0, tz=dt.timezone.utc)
        else:
            iso = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
            ts = dt.datetime.fromisoformat(iso)
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=dt.timezone.utc)
            ts = ts.astimezone(dt.timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise CsvParseError(line_no, f"bad timestamp {raw!r}: {exc}") from None
    if ts < _EARLIEST_TIMESTAMP:
        raise CsvParseError(line_no, f"timestamp {raw!r} is before {_EARLIEST_TIMESTAMP.date()}")
    return ts


def _parse_float(raw: str, name: str, line_no: int) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise CsvParseError(line_no, f"bad {name} {raw!r}") from None
    if not math.isfinite(val):
        raise CsvParseError(line_no, f"non-finite {name}")
    return val


_UNSEEN = object()


def _buffer_rows(path, spec: CalendarSpec, columns: list[str], ticks: bool):
    """Check the rows of a ``timestamp,symbol,<price>,<amount>`` CSV and
    buffer the minute, price and volume of each in-session row per (symbol,
    session day), in file order.

    The volume is the amount column, or ``price * amount`` for ticks, which
    must be time-sorted within each (symbol, session).
    """
    # The assets of a portfolio share their timestamps, so each distinct
    # raw timestamp of a minute bar is parsed and located once; a tick keeps
    # its own timestamp for the order check.
    located: dict[str, tuple[dt.date, int] | None] = {}
    groups = defaultdict(lambda: (array("q"), array("d"), array("d")))
    latest: dict[tuple[str, dt.date], dt.datetime] = {}     # last tick per session
    price_name, amount_name = columns[2], columns[3]
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvParseError(1, "empty file")
        if [h.strip().lower() for h in header] != columns:
            raise CsvParseError(1, f"expected header {','.join(columns)}")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise CsvParseError(line_no, f"expected 4 fields, got {len(row)}")
            raw = row[0]
            loc = located.get(raw, _UNSEEN)
            if loc is _UNSEEN:
                ts = _parse_timestamp(raw, line_no)
            symbol = row[1].strip()
            if not symbol:
                raise CsvParseError(line_no, "empty symbol")
            price = _parse_float(row[2], price_name, line_no)
            amount = _parse_float(row[3], amount_name, line_no)
            if price <= 0:
                raise CsvParseError(line_no, f"{price_name} must be > 0, got {price}")
            if amount < 0:
                raise CsvParseError(line_no, f"{amount_name} must be >= 0, got {amount}")
            if loc is _UNSEEN:
                loc = spec.locate(ts)
                if not ticks:
                    located[raw] = loc
            if loc is None:
                continue
            day, minute = loc
            key = (symbol, day)
            if ticks:
                if ts < latest.get(key, ts):
                    raise CsvParseError(line_no, f"tick at {ts.isoformat()} is earlier than "
                                                 f"the previous tick of {symbol} on {day}")
                latest[key] = ts
                amount *= price
            buffers = groups[key]
            buffers[0].append(minute)
            buffers[1].append(price)
            buffers[2].append(amount)
    return groups


def _build_grids(groups, t: int, max_missing: int, sum_volume: bool) -> IngestResult:
    """Turn the (minute, price, volume) rows buffered per (symbol, day), in
    file order, into one grid per (symbol, day) ordered by symbol then date.

    Each minute takes the price of its last row, and as volume either its
    last row's (``sum_volume`` false) or the sum over its rows.  A day
    missing more than ``max_missing`` minutes is rejected.  The first minute
    of a session links to the symbol's previous session's last price, even
    when that session was rejected, else carries return 0.
    """
    result = IngestResult()
    prior_symbol: str | None = None
    prior_close: float | None = None
    for symbol, day in sorted(groups):
        minute_buf, price_buf, volume_buf = groups.pop((symbol, day))
        minutes = np.frombuffer(minute_buf, dtype=np.int64)
        if symbol != prior_symbol:
            prior_symbol, prior_close = symbol, None
        # the last row of each minute, in minute order
        present, first_from_end = np.unique(minutes[::-1], return_index=True)
        last = minutes.shape[0] - 1 - first_from_end
        closes = np.frombuffer(price_buf)[last]
        missing = t - present.shape[0]
        if missing > max_missing:
            result.rejected.append(
                RejectedDay(symbol, day, missing, t, f"{missing}/{t} minutes missing")
            )
        else:
            previous = np.empty_like(closes)
            # with no prior close the first return is c / c - 1 = 0 exactly
            previous[0] = closes[0] if prior_close is None else prior_close
            previous[1:] = closes[:-1]
            returns = np.zeros(t)
            returns[present] = closes / previous - 1.0
            volumes = np.frombuffer(volume_buf)
            if sum_volume:
                # bincount adds in file order, as a running sum would
                dollar_volume = np.bincount(minutes, weights=volumes, minlength=t)
            else:
                dollar_volume = np.zeros(t)
                dollar_volume[present] = volumes[last]
            result.grids.append(MinuteGrid(symbol, day, returns, dollar_volume))
        prior_close = float(closes[-1])
    return result


def ingest_minute_csv(path, spec: CalendarSpec) -> IngestResult:
    """Read ``timestamp,symbol,close,dollar_volume`` rows into MinuteGrids.

    Timestamps are ISO-8601 UTC or epoch milliseconds (auto-detected per
    row).  Rows need not be sorted; a repeated (symbol, timestamp) keeps
    the last row.  One grid is emitted per (symbol, session day) ordered by
    symbol then date, and a day missing more than 20% of its minutes is
    rejected.  The first minute of each session links to the prior
    session's last close when available, else carries return 0.
    """
    groups = _buffer_rows(path, spec, ["timestamp", "symbol", "close", "dollar_volume"],
                          ticks=False)
    t = spec.minutes_per_day
    return _build_grids(groups, t, int(MAX_MISSING_FRACTION * t), sum_volume=False)


def ingest_tick_csv(path, spec: CalendarSpec) -> IngestResult:
    """Read ``timestamp,symbol,price,size`` tick rows into MinuteGrids.

    Ticks must be time-sorted within each (symbol, session); one earlier
    than the previous tick of its session raises CsvParseError at its line.
    Each minute takes its last price and the summed ``price * size``.
    Quiet minutes are normal in tick data, so no day is rejected.  The first
    minute of a session links to the prior session's last traded price when
    available.
    """
    groups = _buffer_rows(path, spec, ["timestamp", "symbol", "price", "size"], ticks=True)
    t = spec.minutes_per_day
    return _build_grids(groups, t, t, sum_volume=True)


# ---------------------------------------------------------------------------
# grid (de)serialization; floats are written with repr for exact round-trip
# ---------------------------------------------------------------------------

GRID_HEADER = ["symbol", "date", "minute", "return", "dollar_volume"]


def write_grids_csv(path, grids: Sequence[MinuteGrid]) -> None:
    ordered = sorted(grids, key=lambda g: (g.symbol, g.date))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GRID_HEADER)
        for grid in ordered:
            # the symbol is quoted as csv would quote it; minutes and finite
            # float reprs never need quoting
            prefix = io.StringIO()
            csv.writer(prefix, lineterminator="").writerow([grid.symbol, grid.date.isoformat()])
            prefix = prefix.getvalue()
            fh.writelines(
                f"{prefix},{minute},{r!r},{v!r}\n"
                for minute, (r, v) in enumerate(
                    zip(grid.returns.tolist(), grid.dollar_volume.tolist()))
            )


def read_grids_csv(path) -> list[MinuteGrid]:
    """Read a write_grids_csv dump back; every grid must have the same
    minute count and no gap or repeated minute."""
    rows: dict[tuple[str, dt.date], dict[int, tuple[float, float]]] = {}
    first_line: dict[tuple[str, dt.date], int] = {}
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != GRID_HEADER:
            raise CsvParseError(1, f"expected header {','.join(GRID_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise CsvParseError(line_no, f"expected 5 fields, got {len(row)}")
            try:
                key = (row[0], dt.date.fromisoformat(row[1]))
            except ValueError:
                raise CsvParseError(line_no, f"bad date {row[1]!r}") from None
            try:
                minute = int(row[2])
            except ValueError:
                minute = -1
            if minute < 0:
                raise CsvParseError(line_no, f"bad minute {row[2]!r}")
            value = (_parse_float(row[3], "return", line_no),
                     _parse_float(row[4], "dollar_volume", line_no))
            minutes = rows.get(key)
            if minutes is None:
                minutes = rows[key] = {}
                first_line[key] = line_no
            elif minute in minutes:
                raise CsvParseError(line_no, f"repeated minute {minute} of {key[0]} {key[1]}")
            minutes[minute] = value
    grids = []
    t = None
    for (symbol, day), minutes in sorted(rows.items()):
        if t is None:
            t = max(minutes) + 1
        if len(minutes) != t or max(minutes) != t - 1:
            gap = min(set(range(t)) - minutes.keys(), default=None)
            detail = (f"minute {gap} missing" if gap is not None
                      else f"{max(minutes) + 1} minutes, expected {t}")
            raise CsvParseError(first_line[(symbol, day)], f"{symbol} {day}: {detail}")
        returns = np.array([minutes[m][0] for m in range(t)])
        volume = np.array([minutes[m][1] for m in range(t)])
        grids.append(MinuteGrid(symbol, day, returns, volume))
    return grids


def group_by_day(grids: Iterable[MinuteGrid]) -> Iterator[tuple[dt.date, list[MinuteGrid]]]:
    """Yield (date, grids) for days on which every symbol is present."""
    by_day: dict[dt.date, list[MinuteGrid]] = {}
    symbols = set()
    for grid in grids:
        by_day.setdefault(grid.date, []).append(grid)
        symbols.add(grid.symbol)
    for day in sorted(by_day):
        day_grids = sorted(by_day[day], key=lambda g: g.symbol)
        if len(day_grids) == len(symbols):
            yield day, day_grids
