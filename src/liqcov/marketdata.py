"""Minute-grid construction from minute-bar or tick CSV data.

A trading session is a fixed grid of T minutes per (symbol, day):
1440 for round-the-clock crypto sessions, 390 for a US equity session,
or anything smaller for tests.  Sessions start at a configurable UTC
time-of-day; timestamps outside the session are ignored.  Minute bars and
ticks share one grid builder: missing minutes are filled with return 0 /
volume 0 (closes carry forward), and a minute-bar day missing more than 20%
of its minutes is rejected with a warning record instead of inventing
prices; ticks, time-sorted within each session, never reject a day.
ingest_csv reads either format, chosen by the file's header row.

Both formats are read as UTF-8, after a byte order mark if the file starts
with one.  A minute-bar file whose rows are all plain is read in numpy
blocks (_buffer_blocks), within byte ranges that are read in worker
processes (workers.task_results) and joined in file order; any other
minute-bar file, and every tick file, is read by the row loop
(_buffer_rows), the reference the block reader matches: the same grids, and
the same CsvParseError at the same line, for any number of workers.  The
block reader locates a block whose timestamps are all UTC seconds written
``YYYY-MM-DDTHH:MM:SSZ`` in one numpy step, and parses any other spelling
once per distinct timestamp in each process that reads ranges.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import io
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import workers

MAX_MISSING_FRACTION = 0.20

# CalendarSpec.locate counts whole microseconds since the UTC epoch
_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_MICROSECOND = dt.timedelta(microseconds=1)
_DAY_US = 86_400_000_000
_MINUTE_US = 60_000_000


class CsvParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: {detail}")

    def __reduce__(self):
        return type(self), (self.line_no, self.detail)


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class CalendarSpec:
    """Session layout shared by every asset in a portfolio."""

    minutes_per_day: int = 1440
    day_boundary: dt.time = dt.time(0, 0)

    def __post_init__(self):
        if self.minutes_per_day < 2:
            raise ValueError("minutes_per_day must be >= 2")

    @classmethod
    def crypto(cls, minutes_per_day: int = 1440) -> "CalendarSpec":
        return cls(minutes_per_day, dt.time(0, 0))

    def locate(self, ts: dt.datetime) -> tuple[dt.date, int] | None:
        """Map a timestamp to (session day, minute index), or None if it falls
        outside the session window.  A naive timestamp is taken as UTC; an
        aware one is located by its instant, whatever zone it is written in."""
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=dt.timezone.utc)
        days, rest = divmod((ts - _EPOCH) // _MICROSECOND - self._boundary_us(), _DAY_US)
        minute = rest // _MINUTE_US
        if minute < self.minutes_per_day:
            return dt.date.fromordinal(_EPOCH_ORDINAL + days), minute
        return None

    def _boundary_us(self) -> int:
        b = self.day_boundary
        return ((b.hour * 60 + b.minute) * 60 + b.second) * 1_000_000 + b.microsecond


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


# CalendarSpec.locate's session day can be the day before the timestamp's,
# which is a date from the second day of year 1 on.
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
    session day), in file order, together with the line of the day's first
    row.

    The volume is the amount column, or ``price * amount`` for ticks, which
    must be time-sorted within each (symbol, session).  This row loop reads
    every tick file and every minute file that _buffer_blocks leaves to it;
    it is the reference _buffer_blocks matches, and it raises the line-exact
    CsvParseError of a malformed row.
    """
    # The assets of a portfolio share their timestamps, so each distinct
    # raw timestamp of a minute bar is parsed and located once; a tick keeps
    # its own timestamp for the order check.
    located: dict[str, tuple[dt.date, int] | None] = {}
    groups: dict[tuple[str, dt.date], tuple[int, array, array, array]] = {}
    latest: dict[tuple[str, dt.date], dt.datetime] = {}     # last tick per session
    price_name, amount_name = columns[2], columns[3]
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
            buffers = groups.get(key)
            if buffers is None:
                buffers = groups[key] = (line_no, array("q"), array("d"), array("d"))
            buffers[1].append(minute)
            buffers[2].append(price)
            buffers[3].append(amount)
    return groups


_MINUTE_COLUMNS = ["timestamp", "symbol", "close", "dollar_volume"]
_TICK_COLUMNS = ["timestamp", "symbol", "price", "size"]
# bytes per range of a minute file, before each is extended to the next line
# feed: 2 MB read faster than 4 or 8 MB on two CPUs
_CHUNK_BYTES = 2 << 20
# lines per np.loadtxt call: larger blocks read no faster and hold more memory
_BLOCK_LINES = 4096
_BLOCK_DTYPE = np.dtype([("timestamp", object), ("symbol", object),
                         ("close", np.float64), ("volume", np.float64)])
# csv.reader gives a quote and a carriage return meanings that a split at
# commas does not, and float() and np.loadtxt treat ASCII control characters
# differently, so a plain line's UTF-8 bytes are these and nothing else
_PLAIN_BYTES = b"\n" + bytes(range(0x20, 0x100)).replace(b'"', b"")
# a located timestamp is packed as day ordinal * _DAY_MINUTES + minute, which
# holds because a minute index is below one day's minutes
_DAY_MINUTES = 1440


class _NotPlain(Exception):
    """A block of a minute CSV that only the row loop reads as the reference does."""


def _buffer_blocks(path, spec: CalendarSpec):
    """The rows of a minute-bar CSV buffered as _buffer_rows buffers them,
    read in blocks of _BLOCK_LINES lines, or None when a block is not plain
    rows: bytes that are not UTF-8, a quote, a control character other than
    the line feed, a blank, short or long row, a number np.loadtxt does not
    parse (it rejects ``1_000`` and ``١٢٣``, which float() accepts) or a
    value a row check rejects.  The caller then reads the whole file with the
    row loop, which returns the same groups or raises the line-exact error.

    The data after the header (and after a UTF-8 byte order mark before it)
    is cut into ranges of _CHUNK_BYTES, each extended to the next line feed,
    so the ranges depend on the file alone.  Each range is one task of
    workers.task_results (_read_range); the first range that is not plain
    cancels the rest.  The result is a list of (first line, groups) per
    range, in file order, whose groups number their lines from 0 within the
    range; _build_grids joins each (symbol, day) across ranges.
    """
    with open(path, "rb") as fh:
        header = fh.readline().removeprefix(codecs.BOM_UTF8)
        try:
            columns = header.decode("utf-8").rstrip("\n").split(",")
        except UnicodeDecodeError:
            return None
        if (header.translate(None, _PLAIN_BYTES)
                or [h.strip().lower() for h in columns] != _MINUTE_COLUMNS):
            return None
        bounds = [fh.tell()]
        size = os.fstat(fh.fileno()).st_size
        while bounds[-1] < size:
            fh.seek(bounds[-1] + _CHUNK_BYTES - 1)
            fh.readline()
            bounds.append(min(fh.tell(), size))
    ranges = []
    line_no = 2
    # raw timestamp -> packed session minute, or -1: each process that reads
    # ranges fills its own copy
    located: dict[str, int] = {}
    with workers.task_results(_read_range, list(zip(bounds, bounds[1:])),
                              shared=(path, spec, located)) as results:
        for result in results:
            if result is None:
                return None
            groups, n_lines = result
            ranges.append((line_no, groups))
            line_no += n_lines
    return ranges


def _read_range(path, spec: CalendarSpec, located: dict[str, int],
                start: int, end: int):
    """The groups of the lines in bytes [start, end) of a minute CSV, with
    lines numbered from 0 and rows as bytes, and the number of lines; None
    if the range is not plain.  Each block is split at line feeds only:
    str.splitlines would also split at characters such as U+0085 that a
    plain line may hold."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(end - start)
    # a block ends after every _BLOCK_LINES-th line feed, and at the range's end
    feeds = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    bounds = [0, *(feeds[_BLOCK_LINES - 1::_BLOCK_LINES] + 1).tolist()]
    if bounds[-1] < len(data):
        bounds.append(len(data))
    groups: dict[tuple[str, dt.date], tuple[int, array, array, array]] = {}
    try:
        for block, (first, last) in enumerate(zip(bounds, bounds[1:])):
            lines = data[first:last].decode("utf-8").split("\n")
            if lines[-1] == "":
                lines.pop()
            _buffer_block(lines, block * _BLOCK_LINES, spec, located, groups)
    except (_NotPlain, UnicodeDecodeError):
        return None
    # a bytes object unpickles as one allocation, where an array unpickles
    # through a temporary bytes copy: sent from a worker, the arrays left
    # the caller's heap about 3 MB larger after the bundled file's ingest
    sent = {key: (line_no, *map(bytes, buffers)) for key, (line_no, *buffers) in groups.items()}
    return sent, feeds.shape[0] + (not data.endswith(b"\n"))


def _buffer_block(lines: list[str], first_line: int, spec: CalendarSpec,
                  located: dict[str, int], groups: dict) -> None:
    """Check one block of lines and append its in-session rows to groups, or
    raise _NotPlain."""
    text = "".join(lines)
    # with three commas a row, np.loadtxt skips no blank line
    if text.count(",") != 3 * len(lines) or text.encode().translate(None, _PLAIN_BYTES):
        raise _NotPlain
    try:
        rows = np.loadtxt(lines, dtype=_BLOCK_DTYPE, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        raise _NotPlain from None
    closes, volumes = rows["close"], rows["volume"]
    if not (np.isfinite(closes).all() and np.isfinite(volumes).all()
            and (closes > 0).all() and (volumes >= 0).all()):
        raise _NotPlain

    packed = _locate_utc_seconds(rows["timestamp"], spec)
    if packed is None:
        # any other spelling: each distinct raw timestamp is parsed and
        # located once per process that reads the file
        stamps = rows["timestamp"].tolist()
        for raw in set(stamps).difference(located):
            try:
                loc = spec.locate(_parse_timestamp(raw, first_line))
            except CsvParseError:
                raise _NotPlain from None
            located[raw] = -1 if loc is None else loc[0].toordinal() * _DAY_MINUTES + loc[1]
        packed = np.fromiter(map(located.__getitem__, stamps), np.int64, len(stamps))
    # each distinct raw symbol is stripped once per block
    symbols = rows["symbol"].tolist()
    names: dict[str, int] = {}
    name_of = {raw: names.setdefault(raw.strip(), len(names)) for raw in dict.fromkeys(symbols)}
    if "" in names:
        raise _NotPlain

    kept = np.flatnonzero(packed >= 0)
    if kept.size == 0:
        return
    day_of_row, minute_of_row = np.divmod(packed[kept], _DAY_MINUTES)
    name_of_row = np.fromiter(map(name_of.__getitem__, symbols), np.int64, len(symbols))[kept]
    first_day = int(day_of_row.min())
    n_days = int(day_of_row.max()) - first_day + 1
    # one key per (symbol, session day); a stable sort keeps file order within each
    key = name_of_row * n_days + (day_of_row - first_day)
    order = np.argsort(key, kind="stable")
    key, kept, minute_of_row = key[order], kept[order], minute_of_row[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], key.shape[0])
    name_list = list(names)
    for start, end, k in zip(starts.tolist(), ends.tolist(), key[starts].tolist()):
        group = (name_list[k // n_days], dt.date.fromordinal(first_day + k % n_days))
        rows_of_group = kept[start:end]
        buffers = groups.get(group)
        if buffers is None:
            buffers = groups[group] = (first_line + int(rows_of_group[0]),
                                       array("q"), array("d"), array("d"))
        buffers[1].frombytes(minute_of_row[start:end].tobytes())
        buffers[2].frombytes(closes[rows_of_group].tobytes())
        buffers[3].frombytes(volumes[rows_of_group].tobytes())


# the one timestamp spelling located without a Python parse, as 21 bytes:
# a byte minus its shape byte is at most 9 where a digit goes (uint8 wraps
# below "0"), and 0 at a separator and at the NUL padding after the "Z"
_UTC_SECONDS_SHAPE = np.frombuffer(b"0000-00-00T00:00:00Z\0", np.uint8)
_UTC_SECONDS_SPAN = np.where(_UTC_SECONDS_SHAPE == ord("0"), 9, 0).astype(np.uint8)
_EARLIEST_SECOND = (_EARLIEST_TIMESTAMP - _EPOCH) // dt.timedelta(seconds=1)


def _locate_utc_seconds(stamps: np.ndarray, spec: CalendarSpec) -> np.ndarray | None:
    """The packed session minutes (-1 outside the session) of an object array
    of raw timestamps, each equal to spec.locate(_parse_timestamp(raw)), or
    None unless every timestamp is written ``YYYY-MM-DDTHH:MM:SSZ`` and names
    a valid instant from _EARLIEST_TIMESTAMP on."""
    try:
        raw = stamps.astype("S21")      # a longer timestamp keeps a 21st byte
    except UnicodeEncodeError:
        return None
    chars = raw.view(np.uint8).reshape(-1, 21)
    if not (chars - _UTC_SECONDS_SHAPE <= _UTC_SECONDS_SPAN).all():
        return None
    try:
        # numpy rejects a month, day, hour, minute or second out of range
        seconds = raw.astype("S19").astype("datetime64[s]").view(np.int64)
    except ValueError:
        return None
    if seconds.min() < _EARLIEST_SECOND:     # numpy parses year 0, fromisoformat does not
        return None
    days, rest = np.divmod(seconds * 1_000_000 - spec._boundary_us(), _DAY_US)
    minutes = rest // _MINUTE_US
    return np.where(minutes < spec.minutes_per_day,
                    (days + _EPOCH_ORDINAL) * _DAY_MINUTES + minutes, -1)


def _pop_group(held: dict, key) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The line of a (symbol, day)'s first row and its minute, price and
    volume rows in file order, taken out of held, which lists its (line,
    buffers) per range in file order: rows in one range are read in place,
    rows in several are joined once."""
    parts = held.pop(key)
    columns = []
    for column, dtype in enumerate((np.int64, np.float64, np.float64)):
        arrays = [np.frombuffer(buffers[column], dtype=dtype) for _, buffers in parts]
        columns.append(arrays[0] if len(arrays) == 1 else np.concatenate(arrays))
    return parts[0][0], *columns


@np.errstate(over="ignore")     # an overflow raises CsvParseError below
def _build_grids(ranges, t: int, max_missing: int, sum_volume: bool) -> IngestResult:
    """Turn the (minute, price, volume) rows buffered per (symbol, day), in
    file order, into one grid per (symbol, day) ordered by symbol then date.
    ranges lists (first line, groups) per range in file order: a group's
    line plus its range's first line is the line of its first row, and the
    row loop's groups are one range whose first line is 0.  A return or
    volume that overflows raises CsvParseError at the line of the day's
    first row.

    Each minute takes the price of its last row, and as volume either its
    last row's (``sum_volume`` false) or the sum over its rows.  A day
    missing more than ``max_missing`` minutes is rejected.  The first minute
    of a session links to the symbol's previous session's last price, even
    when that session was rejected, else carries return 0.
    """
    held: dict[tuple[str, dt.date], list] = {}
    for first_line, groups in ranges:
        while groups:
            key, (line_no, *buffers) = groups.popitem()
            held.setdefault(key, []).append((first_line + line_no, buffers))
    result = IngestResult()
    prior_symbol: str | None = None
    prior_close: float | None = None
    for symbol, day in sorted(held):
        line_no, minutes, prices, volumes = _pop_group(held, (symbol, day))
        if symbol != prior_symbol:
            prior_symbol, prior_close = symbol, None
        # the last row of each minute, in minute order
        present, first_from_end = np.unique(minutes[::-1], return_index=True)
        last = minutes.shape[0] - 1 - first_from_end
        closes = prices[last]
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
            if not np.isfinite(returns).all():
                raise CsvParseError(line_no, f"{symbol} {day}: minute return overflows")
            if sum_volume:
                # bincount adds in file order, as a running sum would
                dollar_volume = np.bincount(minutes, weights=volumes, minlength=t)
            else:
                dollar_volume = np.zeros(t)
                dollar_volume[present] = volumes[last]
            if not np.isfinite(dollar_volume).all():
                raise CsvParseError(line_no, f"{symbol} {day}: dollar volume overflows")
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
    ranges = _buffer_blocks(path, spec)
    if ranges is None:
        ranges = [(0, _buffer_rows(path, spec, _MINUTE_COLUMNS, ticks=False))]
    t = spec.minutes_per_day
    return _build_grids(ranges, t, int(MAX_MISSING_FRACTION * t), sum_volume=False)


def ingest_tick_csv(path, spec: CalendarSpec) -> IngestResult:
    """Read ``timestamp,symbol,price,size`` tick rows into MinuteGrids.

    Ticks must be time-sorted within each (symbol, session); one earlier
    than the previous tick of its session raises CsvParseError at its line.
    Each minute takes its last price and the summed ``price * size``.
    Quiet minutes are normal in tick data, so no day is rejected.  The first
    minute of a session links to the prior session's last traded price when
    available.
    """
    groups = _buffer_rows(path, spec, _TICK_COLUMNS, ticks=True)
    t = spec.minutes_per_day
    return _build_grids([(0, groups)], t, t, sum_volume=True)


def ingest_csv(path, spec: CalendarSpec) -> IngestResult:
    """ingest_minute_csv or ingest_tick_csv, as the file's header row names.
    Only that row is read to choose; any other header raises CsvParseError
    at line 1 naming both."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise CsvParseError(1, "empty file")
    columns = [h.strip().lower() for h in header]
    if columns == _MINUTE_COLUMNS:
        return ingest_minute_csv(path, spec)
    if columns == _TICK_COLUMNS:
        return ingest_tick_csv(path, spec)
    raise CsvParseError(1, f"expected header {','.join(_MINUTE_COLUMNS)} (minute bars) "
                           f"or {','.join(_TICK_COLUMNS)} (ticks)")


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
