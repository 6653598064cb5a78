"""Minute-grid ingestion, tick aggregation, and day-level compounding."""

import codecs
import csv
import datetime as dt
import multiprocessing
import os
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liqcov import marketdata
from liqcov.marketdata import (
    CalendarSpec,
    MAX_MISSING_FRACTION,
    CsvParseError,
    DomainError,
    IngestResult,
    MinuteGrid,
    RejectedDay,
    daily_compound_return,
    group_by_day,
    ingest_csv,
    ingest_minute_csv,
    ingest_tick_csv,
    read_grids_csv,
    write_grids_csv,
)
from liqcov.marketdata import _parse_float, _parse_timestamp
from liqcov.synthetic import write_synthetic_csv

UTC = dt.timezone.utc


def minute_csv(tmp_path, rows):
    path = tmp_path / "data.csv"
    lines = ["timestamp,symbol,close,dollar_volume"] + rows
    path.write_text("\n".join(lines) + "\n")
    return path


def stamp(day, minute):
    return f"2021-03-{day:02d}T00:{minute:02d}:00Z"


def session_start(spec, day):
    return dt.datetime.combine(day, spec.day_boundary, tzinfo=UTC)


class TestIngest:
    def test_two_assets_three_days_shapes(self, tmp_path):
        rows = []
        for sym in ("AAA", "BBB"):
            for day in (1, 2, 3):
                for minute in range(4):
                    rows.append(f"{stamp(day, minute)},{sym},100.0,5.0")
        result = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(4))
        assert len(result.grids) == 6
        assert all(g.returns.shape == (4,) for g in result.grids)
        assert not result.rejected

    def test_constant_close_gives_zero_returns(self, tmp_path):
        rows = [f"{stamp(1, m)},AAA,42.5,1.0" for m in range(6)]
        result = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(6))
        np.testing.assert_array_equal(result.grids[0].returns, np.zeros(6))

    def test_returns_match_row_by_row_oracle(self, tmp_path):
        closes = [100.0, 101.0, 101.0, 99.98, 100.5, 100.5]
        rows = [f"{stamp(1, m)},AAA,{c},7.0" for m, c in enumerate(closes)]
        result = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(6))
        # spreadsheet-style recomputation: first minute has no prior close
        expected = [0.0] + [closes[i] / closes[i - 1] - 1.0 for i in range(1, 6)]
        np.testing.assert_allclose(result.grids[0].returns, expected, rtol=0, atol=0)

    def test_first_minute_links_to_prior_session_close(self, tmp_path):
        rows = [f"{stamp(1, m)},AAA,100.0,1.0" for m in range(4)]
        rows += [f"{stamp(2, 0)},AAA,102.0,1.0"]
        rows += [f"{stamp(2, m)},AAA,102.0,1.0" for m in range(1, 4)]
        result = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(4))
        day2 = [g for g in result.grids if g.date == dt.date(2021, 3, 2)][0]
        assert day2.returns[0] == pytest.approx(0.02)

    def test_missing_minutes_filled_and_rejection_rule(self, tmp_path):
        # day 1: 1 of 10 minutes missing (10% <= 20%, kept, zero-filled)
        rows = [f"{stamp(1, m)},AAA,100.0,3.0" for m in range(10) if m != 4]
        # day 2: 3 of 10 missing (30% > 20%, rejected)
        rows += [f"{stamp(2, m)},AAA,100.0,3.0" for m in range(10) if m > 2]
        result = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(10))
        assert len(result.grids) == 1
        grid = result.grids[0]
        assert grid.date == dt.date(2021, 3, 1)
        assert grid.dollar_volume[4] == 0.0 and grid.returns[4] == 0.0
        assert len(result.rejected) == 1
        assert result.rejected[0].missing_minutes == 3

    def test_malformed_row_reports_line_number(self, tmp_path):
        rows = [f"{stamp(1, 0)},AAA,100.0,1.0", "not-a-time,AAA,100.0,1.0"]
        with pytest.raises(CsvParseError, match="line 3"):
            ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(4))

    def test_epoch_millisecond_timestamps(self, tmp_path):
        base = int(dt.datetime(2021, 3, 1, tzinfo=UTC).timestamp() * 1000)
        rows = [f"{base + m * 60000},AAA,100.0,1.0" for m in range(4)]
        result = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(4))
        assert result.grids[0].date == dt.date(2021, 3, 1)

    def test_serialize_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        # a symbol with a comma and a quote must come back as written
        grids = [
            MinuteGrid(sym, dt.date(2021, 3, 1 + d),
                       rng.normal(0, 1e-3, 8), rng.lognormal(3, 1, 8))
            for sym in ("AAA", 'B,"B') for d in range(3)
        ]
        path = tmp_path / "grids.csv"
        write_grids_csv(path, grids)
        round1 = read_grids_csv(path)
        path2 = tmp_path / "grids2.csv"
        write_grids_csv(path2, round1)
        round2 = read_grids_csv(path2)
        assert path.read_bytes() == path2.read_bytes()
        assert [(g.symbol, g.date) for g in round1] == [(g.symbol, g.date) for g in grids]
        for g1, g2 in zip(round1, round2):
            assert np.array_equal(g1.returns, g2.returns)
            assert np.array_equal(g1.dollar_volume, g2.dollar_volume)


def _ingest_oracle(path, spec):
    """Row-by-row reference for ingest_minute_csv on well-formed input:
    nested symbol -> day -> minute dicts, one timestamp parse per row."""
    per_symbol = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            loc = spec.locate(_parse_timestamp(row[0], line_no))
            if loc is None:
                continue
            close = _parse_float(row[2], "close", line_no)
            volume = _parse_float(row[3], "dollar_volume", line_no)
            day, minute = loc
            per_symbol.setdefault(row[1].strip(), {}).setdefault(day, {})[minute] = (close, volume)
    result = IngestResult()
    t = spec.minutes_per_day
    max_missing = int(MAX_MISSING_FRACTION * t)
    for symbol in sorted(per_symbol):
        prior_close = None
        for day in sorted(per_symbol[symbol]):
            minutes = per_symbol[symbol][day]
            missing = t - len(minutes)
            if missing > max_missing:
                result.rejected.append(
                    RejectedDay(symbol, day, missing, t, f"{missing}/{t} minutes missing"))
                prior_close = minutes[max(minutes)][0]
                continue
            returns = np.zeros(t)
            volumes = np.zeros(t)
            ref = prior_close
            for minute in range(t):
                if minute in minutes:
                    close, volume = minutes[minute]
                    returns[minute] = 0.0 if ref is None else close / ref - 1.0
                    volumes[minute] = volume
                    ref = close
            result.grids.append(MinuteGrid(symbol, day, returns, volumes))
            prior_close = ref
    return result


def _random_minute_rows(seed, spec, n_symbols=3, n_days=6):
    """Shuffled rows with gaps, repeated timestamps, rejected days, rows
    outside the session and three timestamp spellings of the same instant."""
    rng = random.Random(seed)
    t = spec.minutes_per_day
    first = dt.date(2021, 3, 1)
    rows = []

    def spell(ts):
        form = rng.randrange(3)
        if form == 0:
            return ts.strftime("%Y-%m-%dT%H:%M:%SZ")
        if form == 1:
            return str(int(ts.timestamp()) * 1000)
        return ts.astimezone(dt.timezone(dt.timedelta(hours=2))).isoformat()

    for s in range(n_symbols):
        price = 100.0 * (s + 1)
        for d in range(n_days):
            start = session_start(spec, first + dt.timedelta(days=d))
            # day 1 of every symbol is rejected, day 2 keeps a gap below the
            # limit, the rest lose a random handful of minutes
            drop = {1: 0.5, 2: 0.1}.get(d, rng.choice((0.0, 0.05, 0.4)))
            for m in range(-2, t + 3):     # two minutes either side of the session
                if 0 <= m < t and rng.random() < drop:
                    continue
                price *= 1.0 + rng.gauss(0.0, 1e-3)
                ts = start + dt.timedelta(minutes=m, seconds=rng.randrange(60))
                rows.append(f"{spell(ts)},S{s},{price!r},{rng.uniform(0, 1e4)!r}")
                if rng.random() < 0.1:     # the same timestamp again, other values
                    rows.append(f"{spell(ts)},S{s},{price * 1.01!r},{rng.uniform(0, 1e4)!r}")
    rng.shuffle(rows)
    return rows


class TestIngestOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec", [CalendarSpec.crypto(30), CalendarSpec(30, dt.time(13, 30))],
                             ids=["crypto-00:00", "equity-13:30"])
    def test_matches_nested_dict_oracle(self, tmp_path, seed, spec):
        path = minute_csv(tmp_path, _random_minute_rows(seed, spec))
        got = ingest_minute_csv(path, spec)
        want = _ingest_oracle(path, spec)
        assert got.rejected == want.rejected
        assert [(g.symbol, g.date) for g in got.grids] == [(g.symbol, g.date) for g in want.grids]
        for g, w in zip(got.grids, want.grids):
            assert np.array_equal(g.returns, w.returns)
            assert np.array_equal(g.dollar_volume, w.dollar_volume)
        # the input covers what the oracle is there to check
        assert {r.date.day for r in want.rejected} >= {2}
        assert any(g.date.day == 3 and g.returns[0] != 0.0 for g in want.grids)

    def test_repeated_timestamp_keeps_last_row(self, tmp_path):
        rows = [f"{stamp(1, m)},AAA,100.0,1.0" for m in range(4)]
        rows += [f"{stamp(1, 2)},AAA,110.0,9.0"]
        grid = ingest_minute_csv(minute_csv(tmp_path, rows), CalendarSpec.crypto(4)).grids[0]
        assert grid.returns[2] == pytest.approx(0.1) and grid.dollar_volume[2] == 9.0
        assert grid.returns[3] == pytest.approx(100.0 / 110.0 - 1.0)

    def test_peak_memory_stays_near_the_grids(self, tmp_path):
        path = tmp_path / "minutes.csv"
        write_synthetic_csv(path, n_assets=4, n_days=10, minutes_per_day=1440, seed=3)
        tracemalloc.start()
        try:
            result = ingest_minute_csv(path, CalendarSpec.crypto(1440))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = sum(g.returns.nbytes + g.dollar_volume.nbytes for g in result.grids)
        assert len(result.grids) == 40
        assert peak <= 8 * grid_bytes


def using_cpus(cpus):
    """Make the reader see the given set of usable CPUs."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(cpus), create=True)


def _row_loop_alone():
    """Make ingest_minute_csv read every file with the row loop."""
    return mock.patch.object(marketdata, "_buffer_blocks", return_value=None)


def _outcome(path, spec):
    """ingest_minute_csv's grids as bytes and rejected days, or its error."""
    try:
        result = ingest_minute_csv(path, spec)
    except CsvParseError as exc:
        return "error", exc.line_no, exc.detail
    grids = [(g.symbol, g.date, g.returns.tobytes(), g.dollar_volume.tobytes())
             for g in result.grids]
    return "result", grids, result.rejected


# lines that only the row loop reads, by what makes them so; each row among
# them names minute 1 of AAA's 2021-03-01 session, so that a row the row loop
# keeps merges with the plain rows
NOT_PLAIN = {
    "quoted-symbol": '2021-03-01T00:01:00Z,"AAA",100.0,1.0',
    "crlf": "2021-03-01T00:01:00Z,AAA,100.0,1.0\r",
    "blank": "",
    "whitespace-only": "   ",
    "underscore": "2021-03-01T00:01:00Z,AAA,1_000,1.0",
    "nan": "2021-03-01T00:01:00Z,AAA,100.0,nan",
    "infinite-volume": "2021-03-01T00:01:00Z,AAA,100.0,inf",
    "infinite-close": "2021-03-01T00:01:00Z,AAA,1e999,1.0",
    "arabic-digits": "2021-03-01T00:01:00Z,AAA,\u0661\u0662\u0663,1.0",
    "field-too-many": "2021-03-01T00:01:00Z,AAA,100.0,1.0,2.0",
    "field-too-few": "2021-03-01T00:01:00Z,AAA,100.0",
    "nul": "2021-03-01T00:01:00Z,AAA\0,100.0,1.0",
    "negative-close": "2021-03-01T00:01:00Z,AAA,-100.0,1.0",
    "empty-symbol": "2021-03-01T00:01:00Z, ,100.0,1.0",
    "bad-timestamp": "2021-03-01T00:61:00Z,AAA,100.0,1.0",
    "impossible-date": "2021-02-29T00:01:00Z,AAA,100.0,1.0",
    "year-zero": "0000-03-01T00:01:00Z,AAA,100.0,1.0",
}
# plain lines, of the same minute, that the block reader reads itself
PLAIN = {
    "utc": "2021-03-01T00:01:00Z,AAA,101.0,2.0",
    "epoch-ms": f"{int(dt.datetime(2021, 3, 1, 0, 1, tzinfo=UTC).timestamp()) * 1000},AAA,101.0,2.0",
    "plus-two-hours": "2021-03-01T02:01:00+02:00,AAA,101.0,2.0",
    "out-of-session": "2021-03-01T00:09:00Z,AAA,101.0,2.0",
    "padded-symbol": "2021-03-01T00:01:00Z, AAA ,101.0,2.0",
}


@st.composite
def minute_files(draw):
    """Small minute CSVs: plain rows of two symbols over two 6-minute
    sessions, in three timestamp spellings, some outside the session, and in
    half the files some lines only the row loop reads."""
    lines = []
    mixed = draw(st.booleans())
    for _ in range(draw(st.integers(0, 40))):
        if mixed and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(sorted(NOT_PLAIN.values()))))
            continue
        ts = dt.datetime(2021, 3, draw(st.integers(1, 2)), tzinfo=UTC) + dt.timedelta(
            minutes=draw(st.integers(-1, 7)), seconds=draw(st.integers(0, 59)))
        spelling = draw(st.sampled_from(["utc", "epoch-ms", "plus-two-hours"]))
        stamp_text = {
            "utc": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "epoch-ms": str(int(ts.timestamp()) * 1000),
            "plus-two-hours": ts.astimezone(dt.timezone(dt.timedelta(hours=2))).isoformat(),
        }[spelling]
        # a multi-byte symbol, and one holding U+0085, which str.splitlines
        # would take for a line break
        symbol = draw(st.sampled_from(["AAA", "BBB", " AAA", "\u00c9AA", "B\u0085B"]))
        # a close of 1e300 after one of 1e-300 overflows the day's return,
        # an error raised at the line of the day's first row
        close = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300])))
        volume = draw(st.floats(0, 1e6))
        lines.append(f"{stamp_text},{symbol},{close!r},{volume!r}")
    return "\n".join(["timestamp,symbol,close,dollar_volume"] + lines) + "\n"


class TestBlockReader:
    """The block reader against the row loop, the reference it must match."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=minute_files(), block_lines=st.integers(1, 9), chunk_bytes=st.integers(1, 200),
           spec=st.sampled_from([CalendarSpec.crypto(6), CalendarSpec(6, dt.time(0, 3))]))
    def test_equals_the_row_loop(self, tmp_path, text, block_lines, chunk_bytes, spec):
        # each example rewrites the one file, whose ranges are read in this process
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(marketdata, "_BLOCK_LINES", block_lines), \
                mock.patch.object(marketdata, "_CHUNK_BYTES", chunk_bytes), using_cpus({0}):
            got = _outcome(path, spec)
        with _row_loop_alone():
            want = _outcome(path, spec)
        assert got == want

    @staticmethod
    def plain_file(tmp_path, extra: str):
        """6-minute sessions of AAA and BBB on two days, then extra, then
        AAA's third session: 31 lines after the header."""
        rows = [f"2021-03-0{day}T00:0{m}:00Z,{sym},{100.0 + m!r},1.0"
                for day in (1, 2) for sym in ("AAA", "BBB") for m in range(6)]
        rows.append(extra)
        rows += [f"2021-03-03T00:0{m}:00Z,AAA,{100.0 + m!r},1.0" for m in range(6)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["timestamp,symbol,close,dollar_volume"] + rows) + "\n",
                        encoding="utf-8", newline="")
        return path

    @pytest.mark.parametrize("feature", sorted(PLAIN))
    def test_plain_file_never_enters_the_row_loop(self, tmp_path, feature):
        path = self.plain_file(tmp_path, PLAIN[feature])
        spec = CalendarSpec.crypto(6)
        with mock.patch.object(marketdata, "_BLOCK_LINES", 4), \
                mock.patch.object(marketdata, "_buffer_rows", wraps=marketdata._buffer_rows) as rows:
            got = _outcome(path, spec)
        assert rows.call_count == 0
        with _row_loop_alone():
            assert got == _outcome(path, spec)
        assert got[0] == "result" and len(got[1]) == 5

    @pytest.mark.parametrize("feature", sorted(PLAIN))
    def test_only_other_spellings_are_parsed_in_python(self, tmp_path, feature):
        # every row but the extra one is written YYYY-MM-DDTHH:MM:SSZ; an extra
        # row in another spelling sends its 4-line block, 4 distinct
        # timestamps, to the parse per distinct timestamp
        path = self.plain_file(tmp_path, PLAIN[feature])
        with mock.patch.object(marketdata, "_BLOCK_LINES", 4), \
                mock.patch.object(marketdata, "_parse_timestamp",
                                  wraps=marketdata._parse_timestamp) as parse:
            ingest_minute_csv(path, CalendarSpec.crypto(6))
        assert parse.call_count == (4 if feature in ("epoch-ms", "plus-two-hours") else 0)

    def test_ranges_read_in_one_process_parse_each_timestamp_once(self, tmp_path):
        # two symbols at the same six epoch-ms stamps, about two lines a range
        rows = [f"{int(dt.datetime(2021, 3, 1, 0, m, tzinfo=UTC).timestamp()) * 1000},{sym},100.0,1.0"
                for sym in ("AAA", "BBB") for m in range(6)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["timestamp,symbol,close,dollar_volume"] + rows) + "\n")
        with mock.patch.object(marketdata, "_CHUNK_BYTES", 40), using_cpus({0}), \
                mock.patch.object(marketdata, "_parse_timestamp",
                                  wraps=marketdata._parse_timestamp) as parse:
            assert len(ingest_minute_csv(path, CalendarSpec.crypto(6)).grids) == 2
        assert parse.call_count == 6

    @pytest.mark.parametrize("feature", sorted(NOT_PLAIN))
    def test_each_feature_sends_the_file_to_the_row_loop_once(self, tmp_path, feature):
        path = self.plain_file(tmp_path, NOT_PLAIN[feature])
        spec = CalendarSpec.crypto(6)
        # the feature is in the seventh of eight 4-line blocks
        with mock.patch.object(marketdata, "_BLOCK_LINES", 4), \
                mock.patch.object(marketdata, "_buffer_rows", wraps=marketdata._buffer_rows) as rows:
            got = _outcome(path, spec)
        assert rows.call_count == 1
        with _row_loop_alone():
            assert got == _outcome(path, spec)

    @staticmethod
    def ranged_file(tmp_path, last_line=None):
        """A minute file of 42-byte lines, each range two lines under
        _CHUNK_BYTES = 65: every cut falls at byte 22 of a line, inside its
        symbol, which is "\u00c9AA" (two bytes at 21-22) or "B\u0085B" (U+0085
        at 22-23).  last_line, when given, replaces the file's last line."""
        rows = [f"2021-03-0{day}T00:0{m}:00Z,{sym},{100.0 + m + day / 8:.4f},{1.5 + m:.4f}"
                for sym in ("\u00c9AA", "B\u0085B") for day in (1, 2) for m in range(6)]
        assert {len(row.encode()) + 1 for row in rows} == {42}
        if last_line is not None:
            rows[-1] = last_line
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["timestamp,symbol,close,dollar_volume"] + rows) + "\n",
                        encoding="utf-8", newline="")
        return path

    @pytest.mark.parametrize("last_line", [None, "2021-03-02T00:05:00Z,B\u0085B,abc,1.0"],
                             ids=["plain", "bad-last-row"])
    def test_workers_equal_one_cpu_and_the_row_loop(self, tmp_path, last_line):
        path = self.ranged_file(tmp_path, last_line)
        spec = CalendarSpec.crypto(6)
        with mock.patch.object(marketdata, "_CHUNK_BYTES", 65), \
                mock.patch.object(marketdata, "_buffer_rows", wraps=marketdata._buffer_rows) as rows:
            with using_cpus({0}):
                serial = _outcome(path, spec)
            with using_cpus({0, 1}):
                pooled = _outcome(path, spec)
        # the bad row, and it alone, sends each read to the row loop
        assert rows.call_count == (0 if last_line is None else 2)
        with _row_loop_alone():
            assert serial == pooled == _outcome(path, spec)
        if last_line is None:
            assert serial[0] == "result" and len(serial[1]) == 4
            assert {grid[0] for grid in serial[1]} == {"\u00c9AA", "B\u0085B"}
        else:
            assert serial == ("error", 25, "bad close 'abc'")

    def test_no_worker_outlives_a_read(self, tmp_path):
        spec = CalendarSpec.crypto(6)
        plain = self.ranged_file(tmp_path)
        with mock.patch.object(marketdata, "_CHUNK_BYTES", 65), using_cpus({0, 1}):
            assert len(ingest_minute_csv(plain, spec).grids) == 4
            assert multiprocessing.active_children() == []
            # a quoted last row: the row loop reads the file
            quoted = self.ranged_file(tmp_path, '2021-03-02T00:05:00Z,"B\u0085B",105.25,6.5')
            assert _outcome(quoted, spec)[0] == "result"
            assert multiprocessing.active_children() == []
            with mock.patch.object(marketdata, "_buffer_block", side_effect=TypeError("bug")), \
                    pytest.raises(TypeError, match="bug"):
                ingest_minute_csv(plain, spec)
            assert multiprocessing.active_children() == []

    def test_tick_files_keep_the_row_loop(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text(f"timestamp,symbol,price,size\n{stamp(1, 0)},AAA,10.0,1.0\n")
        with mock.patch.object(marketdata, "_buffer_blocks") as blocks:
            ingest_tick_csv(path, CalendarSpec.crypto(3))
        blocks.assert_not_called()


def _locate_oracle(spec, ts):
    """CalendarSpec.locate as it stood before it counted microseconds since
    the epoch: right for UTC timestamps, not for others."""
    b = spec.day_boundary
    shifted = ts - dt.timedelta(seconds=b.hour * 3600 + b.minute * 60 + b.second)
    day = shifted.date()
    minute = int((ts - session_start(spec, day)).total_seconds() // 60)
    return (day, minute) if 0 <= minute < spec.minutes_per_day else None


class TestLocate:
    def test_zone_aware_timestamp_takes_the_utc_session_day(self):
        ts = dt.datetime(2020, 1, 1, 23, 30, tzinfo=dt.timezone(dt.timedelta(hours=-5)))
        assert CalendarSpec.crypto(1440).locate(ts) == (dt.date(2020, 1, 2), 270)

    @settings(max_examples=500, deadline=None)
    @given(local=st.datetimes(min_value=dt.datetime(2, 1, 1),
                              max_value=dt.datetime(9998, 12, 31, 23, 59, 59, 999999)),
           offset=st.integers(-14 * 60, 14 * 60),
           boundary=st.sampled_from([dt.time(0, 0), dt.time(13, 30), dt.time(23, 59, 59)]),
           minutes=st.integers(2, 1440))
    def test_locates_the_instant(self, local, offset, boundary, minutes):
        spec = CalendarSpec(minutes, boundary)
        ts = local.replace(tzinfo=dt.timezone(dt.timedelta(minutes=offset)))
        utc = ts.astimezone(UTC)
        assert spec.locate(ts) == spec.locate(utc) == _locate_oracle(spec, utc)
        assert spec.locate(local) == spec.locate(local.replace(tzinfo=UTC))


def _utc_seconds(year, month, day, hour, minute, second):
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"


# YYYY-MM-DDTHH:MM:SSZ stamps with an impossible field, before the earliest
# timestamp (year 0 is one numpy parses), or at a valid extreme
EDGE_STAMPS = [
    "2021-00-10T12:00:00Z", "2021-13-10T12:00:00Z", "2021-02-29T12:00:00Z",
    "1900-02-29T12:00:00Z", "2021-04-31T12:00:00Z", "2021-03-10T24:00:00Z",
    "2021-03-10T12:60:00Z", "2021-03-10T12:00:60Z", "0000-01-01T00:00:00Z",
    "0000-12-31T23:59:59Z", "0001-01-01T00:00:00Z", "0001-01-01T23:59:59Z",
    "0001-01-02T00:00:00Z", "2000-02-29T00:00:00Z", "2020-02-29T23:59:59Z",
    "9999-12-31T23:59:59Z",
]


@st.composite
def utc_second_stamps(draw):
    """1-6 stamps written YYYY-MM-DDTHH:MM:SSZ: valid instants, random digit
    fields (about a quarter impossible) and EDGE_STAMPS."""
    stamps = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            ts = draw(st.datetimes(min_value=dt.datetime(1, 1, 1),
                                   max_value=dt.datetime(9999, 12, 31, 23, 59, 59)))
            stamps.append(_utc_seconds(ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second))
        elif kind == 1:
            stamps.append(_utc_seconds(
                draw(st.integers(0, 9999)), draw(st.integers(0, 13)), draw(st.integers(0, 31)),
                draw(st.integers(0, 24)), draw(st.integers(0, 60)), draw(st.integers(0, 60))))
        else:
            stamps.append(draw(st.sampled_from(EDGE_STAMPS)))
    return stamps


class TestLocateUtcSeconds:
    """The block reader's one-step locate against the parse it replaces."""

    @settings(max_examples=500, deadline=None)
    @given(stamps=utc_second_stamps(),
           boundary=st.sampled_from([dt.time(0, 0), dt.time(13, 30), dt.time(23, 59, 59)]),
           minutes=st.integers(2, 1440))
    def test_equals_the_parse_or_declines(self, stamps, boundary, minutes):
        spec = CalendarSpec(minutes, boundary)
        want = []
        for line_no, raw in enumerate(stamps, start=2):
            try:
                loc = spec.locate(_parse_timestamp(raw, line_no))
            except CsvParseError:
                want = None
                break
            want.append(-1 if loc is None else loc[0].toordinal() * 1440 + loc[1])
        got = marketdata._locate_utc_seconds(np.array(stamps, dtype=object), spec)
        # it declines exactly the arrays with a timestamp the parse rejects
        assert (None if got is None else got.tolist()) == want

    @pytest.mark.parametrize("raw", [
        "2021-03-01T00:01:00", "2021-03-01T00:01:00z", "2021-03-01t00:01:00Z",
        "2021-03-01 00:01:00Z", " 2021-03-01T00:01:00Z", "2021-03-01T00:01:00Z ",
        "2021-03-01T00:01:00.5Z", "2021-03-01T00:01:00+00:00", "1614556860000",
        "2021-3-01T00:01:00Z", "２021-03-01T00:01:00Z", "2021–03-01T00:01:00Z", ""])
    def test_other_spellings_decline(self, raw):
        stamps = np.array(["2021-03-01T00:00:00Z", raw], dtype=object)
        assert marketdata._locate_utc_seconds(stamps, CalendarSpec.crypto(1440)) is None


class TestReadGridsCsv:
    @staticmethod
    def dump(tmp_path, edit):
        grids = [MinuteGrid(sym, dt.date(2021, 3, d), np.full(4, 0.001), np.ones(4))
                 for sym in ("AAA", "BBB") for d in (1, 2)]
        path = tmp_path / "grids.csv"
        write_grids_csv(path, grids)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_minute_gap_names_symbol_and_date(self, tmp_path):
        # lines 6-9 hold AAA's second day; drop its minute 2
        path = self.dump(tmp_path, lambda lines: lines.pop(7))
        with pytest.raises(CsvParseError, match="line 6: AAA 2021-03-02: minute 2 missing"):
            read_grids_csv(path)

    def test_short_grid_rejected(self, tmp_path):
        path = self.dump(tmp_path, lambda lines: lines.pop())
        with pytest.raises(CsvParseError, match="BBB 2021-03-02: minute 3 missing"):
            read_grids_csv(path)

    @pytest.mark.parametrize("field,value,message", [
        (1, "2021-13-01", "bad date"),
        (2, "x", "bad minute"),
        (2, "-1", "bad minute"),
        (3, "abc", "bad return"),
        (4, "nan", "non-finite dollar_volume"),
    ])
    def test_bad_field_reports_line_number(self, tmp_path, field, value, message):
        def edit(lines):
            fields = lines[4].split(",")
            fields[field] = value
            lines[4] = ",".join(fields)

        with pytest.raises(CsvParseError, match=f"line 5: {message}"):
            read_grids_csv(self.dump(tmp_path, edit))

    def test_repeated_minute_rejected(self, tmp_path):
        path = self.dump(tmp_path, lambda lines: lines.insert(3, lines[2]))
        with pytest.raises(CsvParseError, match="line 4: repeated minute 1 of AAA 2021-03-01"):
            read_grids_csv(path)


def tick_grids(tmp_path, ticks, spec):
    """ingest_tick_csv over (timestamp, symbol, price, size) ticks written as CSV."""
    path = tmp_path / "ticks.csv"
    lines = ["timestamp,symbol,price,size"]
    lines += [f"{ts.isoformat()},{sym},{price!r},{size!r}" for ts, sym, price, size in ticks]
    path.write_text("\n".join(lines) + "\n")
    return ingest_tick_csv(path, spec).grids


class TestAggregateTicks:
    def test_one_tick_per_minute(self, tmp_path):
        spec = CalendarSpec.crypto(4)
        ticks = [
            (dt.datetime(2021, 3, 1, 0, m, 30, tzinfo=UTC), "AAA", 10.0 + m, 2.0)
            for m in range(4)
        ]
        [grid] = tick_grids(tmp_path, ticks, spec)
        assert grid.symbol == "AAA"
        np.testing.assert_allclose(grid.dollar_volume, [(10.0 + m) * 2.0 for m in range(4)])

    def test_empty_minute_gap_fill(self, tmp_path):
        spec = CalendarSpec.crypto(3)
        ticks = [
            (dt.datetime(2021, 3, 1, 0, 0, tzinfo=UTC), "AAA", 10.0, 1.0),
            (dt.datetime(2021, 3, 1, 0, 2, tzinfo=UTC), "AAA", 11.0, 1.0),
        ]
        [grid] = tick_grids(tmp_path, ticks, spec)
        assert grid.returns[1] == 0.0 and grid.dollar_volume[1] == 0.0
        assert grid.returns[2] == pytest.approx(0.1)

    def test_random_ticks_match_group_by_oracle(self, tmp_path):
        rng = np.random.default_rng(77)
        spec = CalendarSpec.crypto(60)
        base = dt.datetime(2021, 3, 1, tzinfo=UTC)
        offsets = np.sort(rng.uniform(0, 60 * 60, 1000))
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 1e-4, 1000)))
        sizes = rng.uniform(0.1, 5.0, 1000)
        ticks = [
            (base + dt.timedelta(seconds=float(s)), "AAA", float(p), float(q))
            for s, p, q in zip(offsets, prices, sizes)
        ]
        [grid] = tick_grids(tmp_path, ticks, spec)

        by_minute = {}
        for ts, _, p, q in ticks:
            by_minute.setdefault(ts.minute, []).append((p, q))
        volume = np.zeros(60)
        last = np.full(60, np.nan)
        for m, entries in by_minute.items():
            for p, q in entries:
                volume[m] += p * q
            last[m] = entries[-1][0]
        np.testing.assert_array_equal(grid.dollar_volume, volume)
        ref = None
        expected = np.zeros(60)
        for m in range(60):
            if not np.isnan(last[m]):
                if ref is not None:
                    expected[m] = last[m] / ref - 1.0
                ref = last[m]
        np.testing.assert_array_equal(grid.returns, expected)
        assert grid.dollar_volume.sum() == pytest.approx(float(np.sum(prices * sizes)))

    def test_unsorted_ticks_rejected(self, tmp_path):
        spec = CalendarSpec.crypto(4)
        ticks = [
            (dt.datetime(2021, 3, 1, 0, 1, tzinfo=UTC), "AAA", 10.0, 1.0),
            (dt.datetime(2021, 3, 1, 0, 0, tzinfo=UTC), "AAA", 10.0, 1.0),
        ]
        with pytest.raises(CsvParseError, match="line 3: tick at .* is earlier"):
            tick_grids(tmp_path, ticks, spec)


class TestIngestTickCsv:
    def test_groups_by_symbol_and_session(self, tmp_path):
        rows = ["timestamp,symbol,price,size"]
        for day in (1, 2):
            for sym, price in (("AAA", 10.0), ("BBB", 20.0)):
                for minute in range(3):
                    rows.append(f"{stamp(day, minute)},{sym},{price + minute},2.0")
        path = tmp_path / "ticks.csv"
        path.write_text("\n".join(rows) + "\n")
        result = ingest_tick_csv(path, CalendarSpec.crypto(3))
        assert len(result.grids) == 4
        aaa_day2 = [g for g in result.grids if g.symbol == "AAA" and g.date.day == 2][0]
        # first minute links to the prior session's last trade (12 -> 10)
        assert aaa_day2.returns[0] == pytest.approx(10.0 / 12.0 - 1.0)
        np.testing.assert_allclose(aaa_day2.dollar_volume, [20.0, 22.0, 24.0])

    def test_bad_row_line_number(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("timestamp,symbol,price,size\n" + f"{stamp(1, 0)},AAA,oops,1\n")
        with pytest.raises(CsvParseError, match="line 2"):
            ingest_tick_csv(path, CalendarSpec.crypto(3))


class TestIngestCsv:
    """ingest_csv picks the reader from the header row."""

    # rows either reader takes: two per minute, and a second day that only
    # the minute-bar reader rejects
    ROWS = [f"{stamp(1, m)},{sym},{10.0 + m + k!r},{2.0 + k!r}"
            for sym in ("AAA", "BBB") for m in range(4) for k in range(2)]
    ROWS += [f"{stamp(2, 0)},AAA,11.0,1.0", f"{stamp(2, 0)},BBB,12.0,3.0",
             f"{stamp(2, 1)},BBB,12.5,3.0", f"{stamp(2, 2)},BBB,13.0,3.0",
             f"{stamp(2, 3)},BBB,12.0,3.0"]

    @staticmethod
    def outcome(result):
        return ([(g.symbol, g.date, g.returns.tobytes(), g.dollar_volume.tobytes())
                 for g in result.grids], result.rejected)

    @pytest.mark.parametrize("reader, header", [
        (ingest_minute_csv, "timestamp,symbol,close,dollar_volume"),
        (ingest_minute_csv, '"Timestamp", SYMBOL ,close,Dollar_Volume'),
        (ingest_tick_csv, "timestamp,symbol,price,size"),
        (ingest_tick_csv, "TIMESTAMP,symbol, price ,size"),
    ], ids=["minute", "minute-spelled", "tick", "tick-spelled"])
    def test_header_picks_the_reader(self, tmp_path, reader, header):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + self.ROWS) + "\n")
        spec = CalendarSpec.crypto(4)
        assert self.outcome(ingest_csv(path, spec)) == self.outcome(reader(path, spec))
        # so ingest_csv did not call the other reader
        other = ingest_tick_csv if reader is ingest_minute_csv else ingest_minute_csv
        with pytest.raises(CsvParseError, match="line 1: expected header"):
            other(path, spec)

    @pytest.mark.parametrize("header", [
        "timestamp,symbol,close", "timestamp,symbol,price,dollar_volume",
        "symbol,timestamp,close,dollar_volume", "timestamp,symbol,close,dollar_volume,x",
        "", "2021-03-01T00:00:00Z,AAA,10.0,1.0",
    ])
    def test_other_header_fails_at_line_1(self, tmp_path, header):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header] + self.ROWS) + "\n")
        with pytest.raises(CsvParseError, match="line 1: expected header "
                           "timestamp,symbol,close,dollar_volume .* timestamp,symbol,price,size"):
            ingest_csv(path, CalendarSpec.crypto(4))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(CsvParseError, match="line 1: empty file"):
            ingest_csv(path, CalendarSpec.crypto(4))

    @pytest.mark.parametrize("header, extra", [
        ("timestamp,symbol,close,dollar_volume", None),
        ("timestamp,symbol,close,dollar_volume", f'{stamp(2, 3)},"AAA",12.0,1.0'),
        ("timestamp,symbol,price,size", None),
    ], ids=["minute", "minute-row-loop", "tick"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header, extra):
        text = "\n".join([header] + self.ROWS + ([extra] if extra else [])) + "\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        spec = CalendarSpec.crypto(4)
        with mock.patch.object(marketdata, "_buffer_rows", wraps=marketdata._buffer_rows) as rows:
            got = self.outcome(ingest_csv(marked, spec))
        assert got == self.outcome(ingest_csv(plain, spec))
        assert got[0]
        # a plain minute file is read by the block reader, BOM or not
        assert rows.call_count == (0 if header.endswith("volume") and extra is None else 1)


@pytest.mark.parametrize("ingest, header", [
    (ingest_minute_csv, "timestamp,symbol,close,dollar_volume"),
    (ingest_tick_csv, "timestamp,symbol,price,size"),
], ids=["minute", "tick"])
@pytest.mark.parametrize("raw", [
    "99999999999999999",        # epoch milliseconds past year 9999
    "0001-01-01T00:00:00",      # the equity session shift would leave year 1
])
def test_out_of_range_timestamp_reports_line_number(tmp_path, ingest, header, raw):
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\n2021-03-01T14:00:00Z,AAA,100.0,1.0\n{raw},AAA,100.0,1.0\n")
    with pytest.raises(CsvParseError, match="line 3"):
        ingest(path, CalendarSpec(390, dt.time(13, 30)))


class TestCompoundReturn:
    def test_zeros(self):
        assert daily_compound_return(np.zeros(10)) == 0.0

    def test_constant_rate_matches_power_form(self):
        t, c = 390, 2e-4
        assert daily_compound_return(np.full(t, c)) == pytest.approx((1 + c) ** t - 1, rel=1e-14)

    def test_random_vector_matches_product_oracle(self):
        rng = np.random.default_rng(9)
        r = rng.normal(0, 1e-3, 390)
        expected = float(np.prod(1.0 + r) - 1.0)
        assert daily_compound_return(r) == pytest.approx(expected, rel=0, abs=0)

    def test_split_compose_invariance(self):
        rng = np.random.default_rng(10)
        r = rng.normal(0, 1e-3, 100)
        ra = daily_compound_return(r[:40])
        rb = daily_compound_return(r[40:])
        whole = daily_compound_return(r)
        assert (1 + ra) * (1 + rb) - 1 == pytest.approx(whole, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            daily_compound_return(np.array([0.1, -1.0]))


def test_group_by_day_requires_all_symbols():
    g = lambda sym, day: MinuteGrid(sym, dt.date(2021, 3, day), np.zeros(4), np.ones(4))
    grids = [g("AAA", 1), g("BBB", 1), g("AAA", 2)]   # BBB missing on day 2
    days = list(group_by_day(grids))
    assert len(days) == 1 and days[0][0] == dt.date(2021, 3, 1)
