"""Minute-grid ingestion, tick aggregation, and day-level compounding."""

import csv
import datetime as dt
import random
import tracemalloc

import numpy as np
import pytest

from liqcov.marketdata import (
    CalendarSpec,
    MAX_MISSING_FRACTION,
    CsvParseError,
    DomainError,
    IngestResult,
    MinuteGrid,
    RejectedDay,
    aggregate_ticks,
    daily_compound_return,
    group_by_day,
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
            start = spec.session_start(first + dt.timedelta(days=d))
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
    @pytest.mark.parametrize("spec", [CalendarSpec.crypto(30), CalendarSpec.equity(30)],
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


class TestAggregateTicks:
    def test_one_tick_per_minute(self):
        spec = CalendarSpec.crypto(4)
        ticks = [
            (dt.datetime(2021, 3, 1, 0, m, 30, tzinfo=UTC), 10.0 + m, 2.0)
            for m in range(4)
        ]
        grid = aggregate_ticks(ticks, spec, symbol="AAA")
        np.testing.assert_allclose(grid.dollar_volume, [(10.0 + m) * 2.0 for m in range(4)])

    def test_empty_minute_gap_fill(self):
        spec = CalendarSpec.crypto(3)
        ticks = [
            (dt.datetime(2021, 3, 1, 0, 0, tzinfo=UTC), 10.0, 1.0),
            (dt.datetime(2021, 3, 1, 0, 2, tzinfo=UTC), 11.0, 1.0),
        ]
        grid = aggregate_ticks(ticks, spec)
        assert grid.returns[1] == 0.0 and grid.dollar_volume[1] == 0.0
        assert grid.returns[2] == pytest.approx(0.1)

    def test_random_ticks_match_group_by_oracle(self):
        rng = np.random.default_rng(77)
        spec = CalendarSpec.crypto(60)
        base = dt.datetime(2021, 3, 1, tzinfo=UTC)
        offsets = np.sort(rng.uniform(0, 60 * 60, 1000))
        prices = 50.0 * np.exp(np.cumsum(rng.normal(0, 1e-4, 1000)))
        sizes = rng.uniform(0.1, 5.0, 1000)
        ticks = [
            (base + dt.timedelta(seconds=float(s)), float(p), float(q))
            for s, p, q in zip(offsets, prices, sizes)
        ]
        grid = aggregate_ticks(ticks, spec)

        by_minute = {}
        for s, p, q in zip(offsets, prices, sizes):
            by_minute.setdefault(int(s // 60), []).append((p, q))
        volume = np.zeros(60)
        last = np.full(60, np.nan)
        for m, entries in by_minute.items():
            volume[m] = sum(p * q for p, q in entries)
            last[m] = entries[-1][0]
        np.testing.assert_allclose(grid.dollar_volume, volume, rtol=1e-12)
        ref = None
        expected = np.zeros(60)
        for m in range(60):
            if not np.isnan(last[m]):
                if ref is not None:
                    expected[m] = last[m] / ref - 1.0
                ref = last[m]
        np.testing.assert_allclose(grid.returns, expected, rtol=0, atol=1e-15)
        assert grid.dollar_volume.sum() == pytest.approx(float(np.sum(prices * sizes)))

    def test_unsorted_ticks_rejected(self):
        spec = CalendarSpec.crypto(4)
        ticks = [
            (dt.datetime(2021, 3, 1, 0, 1, tzinfo=UTC), 10.0, 1.0),
            (dt.datetime(2021, 3, 1, 0, 0, tzinfo=UTC), 10.0, 1.0),
        ]
        with pytest.raises(ValueError, match="sorted"):
            aggregate_ticks(ticks, spec)


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
        ingest(path, CalendarSpec.equity())


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
