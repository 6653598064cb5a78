"""Config handling, subcommands, stage persistence, and determinism."""

import dataclasses
import filecmp
import json
import os
import shutil
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liqcov import cli, marketdata, pipeline, portfolio, stats, synthetic
from liqcov.cli import RunConfig, main, run_backtest_stage, run_liquidity
from liqcov.synthetic import write_synthetic_csv


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clidata")
    path = tmp / "mini.csv"
    write_synthetic_csv(path, n_assets=3, n_days=110, minutes_per_day=16, seed=13)
    return str(path)


def latin1_csv(tmp_path) -> str:
    """A minute CSV whose symbol is Latin-1, not UTF-8, encoded."""
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"timestamp,symbol,close,dollar_volume\n"
                     b"2021-03-01T00:00:00Z,CAF\xc9,100.0,1.0\n")
    return str(path)


def taken_file(tmp_path) -> str:
    """A file where a directory is expected."""
    path = tmp_path / "taken.txt"
    path.write_text("not a directory")
    return str(path)


def matrix_file(text):
    """A function of tmp_path that writes text as a matrix CSV and returns its path."""
    def write(tmp_path) -> str:
        path = tmp_path / "matrix.csv"
        path.write_text(text)
        return str(path)
    return write


def tree_outside(root, skipped) -> dict:
    """The content of every file under root, except under skipped, by path;
    a directory maps to None."""
    return {path: path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*")) if skipped not in (path, *path.parents)}


def make_config(data_csv, out_dir, **kw):
    base = dict(
        data_csv=data_csv,
        out_dir=str(out_dir),
        minutes_per_day=16,
        asset_class="crypto",
        window_days=70,
        refit_stride=8,
        variants=(1, 2, 3, 4, 5, 6),
    )
    base.update(kw)
    return RunConfig.from_mapping(base)


class TestConfig:
    def test_unknown_keys_rejected(self, data_csv, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_mapping({"data_csv": data_csv, "out_dir": "x", "bogus": 1})

    def test_tau_range_enforced(self, data_csv, tmp_path):
        with pytest.raises(ValueError, match="tau"):
            make_config(data_csv, tmp_path, tau=20.0)

    def test_variant_validation(self, data_csv, tmp_path):
        with pytest.raises(ValueError, match="variants"):
            make_config(data_csv, tmp_path, variants=(7,))

    def test_empty_variants_rejected(self, data_csv, tmp_path):
        with pytest.raises(ValueError, match="variants must name at least one"):
            make_config(data_csv, tmp_path, variants=[])

    def test_json_numbers_and_lists_accepted(self, data_csv, tmp_path):
        cfg = make_config(data_csv, tmp_path, tau=2, variants=[1, 5])
        assert (cfg.tau, cfg.variants) == (2, (1, 5))

    def test_threads_key_rejected(self, data_csv, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_mapping({"data_csv": data_csv, "out_dir": "x", "threads": 2})

    @pytest.mark.parametrize("key, value", [
        ("seed", 7), ("periods_per_year", 365.0), ("histogram_bins", 50),
        ("export_matrices", False), ("data_kind", "tick")])
    def test_removed_keys_rejected(self, data_csv, key, value):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_mapping({"data_csv": data_csv, "out_dir": "x", key: value})

    def test_hash_ignores_out_dir(self, data_csv, tmp_path):
        a = make_config(data_csv, tmp_path / "a").stage_keys()
        b = make_config(data_csv, tmp_path / "b").stage_keys()
        assert a == b
        c = make_config(data_csv, tmp_path / "c", tau=2.0).stage_keys()
        assert c["liquidity"] == a["liquidity"]
        assert c["forecast"] != a["forecast"]

    def test_flags_override_config_file(self, data_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data_csv": data_csv, "out_dir": str(tmp_path / "out"),
            "minutes_per_day": 16, "window_days": 70, "tau": 1.0,
        }))
        cfg = RunConfig.from_file(str(cfg_path), tau=2.5, window_days=80)
        assert cfg.tau == 2.5 and cfg.window_days == 80


_JSON_TEXT = st.text(max_size=8)
_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON_LISTS = st.lists(st.one_of(st.integers(-5, 20), _JSON_TEXT, st.booleans()), max_size=3)
_NON_POSITIVE = st.integers(-(2 ** 40), 0)
_NOT_AN_INT = (_JSON_TEXT, st.booleans(), _JSON_FLOATS, _JSON_LISTS)
_NOT_A_STR = (st.booleans(), st.integers(), _JSON_FLOATS, _JSON_LISTS)
# each config field's wrong JSON types and out-of-range values
_BAD_VALUES = {
    "minutes_per_day": st.one_of(*_NOT_AN_INT, _NON_POSITIVE, st.integers(1441, 2 ** 40)),
    "window_days": st.one_of(*_NOT_AN_INT, _NON_POSITIVE),
    "refit_stride": st.one_of(*_NOT_AN_INT, _NON_POSITIVE),
    "tau": st.one_of(_JSON_TEXT, st.booleans(), _JSON_LISTS, _NON_POSITIVE,
                     st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)),
    # a list of ints in 1..6 is a valid selection, so a drawn list holds a bad item
    "variants": st.one_of(_JSON_TEXT, st.booleans(), _JSON_FLOATS, st.integers(),
                          st.just([]),
                          st.lists(st.one_of(_JSON_TEXT, st.booleans(), _JSON_FLOATS,
                                             _NON_POSITIVE, st.integers(min_value=7)),
                                   min_size=1, max_size=3)),
    "day_boundary": st.one_of(*_NOT_A_STR),
    "asset_class": st.one_of(*_NOT_A_STR),
}


@st.composite
def bad_configs(draw):
    """One to three config fields, each with a wrong type or out of range."""
    names = draw(st.lists(st.sampled_from(sorted(_BAD_VALUES)), min_size=1, max_size=3,
                          unique=True))
    return {name: draw(_BAD_VALUES[name]) for name in names}


class TestCommands:
    def test_liquidity_outputs(self, data_csv, tmp_path):
        cfg = make_config(data_csv, tmp_path / "out")
        series = run_liquidity(cfg)
        assert series.n_days == 110
        for name in ("snapshots.csv", "asset_days.csv",
                     "table1.csv", "table1.md", "hist_jump.csv", "hist_jump.svg",
                     "manifest.json"):
            assert os.path.exists(tmp_path / "out" / name), name
        assert not os.path.exists(tmp_path / "out" / "grids.csv")
        with open(tmp_path / "out" / "table1.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["measure", "liquidity jump", "liquidity diffusion",
                          "liquidity composite"]
        snap_lines = (tmp_path / "out" / "snapshots.csv").read_text().strip().splitlines()
        assert len(snap_lines) == 111   # header + one row per day

    def test_missing_data_path_message(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "liquidity", "--data", "/nope/missing.csv", "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code != 0
        assert "/nope/missing.csv" in result.output

    @staticmethod
    def run_liquidity_command(tmp_path, name, text, **cfg):
        data = tmp_path / name
        data.write_text(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            dict(data_csv=str(data), out_dir=str(tmp_path / "out"), **cfg)))
        return data, CliRunner().invoke(main, ["liquidity", "-c", str(cfg_path)])

    def test_unsorted_tick_session_names_the_line(self, tmp_path):
        data, result = self.run_liquidity_command(
            tmp_path, "ticks.csv",
            "timestamp,symbol,price,size\n"
            "2021-03-01T00:01:00Z,AAA,10.0,1.0\n"
            "2021-03-01T00:02:00Z,BBB,20.0,1.0\n"
            "2021-03-01T00:00:30Z,AAA,10.5,1.0\n",
            minutes_per_day=16)
        assert result.exit_code == 1
        assert f"{data}: line 4: tick at" in result.output
        assert "Traceback" not in result.output
        assert not isinstance(result.exception, ValueError)

    def test_overflowing_minute_return_names_the_line(self, tmp_path):
        data, result = self.run_liquidity_command(
            tmp_path, "bars.csv",
            "timestamp,symbol,close,dollar_volume\n"
            "2021-03-01T00:00:00Z,AAA,1e-300,1.0\n"
            "2021-03-01T00:01:00Z,AAA,1e300,1.0\n",
            minutes_per_day=2)
        assert result.exit_code == 1
        assert f"{data}: line 2: AAA 2021-03-01: minute return overflows" in result.output
        assert "Traceback" not in result.output
        assert not isinstance(result.exception, ValueError)

    def test_overflowing_tick_volume_names_the_line(self, tmp_path):
        data, result = self.run_liquidity_command(
            tmp_path, "ticks.csv",
            "timestamp,symbol,price,size\n"
            "2021-03-01T00:00:00Z,BBB,20.0,1.0\n"
            "2021-03-01T00:00:10Z,AAA,1e308,1.0\n"
            "2021-03-01T00:00:20Z,AAA,1e308,1.0\n",
            minutes_per_day=2)
        assert result.exit_code == 1
        assert f"{data}: line 3: AAA 2021-03-01: dollar volume overflows" in result.output
        assert "Traceback" not in result.output
        assert not isinstance(result.exception, ValueError)

    def test_threads_flag_removed(self, data_csv, tmp_path):
        result = CliRunner().invoke(main, [
            "forecast", "--data", data_csv, "--out", str(tmp_path / "o"), "--threads", "2",
        ])
        assert result.exit_code != 0
        assert "No such option" in result.output

    def test_seed_flag_removed(self, data_csv, tmp_path):
        result = CliRunner().invoke(main, [
            "liquidity", "--data", data_csv, "--out", str(tmp_path / "o"), "--seed", "7",
        ])
        assert result.exit_code != 0
        assert "No such option" in result.output

    @pytest.mark.parametrize("header", ["timestamp,symbol,close,dollar_volume",
                                        "timestamp,symbol,price,size"], ids=["minute", "tick"])
    def test_byte_order_mark_before_the_header(self, data_csv, tmp_path, header):
        # the synthetic file is time-sorted per symbol, so its rows are valid ticks too
        with open(data_csv, encoding="utf-8") as fh:
            rows = fh.read().split("\n", 1)[1]
        data = tmp_path / "marked.csv"
        data.write_bytes(b"\xef\xbb\xbf" + f"{header}\n{rows}".encode())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(data_csv=str(data), out_dir=str(tmp_path / "o"),
                                            minutes_per_day=16)))
        result = CliRunner().invoke(main, ["liquidity", "-c", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert cli.stage_complete(RunConfig.from_file(str(cfg_path)), "liquidity")

    def test_truncated_manifest_rebuilds(self, data_csv, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text('{"config_hash": "ab')
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(data_csv=data_csv, out_dir=str(out),
                                            minutes_per_day=16)))
        result = CliRunner().invoke(main, ["liquidity", "-c", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert cli.stage_complete(RunConfig.from_file(str(cfg_path)), "liquidity")

    @pytest.mark.parametrize("command, config, manifest, message", [
        (["liquidity", "--variants", "1,x"], {}, None, "invalid literal for int()"),
        (["liquidity"], {"day_boundary": "9am"}, None, "day_boundary must be an HH:MM"),
        (["liquidity"], {"day_boundary": "25:00"}, None, "day_boundary must be an HH:MM"),
        (["liquidity"], {"minutes_per_day": 1}, None, "minutes_per_day must be in [2, 1440]"),
        (["liquidity"], {"minutes_per_day": 3000}, None, "minutes_per_day must be in [2, 1440]"),
        (["forecast"], {"window_days": 40}, None, "leaves at most 39 residuals"),
        (["backtest", "--variants", "1"], {"window_days": 200}, None,
         "window of 200 days needs more than 110 observations"),
        (["backtest", "--variants", "5"], {"window_days": 200}, None,
         "window of 200 needs more than 110 days of data"),
        # a malformed manifest counts as empty, so the liquidity stage runs first
        (["forecast"], {"window_days": 40}, '{"stages": []}', "leaves at most 39 residuals"),
        (["forecast"], {"window_days": 40}, '{"stages": {"liquidity": {"key": "x"}}}',
         "leaves at most 39 residuals"),
        # each field takes its annotation's JSON type, and a bool is no number
        (["liquidity"], {"minutes_per_day": "16"}, None, "minutes_per_day must be an integer"),
        (["liquidity"], {"window_days": "365"}, None, "window_days must be an integer"),
        (["liquidity"], {"window_days": 365.5}, None, "window_days must be an integer"),
        (["liquidity"], {"refit_stride": True}, None, "refit_stride must be an integer"),
        (["liquidity"], {"tau": "1"}, None, "tau must be a number"),
        (["liquidity"], {"tau": False}, None, "tau must be a number"),
        (["liquidity"], {"asset_class": ["crypto"]}, None, "asset_class must be a string"),
        (["liquidity"], {"variants": "15"}, None, "variants must be a list of integers"),
        (["liquidity"], {"variants": [1, 5.0]}, None, "variants must be a list of integers"),
        # a data path given as a function of tmp_path, and named in the message
        (["liquidity"], {"data_csv": str}, None, "cannot read data file"),
        (["liquidity"], {"data_csv": latin1_csv}, None, "not UTF-8 text"),
        # a config file that is not a JSON object
        (["liquidity"], 42, None, "config must be a JSON object"),
        (["liquidity"], None, None, "config must be a JSON object"),
        (["liquidity"], [1, 2], None, "config must be a JSON object"),
        (["liquidity"], "x", None, "config must be a JSON object"),
        # an output path that cannot take the output, named in the message
        (["liquidity"], {"out_dir": taken_file}, None, "File exists"),
        (["forecast"], {"out_dir": taken_file}, None, "File exists"),
        (["backtest"], {"out_dir": taken_file}, None, "File exists"),
        (["report"], {"out_dir": taken_file}, None, "File exists"),
        (["synth", "--out", str], {}, None, "Is a directory"),
        (["synth", "--out", lambda tmp: str(tmp / "missing" / "data.csv")], {}, None,
         "No such file or directory"),
        (["condsvd-debug", matrix_file("2,x"), matrix_file("2,x")], {}, None,
         "cannot read matrix"),
        (["condsvd-debug", matrix_file("1,0\n0"), matrix_file("1,0\n0")], {}, None,
         "cannot read matrix"),
        (["condsvd-debug", matrix_file(""), matrix_file("")], {}, None, ": no data"),
    ], ids=["variants", "boundary-9am", "boundary-25h", "minutes-1", "minutes-3000",
            "forecast-window", "backtest-window-v1", "backtest-window-v5",
            "stages-list", "entry-without-files", "minutes-str", "window-str", "window-float",
            "stride-bool", "tau-str", "tau-bool", "asset-class-list", "variants-str",
            "variants-float", "data-directory", "data-not-utf8", "config-int", "config-null",
            "config-list", "config-str", "liquidity-out-file", "forecast-out-file",
            "backtest-out-file", "report-out-file", "synth-out-directory",
            "synth-out-missing-directory", "condsvd-non-numeric", "condsvd-ragged",
            "condsvd-empty"])
    def test_misuse_exits_without_traceback(self, data_csv, tmp_path, command, config,
                                            manifest, message):
        out = tmp_path / "out"
        manifest_path = out / "manifest.json"
        # paths given as functions of tmp_path, each named in the message
        named = []

        def resolve(value):
            if callable(value):
                value = value(tmp_path)
                named.append(value)
            return value

        args = [resolve(a) for a in command[1:]]
        if isinstance(config, dict):
            config = {k: resolve(v) for k, v in config.items()}
            raw = {"data_csv": data_csv, "out_dir": str(out), "minutes_per_day": 16, **config}
        else:
            raw, config = config, {}
        if manifest is not None:
            out.mkdir()
            manifest_path.write_text(manifest)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        if command[0] in ("liquidity", "forecast", "backtest", "report"):
            args = ["-c", str(cfg_path), *args]
        before = tree_outside(tmp_path, out)
        result = CliRunner().invoke(main, [command[0], *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert message in result.output
        assert all(path in result.output for path in named), result.output
        assert "Traceback" not in result.output
        assert tree_outside(tmp_path, out) == before
        stages = json.loads(manifest_path.read_text())["stages"] if manifest_path.exists() else {}
        assert command[0] not in stages
        # a later stage's limits are checked after the liquidity stage completed
        assert ("liquidity" in stages) == (command[0] in ("forecast", "backtest")
                                           and "out_dir" not in config)

    def test_empty_matrix_prints_no_warning(self, tmp_path):
        path = tmp_path / "A.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, ["condsvd-debug", str(path), str(path)])
        assert result.exit_code == 1
        assert result.output == f"Error: cannot read matrix {path}: no data\n"

    @pytest.mark.parametrize("out, message", [
        (str, "Is a directory"),
        (lambda tmp: str(tmp / "missing" / "data.csv"), "No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_synth_rejects_its_path_before_generating(self, tmp_path, monkeypatch, out, message):
        def generation_started(*args, **kwargs):
            raise AssertionError("synthetic data generation started")

        monkeypatch.setattr(synthetic.np.random, "default_rng", generation_started)
        result = CliRunner().invoke(main, ["synth", "--out", out(tmp_path)])
        assert result.exit_code == 1
        assert result.output == f"Error: cannot write {out(tmp_path)}: {message}\n"

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=bad_configs())
    def test_any_bad_config_exits_without_traceback(self, data_csv, tmp_path, config):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data_csv": data_csv, "out_dir": str(out), **config}))
        result = CliRunner().invoke(main, ["liquidity", "-c", str(cfg_path)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "Traceback" not in result.output
        assert any(name in result.output for name in config), result.output
        assert not (out / "manifest.json").exists()

    def test_manifest_entry_outside_the_output_directory_is_ignored(self, data_csv, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        outside = tmp_path / "keep.txt"
        outside.write_text("not a stage file")
        (out / "manifest.json").write_text(json.dumps(
            {"stages": {"liquidity": {"key": "x", "files": ["../keep.txt"]}}}))
        run_liquidity(make_config(data_csv, out))
        assert outside.read_text() == "not a stage file"

    def test_variant_one_needs_no_chain(self, data_csv, tmp_path):
        out = tmp_path / "lazy"
        cfg = make_config(data_csv, out, variants=(1,))
        results = run_backtest_stage(cfg)
        assert len(results) == 1
        assert not os.path.exists(out / "forecasts.csv")
        assert os.path.exists(out / "variant_1.csv")
        assert os.path.exists(out / "table4.csv")

    def test_full_chain_and_resume(self, data_csv, tmp_path):
        out = tmp_path / "full"
        cfg = make_config(data_csv, out, window_days=90, refit_stride=10)
        results = run_backtest_stage(cfg)
        assert len(results) == 6
        for name in ("forecasts.csv", "windows.csv", "table2.csv", "table3.csv",
                     "table4.csv", "posteriors_regular.csv"):
            assert os.path.exists(out / name), name
        table4 = (out / "table4.csv").read_text()
        assert table4.count("\n") == 7   # header + six variants

        # resumed run loads persisted posteriors and reproduces outputs
        before = (out / "variant_6.csv").read_bytes()
        run_backtest_stage(cfg)
        assert (out / "variant_6.csv").read_bytes() == before

    def test_condsvd_debug(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        np.savetxt(a_path, np.diag([4.0, 1.0]), delimiter=",")
        np.savetxt(b_path, np.eye(2), delimiter=",")
        runner = CliRunner()
        result = runner.invoke(main, ["condsvd-debug", str(a_path), str(b_path)])
        assert result.exit_code == 0
        assert "residual" in result.output
        assert "2.0000000000e+00" in result.output

    def test_synth_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "synth.csv"
        result = runner.invoke(main, [
            "synth", "--out", str(out), "--assets", "2", "--days", "3",
            "--minutes", "4", "--seed", "1",
        ])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "timestamp,symbol,close,dollar_volume"
        assert len(lines) == 1 + 2 * 3 * 4


def ingest_counter(monkeypatch) -> list:
    """Count raw-CSV ingests; returns the list of paths ingested."""
    calls = []
    ingest = cli.ingest_csv

    def counting(*args, **kwargs):
        calls.append(args[0])
        return ingest(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest_csv", counting)
    return calls


def assert_same_tree(got, expected):
    names = sorted(os.listdir(expected))
    assert sorted(os.listdir(got)) == names
    assert [n for n in names if not filecmp.cmp(got / n, expected / n, shallow=False)] == []


class TestGridCache:
    @staticmethod
    def dataset(tmp_path, name, seed):
        path = tmp_path / name
        write_synthetic_csv(path, n_assets=3, n_days=40, minutes_per_day=16, seed=seed)
        return str(path)

    def test_other_dataset_rebuilds_grids(self, tmp_path):
        data_a = self.dataset(tmp_path, "a.csv", 1)
        data_b = self.dataset(tmp_path, "b.csv", 2)
        shared = tmp_path / "shared"
        run_liquidity(make_config(data_a, shared, window_days=20))
        snaps_a = (shared / "snapshots.csv").read_bytes()
        run_liquidity(make_config(data_b, shared, window_days=20))
        run_liquidity(make_config(data_b, tmp_path / "fresh", window_days=20))
        snaps_b = (tmp_path / "fresh" / "snapshots.csv").read_bytes()
        assert snaps_b != snaps_a
        assert (shared / "snapshots.csv").read_bytes() == snaps_b
        assert (shared / "series.npz").read_bytes() == (tmp_path / "fresh" / "series.npz").read_bytes()

    def test_completed_liquidity_stage_reuses_grids(self, tmp_path, monkeypatch):
        data = self.dataset(tmp_path, "a.csv", 1)
        cfg = make_config(data, tmp_path / "out", window_days=20, variants=(1,))
        run_liquidity(cfg)

        def no_ingest(*args, **kwargs):
            raise AssertionError("a completed liquidity stage ingested the raw CSV again")

        monkeypatch.setattr(cli, "ingest_csv", no_ingest)
        run_liquidity(cfg)
        run_backtest_stage(cfg)

    def test_fresh_stage_keeps_its_grids_in_memory(self, tmp_path, monkeypatch):
        data = self.dataset(tmp_path, "a.csv", 1)
        cfg = make_config(data, tmp_path / "out", window_days=20)
        reads = []
        read = marketdata.read_grids_csv

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(marketdata, "read_grids_csv", counting)
        monkeypatch.setattr(cli, "read_grids_csv", counting, raising=False)
        fresh = run_liquidity(cfg)
        resumed = run_liquidity(cfg)
        assert reads == []
        assert (fresh.dates, fresh.symbols) == (resumed.dates, resumed.symbols)
        for name in ("q", "q_adj", "sigma_tt", "sigma_tt_adj", "jump", "diff", "comp"):
            assert getattr(fresh, name).dtype == getattr(resumed, name).dtype, name
            assert np.array_equal(getattr(fresh, name), getattr(resumed, name)), name

    def test_resumed_stages_rebuild_no_series(self, data_csv, tmp_path, monkeypatch):
        cfg = make_config(data_csv, tmp_path / "out", window_days=90, refit_stride=10)
        run_liquidity(cfg)
        run_backtest_stage(cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("a resumed stage rebuilt the series")

        monkeypatch.setattr(cli, "ingest_csv", forbidden)
        monkeypatch.setattr(marketdata, "ingest_minute_csv", forbidden)
        monkeypatch.setattr(marketdata, "read_grids_csv", forbidden)
        monkeypatch.setattr(pipeline, "snapshots_from_grids", forbidden)
        assert run_liquidity(cfg).n_days == 110
        assert cli.run_forecast(cfg) is None
        assert len(run_backtest_stage(cfg)) == 6

    def test_series_file_bytes_ignore_the_clock(self, tmp_path, monkeypatch):
        data = self.dataset(tmp_path, "a.csv", 1)
        series = run_liquidity(make_config(data, tmp_path / "out", window_days=20))
        written = []
        for k, now in enumerate((1.0e9, 2.0e9)):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            path = tmp_path / f"series_{k}.npz"
            pipeline.write_series_npz(path, series)
            written.append(path.read_bytes())
        assert written[0] == written[1]
        with np.load(tmp_path / "series_0.npz", allow_pickle=False) as npz:
            assert sorted(npz.files) == sorted(
                ["dates", "symbols", "q", "q_adj", "sigma_tt", "sigma_tt_adj",
                 "jump", "diff", "comp"])

    def test_manifest_without_series_file_rebuilds_once(self, tmp_path, monkeypatch):
        data = self.dataset(tmp_path, "a.csv", 1)
        out = tmp_path / "out"
        cfg = make_config(data, out, window_days=20)
        run_liquidity(cfg)
        # the whole-config-hash manifest of a tree written before series.npz
        files = json.loads((out / "manifest.json").read_text())["stages"]["liquidity"]["files"]
        files.remove("series.npz")
        (out / "manifest.json").write_text(json.dumps(
            {"config_hash": "0" * 64, "stages": {"liquidity": files}}))
        (out / "series.npz").unlink()

        calls = ingest_counter(monkeypatch)
        run_liquidity(cfg)
        assert calls == [data]
        run_liquidity(cfg)
        assert calls == [data]
        assert "series.npz" in json.loads((out / "manifest.json").read_text())["stages"]["liquidity"]["files"]

    def test_interrupted_other_dataset_invalidates_the_stage(self, tmp_path, monkeypatch):
        data_a = self.dataset(tmp_path, "a.csv", 1)
        data_b = self.dataset(tmp_path, "b.csv", 2)
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        cfg_a = make_config(data_a, shared, window_days=20)
        run_liquidity(cfg_a)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(stats, "write_csv_table", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run_liquidity(make_config(data_b, shared, window_days=20))

        resumed = run_liquidity(cfg_a)
        expected = run_liquidity(make_config(data_a, fresh, window_days=20))
        for name in ("q", "q_adj", "sigma_tt", "sigma_tt_adj", "jump", "diff", "comp"):
            assert np.array_equal(getattr(resumed, name), getattr(expected, name)), name
        names = sorted(os.listdir(fresh))
        assert names == sorted(os.listdir(shared))
        assert [n for n in names if not filecmp.cmp(shared / n, fresh / n, shallow=False)] == []

    def test_fresh_backtest_ingests_once(self, data_csv, tmp_path, monkeypatch):
        calls = ingest_counter(monkeypatch)
        # variants 5 and 6 run the forecast stage lazily on the same series
        run_backtest_stage(make_config(data_csv, tmp_path / "out", window_days=90,
                                       refit_stride=10))
        assert calls == [data_csv]


@pytest.fixture(scope="module")
def complete_tree(data_csv, tmp_path_factory):
    """A tree with every stage complete; tests copy it before changing it."""
    out = tmp_path_factory.mktemp("complete") / "out"
    run_backtest_stage(make_config(data_csv, out, window_days=90, refit_stride=10))
    return out


class TestStageKeys:
    """Each stage is rebuilt when, and only when, one of its own inputs changes."""

    @staticmethod
    def copy(tree, tmp_path):
        return shutil.copytree(tree, tmp_path / "out")

    def test_variant_subset_keeps_the_other_stages(self, data_csv, complete_tree, tmp_path,
                                                   monkeypatch):
        out = self.copy(complete_tree, tmp_path)
        calls = ingest_counter(monkeypatch)
        assert len(run_backtest_stage(make_config(data_csv, out, window_days=90,
                                                  refit_stride=10, variants=(1,)))) == 1
        cfg = make_config(data_csv, out, window_days=90, refit_stride=10)
        assert cli.stage_complete(cfg, "liquidity") and cli.stage_complete(cfg, "forecast")
        run_liquidity(cfg)
        assert calls == []
        # the backtest stage's files of the six-variant run are gone with its entry
        assert not os.path.exists(out / "variant_6.csv")

    def test_tau_change_refits_without_ingest(self, data_csv, complete_tree, tmp_path,
                                              monkeypatch):
        out = self.copy(complete_tree, tmp_path)
        calls = ingest_counter(monkeypatch)
        cfg = make_config(data_csv, out, window_days=90, refit_stride=10, tau=2.0)
        assert not cli.stage_complete(cfg, "forecast")
        run_backtest_stage(cfg)
        assert calls == []
        expected = tmp_path / "expected"
        run_backtest_stage(make_config(data_csv, expected, window_days=90, refit_stride=10,
                                       tau=2.0))
        assert_same_tree(out, expected)

    def test_data_rewritten_in_place(self, tmp_path):
        data = tmp_path / "data.csv"
        write_synthetic_csv(data, n_assets=3, n_days=40, minutes_per_day=16, seed=1)
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        run_liquidity(make_config(str(data), shared, window_days=20))
        write_synthetic_csv(data, n_assets=3, n_days=40, minutes_per_day=16, seed=2)
        resumed = run_liquidity(make_config(str(data), shared, window_days=20))
        expected = run_liquidity(make_config(str(data), fresh, window_days=20))
        assert np.array_equal(resumed.q, expected.q)
        assert_same_tree(shared, fresh)

    def test_other_dataset_drops_the_stages_keyed_on_it(self, complete_tree, tmp_path):
        out = self.copy(complete_tree, tmp_path)
        data_b = tmp_path / "b.csv"
        write_synthetic_csv(data_b, n_assets=3, n_days=40, minutes_per_day=16, seed=2)
        fresh = tmp_path / "fresh"
        for tree in (out, fresh):
            cfg = make_config(str(data_b), tree, window_days=90, refit_stride=10)
            run_liquidity(cfg)
            cli.run_report(cfg)
        assert not os.path.exists(out / "variant_6.csv")
        assert (out / "report.md").read_bytes() == (fresh / "report.md").read_bytes()
        assert_same_tree(out, fresh)

    def test_calendar_change_rebuilds(self, data_csv, tmp_path, monkeypatch):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        run_liquidity(make_config(data_csv, shared))
        calls = ingest_counter(monkeypatch)
        run_liquidity(make_config(data_csv, shared, minutes_per_day=20))
        assert calls == [data_csv]
        run_liquidity(make_config(data_csv, fresh, minutes_per_day=20))
        assert_same_tree(shared, fresh)

    def test_fresh_forecast_completes_the_liquidity_stage(self, data_csv, tmp_path,
                                                          monkeypatch):
        cfg = make_config(data_csv, tmp_path / "out", window_days=90, refit_stride=10)
        cli.run_forecast(cfg)
        assert cli.stage_complete(cfg, "liquidity")
        calls = ingest_counter(monkeypatch)
        run_liquidity(cfg)
        assert calls == []

    def test_stale_rejected_days_removed(self, tmp_path):
        clean = tmp_path / "clean.csv"
        write_synthetic_csv(clean, n_assets=3, n_days=40, minutes_per_day=16, seed=1)
        gappy = tmp_path / "gappy.csv"
        gap = tuple(f"2020-01-03T00:0{m}:00Z,A00," for m in range(5))
        gappy.write_text("".join(line for line in clean.read_text().splitlines(True)
                                 if not line.startswith(gap)))
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        run_liquidity(make_config(str(gappy), shared, window_days=20))
        assert os.path.exists(shared / "rejected_days.csv")
        run_liquidity(make_config(str(clean), shared, window_days=20))
        run_liquidity(make_config(str(clean), fresh, window_days=20))
        assert_same_tree(shared, fresh)


def solve_counter(monkeypatch, fail_on_call=None) -> list:
    """Count solve_mv calls; the call numbered fail_on_call (from 1) raises
    a domain error, so its day is carried forward."""
    calls = []
    solve = portfolio.solve_mv

    def counting(problem):
        calls.append(problem)
        if len(calls) == fail_on_call:
            raise ValueError("forced failure")
        return solve(problem)

    monkeypatch.setattr(portfolio, "solve_mv", counting)
    return calls


def assert_same_results(got, want):
    """Every field equal: arrays with their dtype and bytes, floats by repr."""
    assert [r.variant.id for r in got] == [r.variant.id for r in want]
    for g, w in zip(got, want):
        for f in dataclasses.fields(portfolio.BacktestResult):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            elif isinstance(b, float):
                assert type(a) is float and repr(a) == repr(b), f.name
            else:
                assert a == b, f.name


class TestBacktestResume:
    """A complete backtest stage is read back from its own files, not solved."""

    @staticmethod
    def config(data_csv, out):
        return make_config(data_csv, out, window_days=90, refit_stride=10)

    def test_resumed_stage_reads_its_files_only(self, data_csv, tmp_path, monkeypatch):
        cfg = self.config(data_csv, tmp_path / "out")
        fresh = run_backtest_stage(cfg)
        before = {n: (tmp_path / "out" / n).read_bytes() for n in os.listdir(tmp_path / "out")}

        def forbidden(*args, **kwargs):
            raise AssertionError("a complete backtest stage recomputed its inputs")

        calls = solve_counter(monkeypatch)
        monkeypatch.setattr(pipeline, "read_posteriors_csv", forbidden)
        monkeypatch.setattr(pipeline, "read_series_npz", forbidden)
        resumed = run_backtest_stage(cfg)
        assert calls == []
        assert_same_results(resumed, fresh)
        after = {n: (tmp_path / "out" / n).read_bytes() for n in os.listdir(tmp_path / "out")}
        assert after == before

    def test_backtest_command_prints_the_same_lines_resumed(self, data_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(
            data_csv=data_csv, out_dir=str(tmp_path / "out"), minutes_per_day=16,
            window_days=90, refit_stride=10)))
        fresh = CliRunner().invoke(main, ["backtest", "-c", str(cfg_path)])
        resumed = CliRunner().invoke(main, ["backtest", "-c", str(cfg_path)])
        assert fresh.exit_code == 0 and resumed.exit_code == 0, fresh.output + resumed.output
        sharpe_lines = [line for line in fresh.output.splitlines() if "SR_a = " in line]
        assert len(sharpe_lines) == 6
        assert [line for line in resumed.output.splitlines() if "SR_a = " in line] == sharpe_lines

    def test_carried_forward_day_survives_the_resume(self, data_csv, tmp_path, monkeypatch):
        cfg = self.config(data_csv, tmp_path / "out")
        with monkeypatch.context() as patch:
            solve_counter(patch, fail_on_call=3)
            fresh = run_backtest_stage(cfg)
        # variant 1's third trade day kept its second day's weights
        day = fresh[0].dates[2]
        assert fresh[0].failures == [(day, "forced failure")]
        assert np.array_equal(fresh[0].weights[2], fresh[0].weights[1])
        assert [r.failures for r in fresh[1:]] == [[]] * 5
        lines = (tmp_path / "out" / "backtest_failures.csv").read_text().splitlines()
        assert lines == ["variant,date,message", f"1,{day.isoformat()},forced failure"]
        calls = solve_counter(monkeypatch)
        assert_same_results(run_backtest_stage(cfg), fresh)
        assert calls == []

    def test_deleted_variant_file_is_solved_again(self, data_csv, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = self.config(data_csv, out)
        run_backtest_stage(cfg)
        before = {n: (out / n).read_bytes() for n in os.listdir(out)}
        (out / "variant_3.csv").unlink()
        calls = solve_counter(monkeypatch)
        run_backtest_stage(cfg)
        assert len(calls) > 0
        assert {n: (out / n).read_bytes() for n in os.listdir(out)} == before

    def test_older_entry_without_failures_file_solves_once(self, data_csv, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "out"
        cfg = self.config(data_csv, out)
        run_backtest_stage(cfg)
        # the entry of a tree written before the failures file existed
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["stages"]["backtest"]["files"].remove("backtest_failures.csv")
        (out / "manifest.json").write_text(json.dumps(manifest))
        (out / "backtest_failures.csv").unlink()
        assert not cli.stage_complete(cfg, "backtest", "backtest_failures.csv")

        calls = solve_counter(monkeypatch)
        run_backtest_stage(cfg)
        assert len(calls) > 0
        del calls[:]
        run_backtest_stage(cfg)
        assert calls == []
        assert "backtest_failures.csv" in json.loads(
            (out / "manifest.json").read_text())["stages"]["backtest"]["files"]

    def test_failed_forecast_anchor_on_disk(self, data_csv, tmp_path, monkeypatch):
        cfg = make_config(data_csv, tmp_path / "out")     # anchors 69, 77, ..., 101
        # `failed` below only sees anchors fitted in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        fit_side = pipeline._fit_side
        failed = []

        def failing(series, side, t, *args):
            if t == 77:
                failed.append(series.dates[t])
                raise ValueError("forced anchor failure")
            return fit_side(series, side, t, *args)

        monkeypatch.setattr(pipeline, "_fit_side", failing)
        cli.run_forecast(cfg)
        lines = (tmp_path / "out" / "forecast_failures.csv").read_text().splitlines()
        assert lines == ["date,message", f"{failed[0].isoformat()},forced anchor failure"]
        entry = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]["forecast"]
        assert "forecast_failures.csv" in entry["files"]

    def test_no_failure_writes_the_headers_alone(self, complete_tree):
        assert (complete_tree / "forecast_failures.csv").read_text() == "date,message\n"
        assert (complete_tree / "backtest_failures.csv").read_text() == "variant,date,message\n"


class TestDeterminism:
    def test_rerun_identical_outputs(self, data_csv, tmp_path):
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        cfg_a = make_config(data_csv, out_a, window_days=85, refit_stride=12)
        cfg_b = make_config(data_csv, out_b, window_days=85, refit_stride=12)
        run_backtest_stage(cfg_a)
        run_backtest_stage(cfg_b)
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        mismatches = [
            n for n in names
            if os.path.isfile(out_a / n) and not filecmp.cmp(out_a / n, out_b / n, shallow=False)
        ]
        assert mismatches == []
