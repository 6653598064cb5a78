"""Config handling, subcommands, stage persistence, and determinism."""

import filecmp
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from liqcov import cli
from liqcov.cli import RunConfig, main, run_backtest_stage, run_liquidity
from liqcov.synthetic import write_synthetic_csv


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clidata")
    path = tmp / "mini.csv"
    write_synthetic_csv(path, n_assets=3, n_days=110, minutes_per_day=16, seed=13)
    return str(path)


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

    def test_threads_key_rejected(self, data_csv, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_mapping({"data_csv": data_csv, "out_dir": "x", "threads": 2})

    def test_hash_ignores_out_dir(self, data_csv, tmp_path):
        a = make_config(data_csv, tmp_path / "a")
        b = make_config(data_csv, tmp_path / "b")
        assert a.config_hash() == b.config_hash()
        c = make_config(data_csv, tmp_path / "c", tau=2.0)
        assert c.config_hash() != a.config_hash()

    def test_flags_override_config_file(self, data_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data_csv": data_csv, "out_dir": str(tmp_path / "out"),
            "minutes_per_day": 16, "window_days": 70, "tau": 1.0,
        }))
        cfg = RunConfig.from_file(str(cfg_path), tau=2.5, window_days=80)
        assert cfg.tau == 2.5 and cfg.window_days == 80


class TestCommands:
    def test_liquidity_outputs(self, data_csv, tmp_path):
        cfg = make_config(data_csv, tmp_path / "out")
        series = run_liquidity(cfg)
        assert series.n_days == 110
        for name in ("grids.csv", "snapshots.csv", "asset_days.csv",
                     "table1.csv", "table1.md", "hist_jump.csv", "hist_jump.svg",
                     "manifest.json"):
            assert os.path.exists(tmp_path / "out" / name), name
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

    def test_unsorted_tick_session_names_the_line(self, tmp_path):
        data = tmp_path / "ticks.csv"
        data.write_text("timestamp,symbol,price,size\n"
                        "2021-03-01T00:01:00Z,AAA,10.0,1.0\n"
                        "2021-03-01T00:02:00Z,BBB,20.0,1.0\n"
                        "2021-03-01T00:00:30Z,AAA,10.5,1.0\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "data_csv": str(data), "out_dir": str(tmp_path / "out"),
            "data_kind": "tick", "minutes_per_day": 16,
        }))
        result = CliRunner().invoke(main, ["liquidity", "-c", str(cfg_path)])
        assert result.exit_code == 1
        assert f"{data}: line 4: tick at" in result.output
        assert "Traceback" not in result.output
        assert not isinstance(result.exception, ValueError)

    def test_threads_flag_removed(self, data_csv, tmp_path):
        result = CliRunner().invoke(main, [
            "forecast", "--data", data_csv, "--out", str(tmp_path / "o"), "--threads", "2",
        ])
        assert result.exit_code != 0
        assert "No such option" in result.output

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
        assert (shared / "grids.csv").read_bytes() == (tmp_path / "fresh" / "grids.csv").read_bytes()

    def test_completed_liquidity_stage_reuses_grids(self, tmp_path, monkeypatch):
        data = self.dataset(tmp_path, "a.csv", 1)
        cfg = make_config(data, tmp_path / "out", window_days=20, variants=(1,))
        run_liquidity(cfg)

        def no_ingest(*args, **kwargs):
            raise AssertionError("grids.csv of a completed liquidity stage was rebuilt")

        monkeypatch.setattr(cli, "ingest_minute_csv", no_ingest)
        run_liquidity(cfg)
        run_backtest_stage(cfg)

    def test_fresh_stage_keeps_its_grids_in_memory(self, tmp_path, monkeypatch):
        data = self.dataset(tmp_path, "a.csv", 1)
        cfg = make_config(data, tmp_path / "out", window_days=20)
        reads = []
        read = cli.read_grids_csv

        def counting(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(cli, "read_grids_csv", counting)
        fresh = run_liquidity(cfg)
        assert reads == []
        resumed = run_liquidity(cfg)
        assert reads == [str(tmp_path / "out" / "grids.csv")]
        assert (fresh.dates, fresh.symbols) == (resumed.dates, resumed.symbols)
        for name in ("q", "q_adj", "sigma_tt", "sigma_tt_adj", "jump", "diff", "comp"):
            assert np.array_equal(getattr(fresh, name), getattr(resumed, name)), name

    def test_fresh_backtest_ingests_once(self, data_csv, tmp_path, monkeypatch):
        calls = []
        ingest = cli.ingest_minute_csv

        def counting(*args, **kwargs):
            calls.append(args[0])
            return ingest(*args, **kwargs)

        monkeypatch.setattr(cli, "ingest_minute_csv", counting)
        # variants 5 and 6 run the forecast stage lazily on the same series
        run_backtest_stage(make_config(data_csv, tmp_path / "out", window_days=90,
                                       refit_stride=10))
        assert calls == [data_csv]


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
