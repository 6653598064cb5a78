"""The synthetic dataset: pinned bytes, the shapes it accepts, atomic writes."""

import errno
import hashlib

import pytest
from click.testing import CliRunner

from liqcov import synthetic
from liqcov.cli import main
from liqcov.synthetic import write_synthetic_csv


@pytest.mark.parametrize("n_assets, n_days, minutes, seed, sha256", [
    # the benchmark's check fixture and the test_cli fixture
    (3, 110, 16, 13, "7ae00d8d35a541da73164a7d88fb35d06b564f1ceef5b07520e4d0f38ad8abb8"),
    # full sessions: the stamps cross 23:59 -> 00:00 twice
    (2, 3, 1440, 5, "d5d73c21a6a62a531e948a2a46f7eee5760fd83ccb8145b0b0d5f18b226ed488"),
    # the smallest shape accepted
    (1, 1, 2, 0, "65f5c556ce68ddc279e4420ffd25b3eb5356952d6e4373e6185f0a7612876788"),
])
def test_seed_fixes_the_file_bytes(tmp_path, n_assets, n_days, minutes, seed, sha256):
    path = tmp_path / "minutes.csv"
    write_synthetic_csv(path, n_assets=n_assets, n_days=n_days, minutes_per_day=minutes, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


BAD_SHAPES = [
    (dict(n_assets=0), "n_assets"),
    (dict(n_days=0), "n_days"),
    (dict(n_days=-1), "n_days"),
    (dict(minutes_per_day=1), "minutes_per_day"),
    (dict(minutes_per_day=1441), "minutes_per_day"),
    # would spill each day's last 60 minutes into the next day
    (dict(minutes_per_day=1500), "minutes_per_day"),
]


@pytest.mark.parametrize("shape, name", BAD_SHAPES)
def test_shape_no_session_holds_is_rejected(tmp_path, shape, name):
    path = tmp_path / "minutes.csv"
    kwargs = dict(n_assets=2, n_days=3, minutes_per_day=4, seed=1)
    kwargs.update(shape)
    with pytest.raises(ValueError, match=name):
        write_synthetic_csv(path, **kwargs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [
    ("--assets", "0"), ("--days", "-1"), ("--minutes", "1"), ("--minutes", "1500")])
def test_synth_command_reports_a_bad_shape(tmp_path, flag, value):
    out = tmp_path / "synth.csv"
    args = ["synth", "--out", str(out), "--assets", "2", "--days", "3", "--minutes", "4"]
    args[args.index(flag) + 1] = value
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("Error: ") and "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


class _FailingFile:
    """A text file that raises on its third write, after the header and
    some rows are on disk."""

    def __init__(self, fh, exc):
        self.fh, self.exc, self.calls = fh, exc, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def _count(self):
        self.calls += 1
        if self.calls == 3:
            raise self.exc

    def write(self, text):
        self._count()
        return self.fh.write(text)

    def writelines(self, lines):
        self._count()
        self.fh.writelines(lines)


@pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                 KeyboardInterrupt()])
@pytest.mark.parametrize("existing", [None, b"old contents\n"])
def test_interrupted_write_leaves_the_target_as_it_was(tmp_path, monkeypatch, exc, existing):
    path = tmp_path / "minutes.csv"
    if existing is not None:
        path.write_bytes(existing)
    monkeypatch.setattr(synthetic, "open",
                        lambda *a, **kw: _FailingFile(open(*a, **kw), exc), raising=False)
    with pytest.raises(type(exc)):
        write_synthetic_csv(path, n_assets=3, n_days=2, minutes_per_day=4, seed=1)
    if existing is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert [p.name for p in tmp_path.iterdir()] == ["minutes.csv"]
        assert path.read_bytes() == existing
