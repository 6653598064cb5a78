"""Matrix checks and the BLAS thread pin of the forecast stage."""

import numpy as np
import pytest

from liqcov import linalg


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_symmetric_rejects_non_finite_entries(bad):
    m = np.eye(2)
    linalg.check_symmetric(m, "m")
    m[1, 1] = bad
    with pytest.raises(ValueError, match="matrix 'm' has non-finite entries"):
        linalg.check_symmetric(m, "m")


class FakeOpenBlas:
    def __init__(self, threads):
        self.threads = threads
        self.history = []

    def set(self, n):
        self.threads = n
        self.history.append(n)

    def get(self):
        return self.threads


def test_pins_each_library_and_restores_its_count(monkeypatch):
    libs = [FakeOpenBlas(2), FakeOpenBlas(4)]
    monkeypatch.setattr(linalg, "_openblas_thread_controls",
                        lambda: [(lib.set, lib.get) for lib in libs])
    with linalg.single_blas_thread():
        assert [lib.threads for lib in libs] == [1, 1]
    assert [lib.threads for lib in libs] == [2, 4]


def test_restores_counts_when_the_block_raises(monkeypatch):
    lib = FakeOpenBlas(3)
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: [(lib.set, lib.get)])
    with pytest.raises(RuntimeError):
        with linalg.single_blas_thread():
            raise RuntimeError("boom")
    assert lib.history == [1, 3]


def test_no_op_without_openblas(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(linalg, "open", no_proc, raising=False)
    assert linalg._openblas_thread_controls() == []
    ran = []
    with linalg.single_blas_thread():
        ran.append(True)
    assert ran == [True]


def _openblas_mapped() -> bool:
    try:
        with open("/proc/self/maps") as fh:
            return "openblas" in fh.read().lower()
    except OSError:
        return False


def test_real_libraries_restored():
    if not _openblas_mapped():
        pytest.skip("no OpenBLAS library loaded")
    controls = linalg._openblas_thread_controls()
    assert controls, "OpenBLAS is mapped but none of its thread setters was found"
    original = [get() for _, get in controls]
    try:
        for setter, _ in controls:
            setter(2)
        with linalg.single_blas_thread():
            assert [get() for _, get in controls] == [1] * len(controls)
        assert [get() for _, get in controls] == [2] * len(controls)
    finally:
        for (setter, _), count in zip(controls, original):
            setter(count)
