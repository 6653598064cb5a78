"""Shared dense-matrix helpers for symmetric PSD inputs.

All routines work on plain float64 ndarrays and are deterministic for
identical inputs: eigendecompositions go through LAPACK ``syevd`` via
``numpy.linalg.eigh`` and every sign/ordering ambiguity is fixed explicitly
by the callers that need it.  The module also holds the domain errors the
fitting stages share and the BLAS thread pin of the forecast stage.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

# Thread-count setters exported by OpenBLAS builds: numpy's and scipy's
# wheels rename them with a ``scipy_`` prefix, ILP64 builds add ``64_``.
_OPENBLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


class InsufficientDataError(ValueError):
    """Raised when a window or series is too short for the fit it feeds."""


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular beyond the regularization floor."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        msg = f"matrix '{name}' is singular beyond the regularization floor"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        return type(self), (self.name, self.detail)


def default_floor(m: np.ndarray) -> float:
    """Eigenvalue floor scaled to the matrix: max(1e-12, 1e-10 * trace/N)."""
    n = m.shape[0]
    return max(1e-12, 1e-10 * float(np.trace(m)) / n)


def check_symmetric(m: np.ndarray, name: str) -> None:
    """Raise ValueError if ``m`` is not a finite square matrix symmetric
    within 1e-10.

    The tolerance is absolute for unit-scale matrices and scales with the
    matrix magnitude for larger ones.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix '{name}' must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"matrix '{name}' has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise ValueError(f"matrix '{name}' is not symmetric within 1e-10")


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Average away round-off asymmetry."""
    return 0.5 * (m + m.T)


def sym_inverse(m: np.ndarray, name: str) -> np.ndarray:
    """Inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues below default_floor(m) are raised to it before inversion so
    that near-singular day matrices do not abort rolling runs.  A matrix with no
    usable spectrum (all eigenvalues at or below zero, or non-finite
    entries) raises :class:`SingularMatrixError` naming the offender.
    """
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise SingularMatrixError(name, "non-finite entries")
    lam, vec = np.linalg.eigh(symmetrize(m))
    if lam[-1] <= 0.0:
        raise SingularMatrixError(name, "no positive eigenvalues")
    lam = np.maximum(lam, default_floor(m))
    inv = (vec / lam) @ vec.T
    return symmetrize(inv)


def floor_psd(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Project a symmetric matrix to the PSD cone by clipping eigenvalues."""
    lam, vec = np.linalg.eigh(symmetrize(m))
    if lam[0] >= floor:
        return symmetrize(np.asarray(m, dtype=np.float64))
    lam = np.maximum(lam, floor)
    return symmetrize((vec * lam) @ vec.T)


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(m))[0])


def _openblas_thread_controls() -> list[tuple[object, object]]:
    """(setter, getter) of the thread count of each OpenBLAS in the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    The chain's matrices are a few assets wide, so BLAS threading buys
    nothing; yet every L-BFGS-B solve wakes OpenBLAS's pool, whose extra
    thread then spins through the whole stage and slows even pure-Python
    code on a small machine.  Each library's previous count is restored on
    exit; without OpenBLAS this does nothing.
    """
    controls = _openblas_thread_controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)
