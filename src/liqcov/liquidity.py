"""Liquidity-adjusted returns, volatilities, and portfolio liquidity matrices.

Asset level: each minute return is rescaled by the square root of the
normalized ratio of its magnitude share to its dollar-volume share,

    adj_factor(tau) = eta * (|r_tau| / mean|r|) / (A_tau / mean A),
    r_adj(tau)     = sqrt(adj_factor(tau)) * r(tau),

with eta chosen so the factors average to one over the day.  Minutes that
traded nothing have no defined ratio; they are excluded from the
normalization and keep their raw return.

Day level: the liquidity jump of an asset is |r / r_adj| (magnitude of the
day's liquidity fluctuation) and its liquidity diffusion is sigma /
sigma_adj (intraday liquidity volatility); both equal 1 on a
liquidity-neutral day.

Portfolio level: the diagonal jump matrix collects per-asset jumps, the
diffusion matrix links the regular and adjusted intraday covariances
through the conditional decomposition Sigma = H Sigma_adj H', and the
composite matrix is diffusion @ jump^(-1/2).  Determinants of the three are
the scalar portfolio liquidity measures; reported copies are capped at 10,
modeling equations always use the raw matrices.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .condsvd import conditional_svd
from .linalg import SingularMatrixError, symmetrize
from .marketdata import AssetDay, MinuteGrid, daily_compound_return

DET_CAP = 10.0


class DegenerateDayError(ValueError):
    """Day with no usable return or volume variation."""


@dataclass(frozen=True)
class LiquidityBetas:
    """Per-day liquidity jump and diffusion ratios of one asset.

    degenerate marks zero/non-finite denominators; such days carry neutral
    ratios (1.0) so the matrix algebra stays valid, and are excluded from
    descriptive statistics.
    """

    jump: float
    diffusion: float
    degenerate: bool = False


@dataclass(frozen=True)
class LiquiditySnapshot:
    """Per-day, per-portfolio bundle of return vectors and liquidity matrices."""

    date: dt.date
    symbols: tuple[str, ...]
    q: np.ndarray
    q_adj: np.ndarray
    sigma_tt: np.ndarray
    sigma_tt_adj: np.ndarray
    jump_mat: np.ndarray
    diff_mat: np.ndarray
    comp_mat: np.ndarray
    betas: tuple[LiquidityBetas, ...]
    asset_days: tuple[AssetDay, ...]
    det_jump_raw: float
    det_diff_raw: float
    det_comp_raw: float

    @property
    def det_jump(self) -> float:
        return capped_determinant_value(self.det_jump_raw)

    @property
    def det_diff(self) -> float:
        return capped_determinant_value(self.det_diff_raw)

    @property
    def det_comp(self) -> float:
        return capped_determinant_value(self.det_comp_raw)


def normalization_factor(returns: np.ndarray, volumes: np.ndarray) -> float:
    """Normalization constant eta making the adjustment factors average 1.

    eta = T_active / sum((|r|/mean|r|) / (A/meanA)) over minutes with
    positive volume, so sum(eta * ratio) recovers the active minute count
    exactly.
    """
    r = np.asarray(returns, dtype=np.float64)
    a = np.asarray(volumes, dtype=np.float64)
    if r.shape != a.shape or r.ndim != 1:
        raise ValueError("returns and volumes must be 1-d vectors of equal length")
    abs_r = np.abs(r)
    mean_abs_r = float(abs_r.mean())
    mean_vol = float(a.mean())
    if mean_abs_r <= 0.0:
        raise DegenerateDayError("all minute returns are zero")
    if mean_vol <= 0.0:
        raise DegenerateDayError("all minute volumes are zero")
    active = a > 0.0
    ratio = (abs_r[active] / mean_abs_r) / (a[active] / mean_vol)
    total = float(ratio.sum())
    if total <= 0.0:
        raise DegenerateDayError("no active minute has a nonzero return")
    return float(active.sum()) / total


def liquidity_adjusted_minutes(
    returns: np.ndarray, volumes: np.ndarray
) -> tuple[np.ndarray, float]:
    """Liquidity-adjusted minute returns and their minute-level variance.

    Returns (r_adj, var_minute) where var_minute is the mean squared
    deviation of r_adj from its day mean (1/T normalization).  Zero-volume
    minutes keep their raw return.
    """
    r = np.asarray(returns, dtype=np.float64)
    a = np.asarray(volumes, dtype=np.float64)
    eta = normalization_factor(r, a)
    abs_r = np.abs(r)
    mean_abs_r = float(abs_r.mean())
    mean_vol = float(a.mean())
    active = a > 0.0
    factor = np.ones_like(r)
    factor[active] = eta * (abs_r[active] / mean_abs_r) / (a[active] / mean_vol)
    r_adj = np.sqrt(factor) * r
    var_minute = float(np.mean((r_adj - r_adj.mean()) ** 2))
    return r_adj, var_minute


def _adjusted(grid: MinuteGrid) -> tuple[np.ndarray, float] | None:
    """liquidity_adjusted_minutes of a grid, or None when the adjustment is
    undefined (no return or volume variation, or an adjusted minute return
    at or below -100%)."""
    try:
        r_adj, var_adj = liquidity_adjusted_minutes(grid.returns, grid.dollar_volume)
    except DegenerateDayError:
        return None
    if np.any(r_adj <= -1.0):
        return None
    return r_adj, var_adj


def asset_day(grid: MinuteGrid) -> AssetDay:
    """Day-level regular and adjusted return/volatility of one MinuteGrid.

    Daily volatility is sqrt(T * minute-level variance).  Days where the
    adjustment is undefined fall back to the regular series and are flagged
    degenerate.
    """
    return _asset_day(grid, _adjusted(grid))


def _asset_day(grid: MinuteGrid, adjusted: tuple[np.ndarray, float] | None) -> AssetDay:
    t = grid.returns.shape[0]
    ret = daily_compound_return(grid.returns)
    var_minute = float(np.mean((grid.returns - grid.returns.mean()) ** 2))
    vol = float(np.sqrt(t * var_minute))
    if adjusted is None:
        return AssetDay(grid.symbol, grid.date, ret, ret, vol, vol, True)
    r_adj, var_adj = adjusted
    ret_adj = daily_compound_return(r_adj)
    vol_adj = float(np.sqrt(t * var_adj))
    return AssetDay(grid.symbol, grid.date, ret, ret_adj, vol, vol_adj, False)


def liquidity_betas(day: AssetDay) -> LiquidityBetas:
    """Jump |r / r_adj| and diffusion sigma / sigma_adj for one asset-day."""
    if day.degenerate:
        return LiquidityBetas(1.0, 1.0, degenerate=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = abs(day.daily_return / day.daily_liq_return) if day.daily_liq_return else np.nan
        diffusion = day.daily_vol / day.daily_liq_vol if day.daily_liq_vol else np.nan
    if not (np.isfinite(jump) and jump > 0.0 and np.isfinite(diffusion) and diffusion > 0.0):
        return LiquidityBetas(1.0, 1.0, degenerate=True)
    return LiquidityBetas(float(jump), float(diffusion))


def intraday_covariance(grids: Sequence[MinuteGrid], adjusted: bool = False) -> np.ndarray:
    """Minute-return covariance of the day scaled by the minute count.

    With the day-population covariance (1/T) this equals the centered
    cross-product matrix Xc' Xc, whose diagonal is the squared daily
    volatility of each asset.  adjusted=True uses the liquidity-adjusted
    minute returns (raw returns for assets whose adjustment is degenerate).
    """
    if not grids:
        raise ValueError("no grids")
    t = grids[0].returns.shape[0]
    date = grids[0].date
    for grid in grids:
        if grid.returns.shape[0] != t:
            raise ValueError("grids have mismatched minute counts")
        if grid.date != date:
            raise ValueError("grids are not from the same day")
    if adjusted:
        return _cross_product(grids, [_adjusted(g) for g in grids])
    return _cross_product(grids, [None] * len(grids))


def _cross_product(grids: Sequence[MinuteGrid], adjusted) -> np.ndarray:
    """Centered cross-product of each grid's adjusted minute returns, or of
    its raw returns where its entry of ``adjusted`` is None."""
    x = np.column_stack([g.returns if a is None else a[0] for g, a in zip(grids, adjusted)])
    xc = x - x.mean(axis=0)
    return symmetrize(xc.T @ xc)


def jump_matrix(betas: Sequence[LiquidityBetas | float]) -> np.ndarray:
    """Diagonal matrix of per-asset liquidity jumps."""
    vals = np.array([b.jump if isinstance(b, LiquidityBetas) else float(b) for b in betas])
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError("liquidity jumps must be positive and finite")
    return np.diag(vals)


def diffusion_matrix(
    sigma_tt: np.ndarray,
    sigma_tt_adj: np.ndarray,
    floor: float | None = None,
    tol: float = 1e-8,
) -> np.ndarray:
    """Matrix H with sigma_tt = H sigma_tt_adj H', via conditional SVD.

    Raises SingularMatrixError naming the deficient asset subspace when the
    adjusted covariance is singular beyond the regularization floor (the
    reconstruction residual then exceeds ``tol``).
    """
    res = conditional_svd(sigma_tt, sigma_tt_adj, floor=floor)
    if res.residual > tol:
        lam, vec = np.linalg.eigh(symmetrize(np.asarray(sigma_tt_adj, dtype=np.float64)))
        deficient = np.where(lam < res.floor_used)[0]
        assets = sorted({int(np.argmax(np.abs(vec[:, j]))) for j in deficient})
        raise SingularMatrixError(
            "sigma_tt_adj",
            f"reconstruction residual {res.residual:.2e} > {tol:g}; "
            f"deficient subspace dominated by asset indices {assets}",
        )
    return res.h


def composite_matrix(diff_mat: np.ndarray, jump_mat: np.ndarray) -> np.ndarray:
    """Composite scaling matrix: diffusion @ jump^(-1/2)."""
    jumps = np.diag(jump_mat)
    if np.any(jumps <= 0.0):
        raise ValueError("jump matrix must have positive diagonal")
    return diff_mat / np.sqrt(jumps)[None, :]


def capped_determinant_value(det: float) -> float:
    """|det| capped at DET_CAP for reporting; callers keep the raw value."""
    return min(abs(det), DET_CAP)


def build_snapshot(day_grids: Sequence[MinuteGrid]) -> LiquiditySnapshot:
    """Assemble the per-day portfolio bundle from one grid per asset."""
    if len(day_grids) < 1:
        raise ValueError("need at least one grid")
    # one liquidity adjustment per asset-day, shared by both uses
    adjusted = [_adjusted(g) for g in day_grids]
    days = tuple(_asset_day(g, a) for g, a in zip(day_grids, adjusted))
    betas = tuple(liquidity_betas(d) for d in days)
    q = np.array([d.daily_return for d in days])
    q_adj = np.array([d.daily_liq_return for d in days])
    sigma_tt = intraday_covariance(day_grids, adjusted=False)
    sigma_tt_adj = _cross_product(day_grids, adjusted)
    b_jump = jump_matrix(betas)
    b_diff = diffusion_matrix(sigma_tt, sigma_tt_adj)
    b_comp = composite_matrix(b_diff, b_jump)
    return LiquiditySnapshot(
        date=day_grids[0].date,
        symbols=tuple(g.symbol for g in day_grids),
        q=q,
        q_adj=q_adj,
        sigma_tt=sigma_tt,
        sigma_tt_adj=sigma_tt_adj,
        jump_mat=b_jump,
        diff_mat=b_diff,
        comp_mat=b_comp,
        betas=betas,
        asset_days=days,
        det_jump_raw=float(np.linalg.det(b_jump)),
        det_diff_raw=float(np.linalg.det(b_diff)),
        det_comp_raw=float(np.linalg.det(b_comp)),
    )


def write_snapshots_csv(path, snapshots: Sequence[LiquiditySnapshot]) -> None:
    """One row per day: raw and capped determinants plus per-asset ratios."""
    if not snapshots:
        raise ValueError("no snapshots")
    symbols = snapshots[0].symbols
    header = ["date"]
    for name in ("jump", "diff", "comp"):
        header += [f"det_{name}_raw", f"det_{name}_capped"]
    for sym in symbols:
        header += [f"beta_jump_{sym}", f"beta_diff_{sym}", f"degenerate_{sym}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for snap in sorted(snapshots, key=lambda s: s.date):
            row = [snap.date.isoformat()]
            row += [repr(snap.det_jump_raw), repr(snap.det_jump)]
            row += [repr(snap.det_diff_raw), repr(snap.det_diff)]
            row += [repr(snap.det_comp_raw), repr(snap.det_comp)]
            for beta in snap.betas:
                row += [repr(beta.jump), repr(beta.diffusion), int(beta.degenerate)]
            writer.writerow(row)


def write_snapshot_matrices(out_dir, snapshot: LiquiditySnapshot) -> None:
    """Dump the day's dense matrices as CSV blocks (on-demand export)."""
    import os

    tag = snapshot.date.isoformat()
    blocks = {
        "sigma_tt": snapshot.sigma_tt,
        "sigma_tt_adj": snapshot.sigma_tt_adj,
        "jump": snapshot.jump_mat,
        "diffusion": snapshot.diff_mat,
        "composite": snapshot.comp_mat,
    }
    for name, mat in blocks.items():
        path = os.path.join(out_dir, f"{tag}_{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(snapshot.symbols))
            for row in np.asarray(mat):
                writer.writerow([repr(float(v)) for v in row])
