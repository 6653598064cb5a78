"""Constrained mean-variance optimization and the six-variant rolling backtest.

Each decision day maximizes  mu'w - (lambda/2) w' Sigma w  over long-only
weights capped at 3/N per asset, with a zero-return cash position absorbing
whatever the risky sleeve does not use (weights including cash sum to one).
The quadratic program is solved exactly by a primal active-set method over
the box-plus-budget feasible region with deterministic tie-breaking; at the
desk-scale asset counts used here exactness and reproducibility beat solver
generality.

Six variants pair a return source (regular or liquidity-adjusted rolling
mean) with a covariance source (rolling-window, same-day intraday, or
one-step posterior forecast).  Realized profit and loss always uses regular
returns: the liquidity adjustment changes model inputs, not the market the
portfolio trades in.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .linalg import check_symmetric, floor_psd, min_eigenvalue

logger = logging.getLogger(__name__)

LAMBDA_FLOOR = 0.1


class MissingForecastError(ValueError):
    """Raised when a posterior variant has no forecast for a trade date."""


@dataclass(frozen=True)
class MvProblem:
    """One day's mean-variance inputs; each risky weight is capped at 3/N."""

    mu: np.ndarray
    sigma: np.ndarray
    lam: float


@dataclass(frozen=True)
class PortfolioVariant:
    id: int
    return_source: str      # "regular_mean" | "liq_adjusted_mean"
    cov_source: str         # "rolling_window" | "intraday" | "posterior"
    description: str

    @property
    def is_liquidity_adjusted(self) -> bool:
        return self.id % 2 == 0


VARIANTS: dict[int, PortfolioVariant] = {
    1: PortfolioVariant(1, "regular_mean", "rolling_window", "standard TMV"),
    2: PortfolioVariant(2, "liq_adjusted_mean", "rolling_window", "standard LAMV"),
    3: PortfolioVariant(3, "regular_mean", "intraday", "intraday TMV"),
    4: PortfolioVariant(4, "liq_adjusted_mean", "intraday", "intraday LAMV"),
    5: PortfolioVariant(5, "regular_mean", "posterior", "enhanced TMV"),
    6: PortfolioVariant(6, "liq_adjusted_mean", "posterior", "enhanced LAMV"),
}


@dataclass
class BacktestResult:
    """Daily weights (risky sleeve plus cash), realized regular returns,
    and the annualized Sharpe ratio of one variant."""

    variant: PortfolioVariant
    dates: list[dt.date]
    weights: np.ndarray          # (n_days, n_assets + 1), cash last
    realized: np.ndarray         # (n_days,)
    sharpe: float
    mean_daily: float
    std_daily: float
    degenerate: bool
    failures: list[tuple[dt.date, str]] = field(default_factory=list)


def risk_aversion(window_market_returns) -> float:
    """Risk-aversion scalar: last-day market return over window variance.

    The market portfolio is the equal-weighted basket of constituents; a
    nonpositive ratio is floored at 0.1 so the program stays well-posed on
    down days.
    """
    r = np.asarray(window_market_returns, dtype=np.float64).ravel()
    if r.size == 0:
        raise ValueError("empty market window")
    var = float(np.var(r, ddof=1)) if r.size > 1 else 0.0
    # a constant window can leave rounding dust instead of an exact zero
    scale = max(float(np.max(np.abs(r))), 1e-300)
    if var <= (1e-12 * scale) ** 2:
        raise ValueError("market window has zero variance")
    lam = float(r[-1]) / var
    return lam if lam > 0.0 else LAMBDA_FLOOR


def solve_mv(problem: MvProblem) -> np.ndarray:
    """Exact KKT solution of the capped long-only mean-variance program.

    Returns the (N+1)-vector of risky weights plus cash.  Sigma must be PSD
    (callers floor eigenvalues first); lambda must be positive.
    """
    mu = np.asarray(problem.mu, dtype=np.float64).ravel()
    sigma = np.asarray(problem.sigma, dtype=np.float64)
    lam = float(problem.lam)
    n = mu.shape[0]
    check_symmetric(sigma, "sigma")
    if sigma.shape[0] != n:
        raise ValueError("mu and sigma dimensions disagree")
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if min_eigenvalue(sigma) < -1e-10 * scale:
        raise ValueError("sigma is not PSD; floor its eigenvalues first")
    cap = 3.0 / n

    m = n + 1                               # risky weights + cash
    hess = np.zeros((m, m))
    hess[:n, :n] = lam * sigma
    lin = np.zeros(m)
    lin[:n] = -mu
    upper = np.full(m, np.inf)
    upper[:n] = cap

    v = np.zeros(m)
    v[n] = 1.0                              # start fully in cash
    at_lower = np.zeros(m, dtype=bool)
    at_lower[:n] = True
    at_upper = np.zeros(m, dtype=bool)

    def subproblem(free_idx, fixed_idx, fixed_val):
        k = free_idx.shape[0]
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = hess[np.ix_(free_idx, free_idx)]
        kkt[:k, k] = 1.0
        kkt[k, :k] = 1.0
        rhs = np.empty(k + 1)
        rhs[:k] = -lin[free_idx] - hess[np.ix_(free_idx, fixed_idx)] @ fixed_val
        rhs[k] = 1.0 - float(fixed_val.sum())
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        return sol[:k], float(sol[k])

    max_iter = 100 * m + 100
    for _ in range(max_iter):
        free = ~(at_lower | at_upper)
        free_idx = np.where(free)[0]
        fixed_idx = np.where(~free)[0]
        fixed_val = np.where(at_upper[fixed_idx], upper[fixed_idx], 0.0)

        if free_idx.shape[0] > 0:
            target_free, nu = subproblem(free_idx, fixed_idx, fixed_val)
            target = v.copy()
            target[fixed_idx] = fixed_val
            target[free_idx] = target_free
        else:
            target = v.copy()
            target[fixed_idx] = fixed_val
            nu = None

        step = target - v
        if float(np.max(np.abs(step))) <= 1e-13:
            grad = hess @ v + lin
            if nu is None:
                # all variables at bounds: pick the multiplier value that
                # works best, scanning candidates in index order
                candidates = sorted(set(float(-g) for g in grad[fixed_idx]))
                nu = candidates[0] if candidates else 0.0
                best_min = -np.inf
                for cand in candidates:
                    low_mult = grad[at_lower] + cand
                    up_mult = -(grad[at_upper] + cand)
                    worst = min(
                        float(np.min(low_mult)) if low_mult.size else np.inf,
                        float(np.min(up_mult)) if up_mult.size else np.inf,
                    )
                    if worst > best_min + 1e-15:
                        best_min, nu = worst, cand
            mult = np.full(m, np.inf)
            mult[at_lower] = grad[at_lower] + nu
            mult[at_upper] = -(grad[at_upper] + nu)
            worst_idx = int(np.argmin(mult))
            if mult[worst_idx] >= -1e-11 * max(1.0, scale):
                break
            at_lower[worst_idx] = False
            at_upper[worst_idx] = False
            continue

        alpha = 1.0
        blocker = -1
        block_upper = False
        for j in free_idx:
            if step[j] < -1e-16:
                ratio = v[j] / -step[j]
                if ratio < alpha - 1e-14:
                    alpha, blocker, block_upper = ratio, int(j), False
            elif step[j] > 1e-16 and np.isfinite(upper[j]):
                ratio = (upper[j] - v[j]) / step[j]
                if ratio < alpha - 1e-14:
                    alpha, blocker, block_upper = ratio, int(j), True
        if blocker < 0:
            v = target
        else:
            v = v + alpha * step
            if block_upper:
                v[blocker] = upper[blocker]
                at_upper[blocker] = True
            else:
                v[blocker] = 0.0
                at_lower[blocker] = True
    else:
        raise RuntimeError("active-set solver failed to converge")

    weights = np.clip(v[:n], 0.0, cap)
    cash = max(0.0, 1.0 - float(weights.sum()))
    return np.append(weights, cash)


def sharpe_annualized(daily_returns, periods_per_year: float) -> float:
    """Annualized Sharpe ratio with a zero risk-free rate.

    (mean * P) / (std * sqrt(P)) with the sample standard deviation.  A
    zero-variance series is degenerate: signed infinity (or nan for an
    all-zero series) so callers can flag it.
    """
    r = np.asarray(daily_returns, dtype=np.float64).ravel()
    if r.size < 2:
        raise ValueError("need at least two observations")
    mean = float(r.mean())
    std = float(r.std(ddof=1))
    scale = max(float(np.max(np.abs(r))), 1e-300)
    if std <= 1e-12 * scale:
        return math.nan if mean == 0.0 else math.copysign(math.inf, mean)
    return mean * periods_per_year / (std * math.sqrt(periods_per_year))


def run_backtest(
    dates: Sequence[dt.date],
    q: np.ndarray,
    q_adj: np.ndarray,
    sigma_tt: np.ndarray,
    sigma_tt_adj: np.ndarray,
    variants: Sequence[int],
    window_days: int,
    periods_per_year: float,
    posterior_regular: Mapping[dt.date, np.ndarray] | None = None,
    posterior_adjusted: Mapping[dt.date, np.ndarray] | None = None,
) -> list[BacktestResult]:
    """Roll the variants through the sample and realize next-day P&L.

    Weights decided on day t use information through t (the posterior
    variants use the forecast made at t for t+1) and are applied to the
    regular returns of day t+1.  A day that fails with a domain error
    (ValueError or a subclass, e.g. a missing posterior forecast) inherits
    the prior weights and is logged on the result; any other exception is
    a bug and propagates.
    """
    q = np.asarray(q, dtype=np.float64)
    q_adj = np.asarray(q_adj, dtype=np.float64)
    n, n_assets = q.shape
    if window_days >= n:
        raise ValueError(f"window of {window_days} days needs more than {n} observations")
    market = q.mean(axis=1)

    results = []
    for vid in sorted(set(variants)):
        variant = VARIANTS[vid]
        ret_src = q_adj if variant.return_source == "liq_adjusted_mean" else q
        trade_dates: list[dt.date] = []
        weight_rows: list[np.ndarray] = []
        realized: list[float] = []
        failures: list[tuple[dt.date, str]] = []
        prev_weights = np.append(np.zeros(n_assets), 1.0)

        for t in range(window_days - 1, n - 1):
            lo = t - window_days + 1
            trade_date = dates[t + 1]
            try:
                mu = ret_src[lo:t + 1].mean(axis=0)
                if variant.cov_source == "rolling_window":
                    sigma = np.cov(ret_src[lo:t + 1].T, ddof=1)
                    sigma = np.atleast_2d(sigma)
                elif variant.cov_source == "intraday":
                    sigma = sigma_tt_adj[t] if variant.is_liquidity_adjusted else sigma_tt[t]
                else:
                    source = posterior_adjusted if variant.is_liquidity_adjusted else posterior_regular
                    if source is None or trade_date not in source:
                        raise MissingForecastError(f"no posterior forecast for {trade_date}")
                    sigma = source[trade_date]
                lam = risk_aversion(market[lo:t + 1])
                weights = solve_mv(MvProblem(mu=mu, sigma=floor_psd(sigma, 1e-12), lam=lam))
                prev_weights = weights
            except ValueError as exc:
                logger.warning("variant %d %s: %s; carrying weights forward", vid, trade_date, exc)
                failures.append((trade_date, str(exc)))
                weights = prev_weights
            trade_dates.append(trade_date)
            weight_rows.append(weights)
            realized.append(float(weights[:n_assets] @ q[t + 1]))

        realized_arr = np.array(realized)
        sharpe = sharpe_annualized(realized_arr, periods_per_year)
        results.append(
            BacktestResult(
                variant=variant,
                dates=trade_dates,
                weights=np.vstack(weight_rows),
                realized=realized_arr,
                sharpe=sharpe,
                mean_daily=float(realized_arr.mean()),
                std_daily=float(realized_arr.std(ddof=1)),
                degenerate=not math.isfinite(sharpe),
                failures=failures,
            )
        )
    return results


RETURN_LABELS = {
    "regular_mean": "regular rolling-window mean",
    "liq_adjusted_mean": "liquidity-adjusted rolling-window mean",
}
COV_LABELS = {
    ("rolling_window", False): "regular rolling-window covariance",
    ("rolling_window", True): "liquidity-adjusted rolling-window covariance",
    ("intraday", False): "regular intraday covariance",
    ("intraday", True): "liquidity-adjusted intraday covariance",
    ("posterior", False): "regular posterior forecast covariance",
    ("posterior", True): "liquidity-adjusted posterior forecast covariance",
}


def performance_rows(results: Sequence[BacktestResult]) -> list[list[str]]:
    """Summary table rows: variant, sources, mean/std, annualized Sharpe."""
    rows = []
    for res in sorted(results, key=lambda r: r.variant.id):
        var = res.variant
        rows.append([
            str(var.id),
            var.description,
            RETURN_LABELS[var.return_source],
            COV_LABELS[(var.cov_source, var.is_liquidity_adjusted)],
            f"{res.mean_daily:.6f}",
            f"{res.std_daily:.6f}",
            "degenerate" if res.degenerate else f"{res.sharpe:.2f}",
        ])
    return rows
