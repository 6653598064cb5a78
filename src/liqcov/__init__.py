"""Liquidity-adjusted multivariate volatility modeling and portfolio backtesting.

The package turns minute-level prices and dollar volumes into liquidity-adjusted
return and volatility series, links regular and adjusted covariance structures
through jump/diffusion/composite scaling matrices, runs a cointegration-aware
VAR -> dynamic-correlation -> Bayesian-shrinkage covariance forecaster on both
series in parallel, and backtests six constrained mean-variance portfolio
variants with a statistical comparison suite.
"""

__version__ = "0.1.0"

from .bayes import linked_posterior, posterior_covariance
from .condsvd import CondSvdResult, conditional_svd
from .dcc import DccFit, Garch11Params, fit_dcc, fit_garch11, forecast_covariance, select_best
from .liquidity import (
    LiquidityBetas,
    LiquiditySnapshot,
    build_snapshot,
    liquidity_adjusted_minutes,
    liquidity_betas,
)
from .marketdata import AssetDay, CalendarSpec, MinuteGrid
from .pipeline import ForecastRecord, PortfolioSeries, run_forecasts
from .portfolio import BacktestResult, MvProblem, run_backtest, sharpe_annualized, solve_mv
from .vecm import VecmFit, fit_vecm, johansen_trace, select_lag

__all__ = [
    "AssetDay",
    "BacktestResult",
    "CalendarSpec",
    "CondSvdResult",
    "DccFit",
    "ForecastRecord",
    "Garch11Params",
    "LiquidityBetas",
    "LiquiditySnapshot",
    "MinuteGrid",
    "MvProblem",
    "PortfolioSeries",
    "VecmFit",
    "build_snapshot",
    "conditional_svd",
    "fit_dcc",
    "fit_garch11",
    "fit_vecm",
    "forecast_covariance",
    "johansen_trace",
    "linked_posterior",
    "liquidity_adjusted_minutes",
    "liquidity_betas",
    "posterior_covariance",
    "run_backtest",
    "run_forecasts",
    "select_best",
    "select_lag",
    "sharpe_annualized",
    "solve_mv",
]
