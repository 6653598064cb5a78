"""Dynamic conditional covariance of residual vectors.

Stage one fits a Gaussian quasi-MLE GARCH(1,1) per residual series under the
stationarity constraint; stage two fits the correlation dynamics

    Q_{t+1} = (1-a-b) Qbar + a x_t x_t' + b Q_t                    (symmetric)
    Q_{t+1} = (1-a-b) Qbar - g Nbar + a x_t x_t' + b Q_t + g m_t m_t'   (asymmetric)

on the standardized residuals x_t (m_t keeps only their negative parts),
again by Gaussian quasi-MLE.  Both stages minimize the per-observation
negative log-likelihood with L-BFGS-B and exact gradients, from three fixed
starting points plus one restart from the best of them, so results are
deterministic.  The fits run on box-bounded coordinates in which positivity
and the stationarity simplex are the box itself:

    GARCH:  p = alpha + beta in [0, cap], r = alpha / p in [0, 1],
            u = log(omega / var_s) in [-25, 5]
    (A)DCC: v1 = b / cap, v2 = a / (cap - b),
            v3 = g / (cap - b - a)  (asymmetric model only), each in [0, 1]

A parameter can therefore sit exactly on a constraint (a = 0, say), and no
coordinate's derivative vanishes as a parameter approaches zero.  The
correlation stick breaks from b, so the one place where a coordinate loses
its effect is b at the cap; a break from s = a + b + g would lose it at
s = 0, the no-dynamics corner that weakly correlated windows fit.

The one-step covariance forecast recombines the per-asset variance
forecasts with the rescaled correlation forecast.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._kernels import LOG_2PI, corr_negloglik, garch11_filter, garch11_negloglik
from .linalg import InsufficientDataError, floor_psd, min_eigenvalue, symmetrize

logger = logging.getLogger(__name__)

MAX_PERSISTENCE = 0.9995
GARCH_MIN_OBS = 50

_GARCH_STARTS = ((0.05, 0.90), (0.10, 0.80), (0.02, 0.95))
_DCC_STARTS = ((0.05, 0.90), (0.02, 0.95), (1e-4, 1e-4))
_ADCC_STARTS = ((0.03, 0.90, 0.03), (0.01, 0.95, 0.02), (1e-4, 1e-4, 1e-4))

_GARCH_BOUNDS = ((0.0, MAX_PERSISTENCE), (0.0, 1.0), (-25.0, 5.0))
# Bound on a + b + g in the correlation fits: the cap less a margin for the
# few ulps by which the three parts, summed in floating point, can exceed it.
_CORR_CAP = MAX_PERSISTENCE - 1e-12

_GARCH_FALLBACK = (0.05, 0.90)
_DCC_FALLBACK = (0.02, 0.95)


def _minimize_fd(fun, x0: np.ndarray, bounds) -> "object":
    """One bounded L-BFGS-B solve of ``fun``, which returns (value, gradient).

    The tolerances are tight because the gradient is exact.  With scipy's
    defaults the relative-reduction test ended some fits of weak correlation
    dynamics, where the likelihood is flat, short of the optimum.  (The name
    is kept because perfbench's tracer counts solves through it.)
    """
    return minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                    options={"ftol": 1e-13, "gtol": 1e-9})


def _fit_box(fun, starts, bounds) -> np.ndarray | None:
    """Minimize ``fun`` from each start, then once more from the best optimum.

    A solve can end early (on its relative-reduction test or a failed line
    search) with the gradient still clearly nonzero; the second solve from
    that point, with fresh curvature memory, carries on.  Returns the best
    point, or None if no solve ends finite.
    """
    best_x, best_val = None, np.inf
    for x0 in starts:
        res = _minimize_fd(fun, np.asarray(x0, dtype=np.float64), bounds)
        if np.isfinite(res.fun) and res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
    if best_x is not None:
        res = _minimize_fd(fun, best_x, bounds)
        if np.isfinite(res.fun) and res.fun < best_val:
            best_x = res.x
    return best_x


@dataclass(frozen=True)
class Garch11Params:
    """GARCH(1,1) coefficients: variance intercept, shock load, persistence."""

    omega: float
    alpha: float
    beta: float
    fallback: bool = False


@dataclass(frozen=True)
class DccFit:
    """Fitted correlation dynamics plus the terminal recursion states.

    kind is "dcc" or "adcc" (g is zero for plain dcc).  obar/nbar are the
    unconditional second-moment targets of the standardized residuals and
    of their negative parts.  loglik is the full Gaussian log-likelihood of
    the residuals under the fitted variance and correlation paths.
    """

    kind: str
    a: float
    b: float
    g: float
    obar: np.ndarray
    nbar: np.ndarray
    loglik: float
    garch: tuple[Garch11Params, ...]
    last_e: np.ndarray
    last_h2: np.ndarray
    last_xi: np.ndarray
    last_neg: np.ndarray
    last_o: np.ndarray
    n_obs: int
    fallback: bool = False

    @property
    def n_assets(self) -> int:
        return len(self.garch)


def _garch_from_x(x: np.ndarray, var_scale: float) -> tuple[float, float, float]:
    persistence, share, log_scale = x
    alpha = persistence * share
    beta = persistence - alpha
    omega = var_scale * np.exp(log_scale)
    return omega, alpha, beta


def fit_garch11(series) -> Garch11Params:
    """Gaussian quasi-MLE GARCH(1,1) fit of one zero-mean residual series.

    The variance recursion is initialized at the sample variance.  If no
    start produces a finite optimum the fit falls back to variance
    targeting with (alpha, beta) = (0.05, 0.90) and a logged warning.
    """
    e = np.ascontiguousarray(series, dtype=np.float64).ravel()
    n = e.shape[0]
    if n < GARCH_MIN_OBS:
        raise InsufficientDataError(f"need at least {GARCH_MIN_OBS} observations, got {n}")
    eps2 = e * e
    var_s = float(eps2.mean())
    if var_s <= 0.0 or not np.isfinite(var_s):
        raise ValueError("residual series has zero variance")

    def objective(x):
        persistence, share, _ = x
        omega, alpha, beta = _garch_from_x(x, var_s)
        nll, grad = garch11_negloglik(eps2, omega, alpha, beta, var_s)
        g_omega, g_alpha, g_beta = grad / n
        return nll / n, np.array([
            share * g_alpha + (1.0 - share) * g_beta,
            persistence * (g_alpha - g_beta),
            omega * g_omega,
        ])

    starts = [(a0 + b0, a0 / (a0 + b0), np.log(1.0 - a0 - b0)) for a0, b0 in _GARCH_STARTS]
    best_x = _fit_box(objective, starts, _GARCH_BOUNDS)
    if best_x is None:
        logger.warning("GARCH optimizer failed; variance-targeting fallback used")
        a0, b0 = _GARCH_FALLBACK
        return Garch11Params(omega=var_s * (1.0 - a0 - b0), alpha=a0, beta=b0, fallback=True)
    omega, alpha, beta = _garch_from_x(best_x, var_s)
    return Garch11Params(omega=float(omega), alpha=float(alpha), beta=float(beta))


def _corr_from_x(x: np.ndarray) -> tuple[tuple[float, float, float], np.ndarray]:
    """(a, b, g) from the box coordinates (v1, v2[, v3]), and its Jacobian.

    Stick-breaking from b: b = cap v1, a = (cap - b) v2 and
    g = (cap - b - a) v3.  The symmetric model has no v3; g is then 0.
    """
    v1, v2 = x[0], x[1]
    v3 = x[2] if x.size == 3 else 0.0
    b = _CORR_CAP * v1
    rem = _CORR_CAP - b
    a = rem * v2
    rem_g = rem - a
    jac = np.array([
        [-_CORR_CAP * v2, rem, 0.0],
        [_CORR_CAP, 0.0, 0.0],
        [-_CORR_CAP * (1.0 - v2) * v3, -rem * v3, rem_g],
    ])
    return (a, b, rem_g * v3), jac[:, :x.size]


def _corr_starts(kind: str) -> list[tuple[float, ...]]:
    starts = []
    for start in (_DCC_STARTS if kind == "dcc" else _ADCC_STARTS):
        a, b = start[0], start[1]
        x0 = (b / _CORR_CAP, a / (_CORR_CAP - b))
        starts.append(x0 if kind == "dcc" else x0 + (start[2] / (_CORR_CAP - b - a),))
    return starts


def _standardize(residuals: np.ndarray, garch: tuple[Garch11Params, ...]) -> tuple[np.ndarray, np.ndarray]:
    n, dim = residuals.shape
    h2 = np.empty((n, dim))
    for i in range(dim):
        eps2 = np.ascontiguousarray(residuals[:, i] ** 2)
        h2[:, i] = garch11_filter(eps2, garch[i].omega, garch[i].alpha, garch[i].beta,
                                  float(eps2.mean()))
    return h2, residuals / np.sqrt(h2)


def fit_garch_stage(residuals) -> tuple[Garch11Params, ...]:
    """Stage one: a GARCH(1,1) fit per column of (n_obs, n_assets) residuals."""
    return tuple(fit_garch11(residuals[:, i]) for i in range(residuals.shape[1]))


def fit_dcc(residuals, kind: str = "dcc", *,
            garch: tuple[Garch11Params, ...] | None = None) -> DccFit:
    """Two-stage fit of the conditional covariance dynamics.

    residuals is (n_obs, n_assets).  kind selects the symmetric ("dcc") or
    asymmetric ("adcc") correlation recursion.  garch, when given, is the
    stage-one fit of these residuals (``fit_garch_stage``), which does not
    depend on kind, so fits of both kinds can share it.  Non-convergence
    falls back to (a, b) = (0.02, 0.95) with the fallback flag set.
    """
    if kind not in ("dcc", "adcc"):
        raise ValueError(f"kind must be 'dcc' or 'adcc', got {kind!r}")
    e = np.ascontiguousarray(residuals, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError("residuals must be (n_obs, n_assets)")
    n, dim = e.shape
    if garch is None:
        garch = fit_garch_stage(e)
    elif len(garch) != dim:
        raise ValueError(f"{len(garch)} GARCH fits for {dim} residual series")
    h2, xi = _standardize(e, garch)
    xi = np.ascontiguousarray(xi)
    neg = np.ascontiguousarray(np.where(xi < 0.0, xi, 0.0))

    second = xi.T @ xi / n
    diag = np.sqrt(np.diag(second))
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise ValueError("standardized residuals have a degenerate second moment")
    obar = np.ascontiguousarray(symmetrize(second / np.outer(diag, diag)))
    np.fill_diagonal(obar, 1.0)
    nbar = np.ascontiguousarray(symmetrize(neg.T @ neg / n))

    fallback = False
    if dim == 1:
        a, b, g = 0.0, 0.0, 0.0
    else:
        def objective(x):
            params, jac = _corr_from_x(x)
            nll, grad, _ = corr_negloglik(xi, neg, obar, nbar, *params)
            return nll / n, (grad / n) @ jac

        bounds = [(0.0, 1.0)] * (2 if kind == "dcc" else 3)
        best_x = _fit_box(objective, _corr_starts(kind), bounds)
        if best_x is None:
            logger.warning("%s optimizer failed; boundary fallback used", kind)
            a, b = _DCC_FALLBACK
            g = 0.0
            fallback = True
        else:
            (a, b, g), _ = _corr_from_x(best_x)

    nll_corr, _, q_last = corr_negloglik(xi, neg, obar, nbar, a, b, g)
    if not np.isfinite(nll_corr):
        # fallback parameters must at least produce a valid recursion
        a, b, g, fallback = 0.0, 0.0, 0.0, True
        nll_corr, _, q_last = corr_negloglik(xi, neg, obar, nbar, a, b, g)
    vol_term = 0.5 * float(np.sum(np.log(h2)))
    loglik = -(nll_corr + 0.5 * n * dim * LOG_2PI + vol_term)

    return DccFit(
        kind=kind,
        a=float(a),
        b=float(b),
        g=float(g),
        obar=obar,
        nbar=nbar,
        loglik=float(loglik),
        garch=garch,
        last_e=e[-1].copy(),
        last_h2=h2[-1].copy(),
        last_xi=xi[-1].copy(),
        last_neg=neg[-1].copy(),
        last_o=np.asarray(q_last, dtype=np.float64).copy(),
        n_obs=n,
        fallback=fallback,
    )


def select_best(dcc_fit: DccFit, adcc_fit: DccFit) -> DccFit:
    """The fit with strictly higher log-likelihood; ties go to the
    symmetric model (fewer parameters)."""
    return adcc_fit if adcc_fit.loglik > dcc_fit.loglik else dcc_fit


def _next_state(fit: DccFit) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead variance vector and raw correlation estimator."""
    omega = np.array([p.omega for p in fit.garch])
    alpha = np.array([p.alpha for p in fit.garch])
    beta = np.array([p.beta for p in fit.garch])
    h2_next = omega + alpha * fit.last_e**2 + beta * fit.last_h2
    o_next = (
        (1.0 - fit.a - fit.b) * fit.obar
        - fit.g * fit.nbar
        + fit.a * np.outer(fit.last_xi, fit.last_xi)
        + fit.b * fit.last_o
        + fit.g * np.outer(fit.last_neg, fit.last_neg)
    )
    return h2_next, o_next


def forecast_covariance(fit: DccFit) -> np.ndarray:
    """One-step conditional covariance forecast.

    Variances come from the per-asset recursions, the correlation from the
    rescaled correlation recursion.  A (rare) indefinite assembly is clipped
    to the PSD cone with a logged warning.
    """
    h2_next, o_next = _next_state(fit)
    diag = np.diag(o_next)
    if np.any(diag <= 0.0):
        logger.warning("correlation estimator lost positive diagonal; clipping")
        o_next = floor_psd(o_next, 1e-12)
        diag = np.diag(o_next)
    scale = 1.0 / np.sqrt(diag)
    p_next = symmetrize(o_next * np.outer(scale, scale))
    vol = np.sqrt(h2_next)
    omega_hat = symmetrize(p_next * np.outer(vol, vol))
    lam_min = min_eigenvalue(omega_hat)
    if lam_min < -1e-10 * max(1.0, float(np.max(np.abs(omega_hat)))):
        logger.warning("covariance forecast indefinite (min eig %.3e); clipping", lam_min)
        omega_hat = floor_psd(omega_hat, 0.0)
    return omega_hat


def advance(fit: DccFit, e_new) -> DccFit:
    """Roll the recursion states one day forward with a new residual.

    Used between refits when the rolling backtest runs with a stride: the
    coefficients stay fixed while the variance/correlation states absorb
    the newly observed residual.
    """
    e_new = np.asarray(e_new, dtype=np.float64).ravel()
    h2_next, o_next = _next_state(fit)
    xi_new = e_new / np.sqrt(h2_next)
    neg_new = np.where(xi_new < 0.0, xi_new, 0.0)
    return dataclasses.replace(
        fit,
        last_e=e_new,
        last_h2=h2_next,
        last_xi=xi_new,
        last_neg=neg_new,
        last_o=o_next,
        n_obs=fit.n_obs + 1,
    )


def scale_covariance_by_jump(omega_hat: np.ndarray, jump_mat: np.ndarray) -> np.ndarray:
    """Analytic liquidity scaling: jump^(-1/2) Omega jump^(-1/2)."""
    jumps = np.diag(np.asarray(jump_mat, dtype=np.float64))
    if np.any(jumps <= 0.0):
        raise ValueError("jump matrix must have positive diagonal")
    scale = 1.0 / np.sqrt(jumps)
    return symmetrize(np.asarray(omega_hat, dtype=np.float64) * np.outer(scale, scale))
