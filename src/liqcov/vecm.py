"""Cointegration-aware vector autoregression on daily return vectors.

The error-correction form

    dY_t = Pi Y_{t-1} + sum_i Phi*_i dY_{t-i} + E_t      (no deterministic terms)

is estimated per rolling window: the cointegration rank comes from the trace
test (reduced-rank regression eigenvalues against tabulated 5% critical
values for the no-deterministic-trend specification), the lag order from AIC
over a level-VAR fit with an upper bound of 5, and the coefficients from one
least-squares regression of the differences on the long-run regressors (none
at rank 0, the lagged levels at rank N, their reduced-rank combinations in
between) and the lagged differences.  Every fit also carries the equivalent
level-VAR matrices, which satisfy Pi = -(I - sum Phi_i) by construction and
drive the one-step-ahead return forecast.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh as generalized_eigh

from .linalg import InsufficientDataError

logger = logging.getLogger(__name__)

MAX_LAG = 5

# 5% critical values of the cointegration trace statistic, no deterministic
# part, indexed by the number of non-stationary directions under the null
# (MacKinnon-Haug-Michelis tabulation, dimensions 1..12).
TRACE_CRIT_95 = np.array([
    4.1296, 12.3212, 24.2761, 40.1749, 60.0627, 83.9383,
    111.7797, 143.6691, 179.5199, 219.4051, 263.2603, 311.1288,
])


@dataclass(frozen=True)
class VecmFit:
    """Fitted error-correction model with its level-VAR twin.

    gamma is the long-run matrix of the ECM form; phi is the stack of
    level-VAR coefficient matrices (p, N, N) and phi_star the short-run
    difference matrices (p-1, N, N).  residuals has window_length - p rows.
    """

    p: int
    coint_rank: int
    gamma: np.ndarray
    phi_star: np.ndarray
    phi: np.ndarray
    residuals: np.ndarray
    aic: float
    loglik: float
    ridge_applied: bool = False


def _as_window(window) -> np.ndarray:
    y = np.asarray(window, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("window must be (n_obs, n_assets)")
    return y


def _ols_solve(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least squares via normal equations with a ridge fallback.

    Returns (coefficients shaped (k, m), ridge_applied).  A singular or
    numerically rank-deficient Gram matrix gets a ridge of
    1e-8 * trace/k added, with a logged warning.
    """
    gram = x.T @ x
    rhs = x.T @ y
    k = gram.shape[0]
    try:
        cond_bad = np.linalg.cond(gram) > 1e14
    except np.linalg.LinAlgError:
        cond_bad = True
    if not cond_bad:
        try:
            return np.linalg.solve(gram, rhs), False
        except np.linalg.LinAlgError:
            pass
    ridge = 1e-8 * max(float(np.trace(gram)) / k, np.finfo(np.float64).tiny)
    logger.warning("singular regressor matrix; applying ridge %.3e", ridge)
    return np.linalg.solve(gram + ridge * np.eye(k), rhs), True


def _ecm_blocks(y: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Targets and regressors of the ECM form for lag order p.

    Returns (z0, z1, z2): differenced targets, lagged levels, and stacked
    lagged differences (z2 has zero columns when p == 1).
    """
    n, dim = y.shape
    if n <= p:
        raise InsufficientDataError(f"window of {n} rows cannot fit lag {p}")
    dy = np.diff(y, axis=0)
    rows = np.arange(p, n)           # target time indices
    z0 = dy[rows - 1]                # dy index t-1 holds y_t - y_{t-1}
    z1 = y[rows - 1]
    if p > 1:
        z2 = np.hstack([dy[rows - 1 - i] for i in range(1, p)])
    else:
        z2 = np.empty((rows.shape[0], 0))
    return z0, z1, z2


def _residualize(z: np.ndarray, z2: np.ndarray) -> np.ndarray:
    if z2.shape[1] == 0:
        return z
    coef, _ = _ols_solve(z2, z)
    return z - z2 @ coef


def _rrr_eigen(y: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues/vectors of the reduced-rank regression problem.

    Eigenvalues are sorted descending; eigenvector columns are normalized
    against the lagged-level moment matrix and sign-fixed for determinism.
    """
    z0, z1, z2 = _ecm_blocks(y, p)
    n_eff = z0.shape[0]
    r0 = _residualize(z0, z2)
    r1 = _residualize(z1, z2)
    s00 = r0.T @ r0 / n_eff
    s01 = r0.T @ r1 / n_eff
    s11 = r1.T @ r1 / n_eff
    s00_inv, _ = _ols_solve(s00, np.eye(s00.shape[0]))
    m = s01.T @ s00_inv @ s01
    m = 0.5 * (m + m.T)
    s11 = 0.5 * (s11 + s11.T)
    floor = max(1e-14, 1e-10 * float(np.trace(s11)) / s11.shape[0])
    lam_s, vec_s = np.linalg.eigh(s11)
    s11_reg = (vec_s * np.maximum(lam_s, floor)) @ vec_s.T
    eigvals, eigvecs = generalized_eigh(m, 0.5 * (s11_reg + s11_reg.T))
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, 1.0 - 1e-12)
    eigvecs = eigvecs[:, order]
    for j in range(eigvecs.shape[1]):
        k = int(np.argmax(np.abs(eigvecs[:, j])))
        if eigvecs[k, j] < 0.0:
            eigvecs[:, j] = -eigvecs[:, j]
    return eigvals, eigvecs


def _trace_test(y: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Trace-test rank and the eigenvectors it was computed from."""
    n, dim = y.shape
    if n < 10 * dim:
        raise InsufficientDataError(f"need at least {10 * dim} rows for {dim} assets, got {n}")
    if dim > TRACE_CRIT_95.shape[0]:
        raise ValueError(f"critical values tabulated only up to dimension {TRACE_CRIT_95.shape[0]}")
    eigvals, eigvecs = _rrr_eigen(y, p)
    n_eff = n - p
    log_terms = np.log(1.0 - eigvals)
    for rank in range(dim):
        trace_stat = -n_eff * float(np.sum(log_terms[rank:]))
        if trace_stat <= TRACE_CRIT_95[dim - rank - 1]:
            return rank, eigvecs
    return dim, eigvecs


def johansen_trace(window, p: int) -> int:
    """Cointegration rank at the 5% level by the sequential trace test.

    Runs the no-deterministic-trend specification; the largest rank whose
    smaller-rank nulls were all rejected is returned (N for a fully
    stationary system, 0 when no null is rejected).
    """
    return _trace_test(_as_window(window), p)[0]


def _var_design(y: np.ndarray, p: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    n = y.shape[0]
    rows = np.arange(offset, n)
    target = y[rows]
    x = np.hstack([y[rows - i] for i in range(1, p + 1)])
    return x, target


def select_lag(window, max_lag: int = MAX_LAG) -> int:
    """Level-VAR lag order in [1, max_lag] minimizing the AIC.

    All candidates are fit on the common sample implied by max_lag so the
    information criteria are comparable.
    """
    y = _as_window(window)
    n, dim = y.shape
    n_eff = n - max_lag
    if n_eff < max_lag * dim + 2:
        raise InsufficientDataError(
            f"window of {n} rows is too short to fit lag {max_lag} with {dim} assets"
        )
    best_p, best_aic = 1, np.inf
    for p in range(1, max_lag + 1):
        x, target = _var_design(y, p, max_lag)
        coef, _ = _ols_solve(x, target)
        resid = target - x @ coef
        sigma = resid.T @ resid / n_eff
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            continue
        aic = float(logdet) + 2.0 * p * dim * dim / n_eff
        if aic < best_aic - 1e-12:
            best_p, best_aic = p, aic
    return best_p


def _levels_from_ecm(gamma: np.ndarray, phi_star: np.ndarray) -> np.ndarray:
    """Level-VAR matrices equivalent to the ECM coefficients."""
    dim = gamma.shape[0]
    p = phi_star.shape[0] + 1
    phi = np.zeros((p, dim, dim))
    eye = np.eye(dim)
    if p == 1:
        phi[0] = eye + gamma
        return phi
    phi[0] = eye + gamma + phi_star[0]
    for i in range(1, p - 1):
        phi[i] = phi_star[i] - phi_star[i - 1]
    phi[p - 1] = -phi_star[p - 2]
    return phi


def fit_vecm(window, p: int | None = None, coint_rank: int | None = None) -> VecmFit:
    """Estimate the ECM for the window at the given lag and rank.

    Lag and rank default to select_lag / johansen_trace on the same window;
    a tested rank reuses the test's eigenvectors.  Residuals are returned
    for the correlation-model stage downstream.
    """
    y = _as_window(window)
    n, dim = y.shape
    if p is None:
        p = select_lag(y)
    if not 1 <= p <= MAX_LAG:
        raise ValueError(f"lag must be in [1, {MAX_LAG}], got {p}")
    eigvecs = None
    if coint_rank is None:
        coint_rank, eigvecs = _trace_test(y, p)
    if not 0 <= coint_rank <= dim:
        raise ValueError(f"cointegration rank must be in [0, {dim}], got {coint_rank}")

    z0, z1, z2 = _ecm_blocks(y, p)
    n_eff = z0.shape[0]
    # long-run regressors: none at rank 0, the lagged levels at full rank,
    # their cointegrating combinations z1 @ beta in between
    if coint_rank == dim:
        beta = None
    elif coint_rank == 0:
        beta = np.zeros((dim, 0))
    else:
        if eigvecs is None:
            _, eigvecs = _rrr_eigen(y, p)
        beta = eigvecs[:, :coint_rank]
    x = np.hstack([z1 if beta is None else z1 @ beta, z2])
    if x.shape[1] > 0:
        coef, ridge = _ols_solve(x, z0)
        resid = z0 - x @ coef
    else:
        coef, ridge, resid = np.empty((0, dim)), False, z0
    alpha = coef[:coint_rank].T
    gamma = alpha if beta is None else alpha @ beta.T
    phi_star = coef[coint_rank:].reshape(p - 1, dim, dim).transpose(0, 2, 1)

    phi = _levels_from_ecm(gamma, phi_star)
    sigma = resid.T @ resid / n_eff
    _, logdet = np.linalg.slogdet(sigma + 1e-300 * np.eye(dim))
    loglik = -0.5 * n_eff * (dim * np.log(2.0 * np.pi) + float(logdet) + dim)
    n_params = dim * dim * (p - 1)
    if coint_rank == dim:
        n_params += dim * dim
    elif coint_rank > 0:
        n_params += 2 * dim * coint_rank
    aic = float(logdet) + 2.0 * n_params / n_eff

    return VecmFit(
        p=p,
        coint_rank=coint_rank,
        gamma=gamma,
        phi_star=phi_star,
        phi=phi,
        residuals=resid,
        aic=aic,
        loglik=loglik,
        ridge_applied=ridge,
    )


def var_one_step(phi: np.ndarray, history) -> np.ndarray:
    """Next value of the level-VAR recursion from the last p observations."""
    h = np.asarray(history, dtype=np.float64)
    p = phi.shape[0]
    if h.shape[0] < p:
        raise ValueError(f"need at least {p} observations, got {h.shape[0]}")
    out = np.zeros(phi.shape[1])
    for i in range(p):
        out += phi[i] @ h[-1 - i]
    return out


def fitted_residual(fit: VecmFit, history, observed) -> np.ndarray:
    """In-sample-style residual of a new observation under fixed coefficients."""
    return np.asarray(observed, dtype=np.float64) - var_one_step(fit.phi, history)
