"""Dynamic conditional covariance of residual vectors.

Stage one fits a Gaussian quasi-MLE GARCH(1,1) per residual series under the
stationarity constraint; stage two fits the correlation dynamics

    Q_{t+1} = (1-a-b) Qbar + a x_t x_t' + b Q_t                    (symmetric)
    Q_{t+1} = (1-a-b) Qbar - g Nbar + a x_t x_t' + b Q_t + g m_t m_t'   (asymmetric)

on the standardized residuals x_t (m_t keeps only their negative parts),
again by Gaussian quasi-MLE.  Both correlation fits of a window read the one
standardized window of its ``GarchStage``.  Both stages minimize the
per-observation negative log-likelihood with L-BFGS-B and exact gradients,
once from each of two (GARCH) or three (correlation) fixed starts; a third
GARCH start or a restart barely moved a fit (``_fit_box``).  Given the fit
of a related window, a correlation fit is instead solved once from that
fit's optimum (a warm start), by projected Newton steps on the exact Hessian
(``_newton_box``): next to the optimum, one Hessian reused over a few steps
converges in 3-5 calls where L-BFGS-B takes 7-35.  The GARCH fits always use
their fixed starts, as warm starts there missed the better optimum in many
short windows.  The fits run on box-bounded coordinates in which positivity
and the stationarity simplex are the box:

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
from scipy.optimize import OptimizeResult, minimize

from ._kernels import (LOG_2PI, CorrTerms, corr_hessian, corr_negloglik, garch11_filter,
                       garch11_negloglik)
from .linalg import InsufficientDataError, floor_psd, min_eigenvalue, symmetrize

logger = logging.getLogger(__name__)

MAX_PERSISTENCE = 0.9995
GARCH_MIN_OBS = 50

_GARCH_STARTS = ((0.10, 0.80), (0.02, 0.95))
_DCC_STARTS = ((0.05, 0.90), (0.02, 0.95), (1e-4, 1e-4))
_ADCC_STARTS = ((0.03, 0.90, 0.03), (0.01, 0.95, 0.02), (1e-4, 1e-4, 1e-4))

_GARCH_BOUNDS = ((0.0, MAX_PERSISTENCE), (0.0, 1.0), (-25.0, 5.0))
# Bound on a + b + g in the correlation fits: the cap less a margin for the
# few ulps by which the three parts, summed in floating point, can exceed it.
_CORR_CAP = MAX_PERSISTENCE - 1e-12

_GARCH_FALLBACK = (0.05, 0.90)
_DCC_FALLBACK = (0.02, 0.95)

# An ADCC fit below the DCC fit it nests by more than this share of DCC's
# log-likelihood is solved again from the DCC optimum.  Smaller gaps are two
# solves stopping at slightly different points of one flat optimum (at most
# 4.3e-16 of the log-likelihood on the bundled data).
_NESTING_RTOL = 1e-9

# The solves' projected-gradient tolerance, and the relative change of a
# likelihood value below which the values cannot resolve a decrease.
_GTOL = 1e-9
_ROUNDING = 4.0 * np.finfo(np.float64).eps


def _minimize_fd(fun, x0: np.ndarray, bounds) -> "object":
    """One bounded L-BFGS-B solve of ``fun``, which returns (value, gradient):
    the GARCH solves, the cold correlation solves and the nesting re-solve.

    The tolerances are tight because the gradient is exact.  With scipy's
    defaults the relative-reduction test ended some fits of weak correlation
    dynamics, where the likelihood is flat, short of the optimum.  (The name
    is kept because perfbench's tracer counts solves through it.)
    """
    return minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                    options={"ftol": 1e-13, "gtol": _GTOL})


def _fit_box(fun, starts, bounds) -> np.ndarray | None:
    """Solve once from each start (two per GARCH fit, three per correlation
    fit): the best point, or None if no solve ends finite.  Fewer starts miss
    the best optimum by over 1e-6 on some 60-200 day windows.  Without a third
    GARCH start, (0.05, 0.90), and a second solve from the best point, no fit
    ended over 1e-9 (relative) lower, bar 11 of 18 980 (at most 1.4e-7)."""
    results = [_minimize_fd(fun, np.asarray(x0, dtype=np.float64), bounds) for x0 in starts]
    finite = [res for res in results if np.isfinite(res.fun)]
    return min(finite, key=lambda res: res.fun).x if finite else None


def _newton_box(fun, hessian, x0: np.ndarray) -> OptimizeResult:
    """One projected Newton solve (Bertsekas 1982) of ``fun`` on the unit box
    from x0.  fun(x) returns (value, gradient); hessian(x) the Hessian at
    the point fun evaluated last.

    Each step (at most 50) holds the coordinates that sit on a bound with
    the gradient pointing out of the box, takes a Newton step in the others
    on the Hessian with its eigenvalues floored in magnitude, and halves it
    along the projection (at most 30 times) until the Armijo condition holds
    to rounding.  The Hessian is reused after a unit step that cut the
    projected gradient tenfold, and computed afresh otherwise.  The solve
    stops at _GTOL, or once the Newton step predicts a decrease at rounding
    level, which the values no longer resolve.
    """
    x = np.clip(x0, 0.0, 1.0)
    f, g = fun(x)
    hess = hessian(x)
    res = OptimizeResult(nfev=1, nhev=1, nit=0)
    pg = _projected_gradient(x, g)
    while np.isfinite(f) and pg > _GTOL and res.nit < 50:
        free = ~(((x <= 0.0) & (g > 0.0)) | ((x >= 1.0) & (g < 0.0)))
        eig, vec = np.linalg.eigh(hess[np.ix_(free, free)])
        eig = np.maximum(np.abs(eig), 1e-10 * max(np.abs(eig).max(), 1.0))
        step = np.zeros_like(x)
        step[free] = -vec @ ((vec.T @ g[free]) / eig)
        if -0.5 * g @ step <= _ROUNDING * abs(f):
            break
        res.nit += 1
        for cut in range(30):
            trial = np.clip(x + 0.5 ** cut * step, 0.0, 1.0)
            f_trial, g_trial = fun(trial)
            res.nfev += 1
            if f_trial <= f + 1e-4 * g @ (trial - x) + _ROUNDING * abs(f):
                break
        else:
            break
        pg_trial = _projected_gradient(trial, g_trial)
        x, f, g = trial, f_trial, g_trial
        if cut or pg_trial > 0.1 * pg:
            hess = hessian(x)
            res.nhev += 1
        pg = pg_trial
    res.update(x=x, fun=f)
    return res


def _projected_gradient(x: np.ndarray, g: np.ndarray) -> float:
    """The largest move of x under a gradient step projected on the unit box."""
    return float(np.max(np.abs(x - np.clip(x - g, 0.0, 1.0))))


@dataclass(frozen=True)
class Garch11Params:
    """GARCH(1,1) coefficients: variance intercept, shock load, persistence."""

    omega: float
    alpha: float
    beta: float
    fallback: bool = False


@dataclass(frozen=True)
class DccFit:
    """Fitted correlation dynamics plus the one-step-ahead recursion state.

    kind is "dcc" or "adcc" (g is zero for plain dcc).  obar/nbar are the
    unconditional second-moment targets of the standardized residuals and
    of their negative parts.  loglik is the full Gaussian log-likelihood of
    the residuals under the fitted variance and correlation paths.
    h2_next and o_next are the variances and the raw correlation estimator
    Q of the day after the last residual seen.
    """

    kind: str
    a: float
    b: float
    g: float
    obar: np.ndarray
    nbar: np.ndarray
    loglik: float
    garch: tuple[Garch11Params, ...]
    h2_next: np.ndarray
    o_next: np.ndarray
    fallback: bool = False


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


def _corr_map_curvature(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """sum_k grad_k d2 theta_k / dx dx' for theta = (a, b, g) at box point x:
    the second derivatives of _corr_from_x's map (b is linear in x) weighted
    by the (a, b, g) gradient grad."""
    v1, v2 = x[0], x[1]
    v3 = x[2] if x.size == 3 else 0.0
    g_a, _, g_g = _CORR_CAP * grad
    upper = np.array([[0.0, v3 * g_g - g_a, -(1.0 - v2) * g_g],
                      [0.0, 0.0, -(1.0 - v1) * g_g],
                      [0.0, 0.0, 0.0]])
    return (upper + upper.T)[:x.size, :x.size]


def _corr_starts(kind: str) -> list[tuple[float, ...]]:
    starts = []
    for start in (_DCC_STARTS if kind == "dcc" else _ADCC_STARTS):
        a, b = start[0], start[1]
        x0 = (b / _CORR_CAP, a / (_CORR_CAP - b))
        starts.append(x0 if kind == "dcc" else x0 + (start[2] / (_CORR_CAP - b - a),))
    return starts


def _box_point(fit: DccFit, size: int) -> np.ndarray:
    """fit's (a, b, g) as a point of the size-coordinate box: the first two
    coordinates for DCC, all three for ADCC (a DCC fit's g = 0 gives v3 = 0)."""
    rem = _CORR_CAP - fit.b
    v2 = fit.a / rem if rem > 0.0 else 0.0
    rem_g = rem - fit.a
    v3 = fit.g / rem_g if rem_g > 0.0 else 0.0
    return np.clip([fit.b / _CORR_CAP, v2, v3][:size], 0.0, 1.0)


@dataclass(frozen=True)
class GarchStage:
    """Stage one of a window, read by both its correlation fits: residuals,
    GARCH(1,1) fits, variance paths h2, obar, nbar and the kernel's terms."""

    residuals: np.ndarray
    garch: tuple[Garch11Params, ...]
    h2: np.ndarray
    obar: np.ndarray
    nbar: np.ndarray
    terms: CorrTerms


def fit_garch_stage(residuals) -> GarchStage:
    """Stage one of (n_obs, n_assets) residuals: a GARCH(1,1) fit per column."""
    e = np.ascontiguousarray(residuals, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError("residuals must be (n_obs, n_assets)")
    n, dim = e.shape
    garch = tuple(fit_garch11(e[:, i]) for i in range(dim))
    h2 = np.empty((n, dim))
    for i, p in enumerate(garch):
        eps2 = np.ascontiguousarray(e[:, i] ** 2)
        h2[:, i] = garch11_filter(eps2, p.omega, p.alpha, p.beta, float(eps2.mean()))
    xi = np.ascontiguousarray(e / np.sqrt(h2))
    neg = np.ascontiguousarray(np.where(xi < 0.0, xi, 0.0))
    second = xi.T @ xi / n
    diag = np.sqrt(np.diag(second))
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise ValueError("standardized residuals have a degenerate second moment")
    obar = np.ascontiguousarray(symmetrize(second / np.outer(diag, diag)))
    np.fill_diagonal(obar, 1.0)
    nbar = np.ascontiguousarray(symmetrize(neg.T @ neg / n))
    return GarchStage(e, garch, h2, obar, nbar, CorrTerms(xi, neg, obar, nbar))


def fit_dcc(residuals, kind: str = "dcc", *, nested: DccFit | None = None,
            warm: DccFit | None = None) -> DccFit:
    """Two-stage fit of the conditional covariance dynamics.

    residuals is an (n_obs, n_assets) array, whose GARCH stage is fitted
    here, or that stage (``fit_garch_stage``), which fits of both kinds can
    share.  kind selects the symmetric ("dcc") or asymmetric ("adcc")
    correlation recursion.  Non-convergence falls back to (a, b) =
    (0.02, 0.95) with the fallback flag set.

    warm, when given, is a fit of the same kind on a related window (the
    previous anchor's): the correlation fit is then one Newton solve from
    its optimum instead of L-BFGS-B solves from the fixed starts.  The
    fixed starts are still used after a warm fit that fell back, which is
    no optimum, and after one with a = g = 0: that fit has no correlation
    dynamics, so its b is not identified, and at b on the cap no coordinate
    of the box moves the likelihood, which would hold the solve at its
    start.  A warm fit of the other kind is a bug, not a bad window, so it
    raises TypeError, which no caller takes for a failed anchor.

    nested, for an "adcc" fit, is the "dcc" fit made from the same stage
    object (another stage raises ValueError).  ADCC with g = 0 is DCC, so
    an ADCC fit that ends below it (by more than rounding) is solved once
    more from its optimum, and the better of the two results is kept.
    """
    if kind not in ("dcc", "adcc"):
        raise ValueError(f"kind must be 'dcc' or 'adcc', got {kind!r}")
    if nested is not None and (kind, nested.kind) != ("adcc", "dcc"):
        raise ValueError("only an 'adcc' fit nests a 'dcc' fit")
    if warm is not None and warm.kind != kind:
        raise TypeError(f"a {kind!r} fit cannot start from a {warm.kind!r} fit")
    stage = residuals if isinstance(residuals, GarchStage) else fit_garch_stage(residuals)
    if nested is not None and nested.garch is not stage.garch:
        raise ValueError("the nested DCC fit has another GARCH stage")
    n, dim = stage.residuals.shape

    # the kernel's value and last Q at each box point the solves evaluate,
    # so that the point a solve returns is scored without another pass
    evaluated: dict[bytes, tuple[float, np.ndarray]] = {}

    def objective(x):
        params, jac = _corr_from_x(x)
        nll, grad, q_last = corr_negloglik(stage.terms, *params)
        evaluated[x.tobytes()] = nll, q_last
        return nll / n, (grad / n) @ jac

    def box_hessian(x):
        """objective's Hessian at x, from the kernel's pass when objective
        evaluated x last."""
        params, jac = _corr_from_x(x)
        grad, hess = corr_hessian(stage.terms, *params)
        return (jac.T @ hess @ jac + _corr_map_curvature(x, grad)) / n

    vol_term = 0.5 * float(np.sum(np.log(stage.h2)))

    def score(params, x=None):
        """The full log-likelihood at (a, b, g), and the last Q; read from
        the evaluation at box point x where a solve made one."""
        seen = None if x is None else evaluated.get(x.tobytes())
        nll_corr, q_last = seen or corr_negloglik(stage.terms, *params)[::2]
        return float(-(nll_corr + 0.5 * n * dim * LOG_2PI + vol_term)), q_last

    size = 2 if kind == "dcc" else 3
    bounds = [(0.0, 1.0)] * size
    fallback = False
    best_x = None
    if dim == 1:
        a, b, g = 0.0, 0.0, 0.0
    else:
        if warm is not None and not warm.fallback and warm.a + warm.g > 0.0:
            res = _newton_box(objective, box_hessian, _box_point(warm, size))
            best_x = res.x if np.isfinite(res.fun) else None
        else:
            best_x = _fit_box(objective, _corr_starts(kind), bounds)
        if best_x is None:
            logger.warning("%s optimizer failed; boundary fallback used", kind)
            a, b = _DCC_FALLBACK
            g = 0.0
            fallback = True
        else:
            (a, b, g), _ = _corr_from_x(best_x)

    loglik, q_last = score((a, b, g), best_x)
    if not np.isfinite(loglik):
        # fallback parameters must at least produce a valid recursion
        a, b, g, fallback = 0.0, 0.0, 0.0, True
        loglik, q_last = score((a, b, g))
    if nested is not None and loglik < nested.loglik - _NESTING_RTOL * abs(nested.loglik):
        nested_x = _minimize_fd(objective, _box_point(nested, size), bounds).x
        params, _ = _corr_from_x(nested_x)
        nested_loglik, nested_q = score(params, nested_x)
        if nested_loglik > loglik:
            (a, b, g), loglik, q_last, fallback = params, nested_loglik, nested_q, False

    # the state of the last residual's own day, stepped over that residual
    last_day = DccFit(kind=kind, a=float(a), b=float(b), g=float(g), obar=stage.obar,
                      nbar=stage.nbar, loglik=loglik, garch=stage.garch,
                      h2_next=stage.h2[-1], o_next=q_last, fallback=fallback)
    return advance(last_day, stage.residuals[-1])


def select_best(dcc_fit: DccFit, adcc_fit: DccFit) -> DccFit:
    """The fit with strictly higher log-likelihood; ties go to the
    symmetric model (fewer parameters)."""
    return adcc_fit if adcc_fit.loglik > dcc_fit.loglik else dcc_fit


def _step(fit: DccFit, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The variances and Q of the day after residual e, whose own day's
    variances and Q are fit's h2_next and o_next."""
    xi = e / np.sqrt(fit.h2_next)
    neg = np.where(xi < 0.0, xi, 0.0)
    omega = np.array([p.omega for p in fit.garch])
    alpha = np.array([p.alpha for p in fit.garch])
    beta = np.array([p.beta for p in fit.garch])
    h2_next = omega + alpha * e**2 + beta * fit.h2_next
    o_next = (
        (1.0 - fit.a - fit.b) * fit.obar
        - fit.g * fit.nbar
        + fit.a * np.outer(xi, xi)
        + fit.b * fit.o_next
        + fit.g * np.outer(neg, neg)
    )
    return h2_next, o_next


def forecast_covariance(fit: DccFit) -> np.ndarray:
    """One-step conditional covariance forecast.

    Variances come from the per-asset recursions, the correlation from the
    rescaled correlation recursion.  A (rare) indefinite assembly is clipped
    to the PSD cone with a logged warning.
    """
    o_next = fit.o_next
    diag = np.diag(o_next)
    if np.any(diag <= 0.0):
        logger.warning("correlation estimator lost positive diagonal; clipping")
        o_next = floor_psd(o_next, 1e-12)
        diag = np.diag(o_next)
    scale = 1.0 / np.sqrt(diag)
    p_next = symmetrize(o_next * np.outer(scale, scale))
    vol = np.sqrt(fit.h2_next)
    omega_hat = symmetrize(p_next * np.outer(vol, vol))
    lam_min = min_eigenvalue(omega_hat)
    if lam_min < -1e-10 * max(1.0, float(np.max(np.abs(omega_hat)))):
        logger.warning("covariance forecast indefinite (min eig %.3e); clipping", lam_min)
        omega_hat = floor_psd(omega_hat, 0.0)
    return omega_hat


def advance(fit: DccFit, e_new) -> DccFit:
    """Roll the recursion state one day forward with a new residual.

    Used between refits when the rolling backtest runs with a stride: the
    coefficients stay fixed while the variance/correlation state absorbs
    the newly observed residual.
    """
    h2_next, o_next = _step(fit, np.asarray(e_new, dtype=np.float64).ravel())
    return dataclasses.replace(fit, h2_next=h2_next, o_next=o_next)


def scale_covariance_by_jump(omega_hat: np.ndarray, jump_mat: np.ndarray) -> np.ndarray:
    """Analytic liquidity scaling: jump^(-1/2) Omega jump^(-1/2)."""
    jumps = np.diag(np.asarray(jump_mat, dtype=np.float64))
    if np.any(jumps <= 0.0):
        raise ValueError("jump matrix must have positive diagonal")
    scale = 1.0 / np.sqrt(jumps)
    return symmetrize(np.asarray(omega_hat, dtype=np.float64) * np.outer(scale, scale))
