"""Likelihood kernels of the volatility and correlation recursions.

The GARCH(1,1) variance recursion and the (A)DCC correlation recursion are
linear in their state, so each is one ``scipy.signal.lfilter`` pass.  The
negative log-likelihood kernels return their value together with the exact
gradient, which the fits hand to a quasi-Newton optimizer:

* the variance derivatives dh_t/d(omega, alpha, beta) obey the variance
  recursion itself, driven by (1, eps2_{t-1}, h_{t-1}) (Fiorentini,
  Calzolari & Panattoni 1996), so they are one more filter with pole beta;
* the correlation score sums <G_t, dQ_t> over time, with G_t the gradient
  of one day's term in Q_t.  dQ_t/d(a, b, g) obeys the Q recursion driven by
  (X_{t-1} - Obar, Q_{t-1} - Obar, M_{t-1} - Nbar), so filtering G backwards
  in time with pole b (the adjoint) gives all three derivatives from one
  pass over the d(d+1)/2 distinct entries.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.signal import lfilter

LOG_2PI = math.log(2.0 * math.pi)


def garch11_filter(eps2, omega, alpha, beta, h2_0):
    """Conditional variances h_t = omega + alpha eps2_{t-1} + beta h_{t-1}, h_0 = h2_0."""
    n = eps2.shape[0]
    h2 = np.empty(n)
    h2[0] = h2_0
    if n > 1:
        drive = omega + alpha * eps2[:-1]
        h2[1:] = lfilter([1.0], [1.0, -beta], drive, zi=np.array([beta * h2_0]))[0]
    return h2


def garch11_negloglik(eps2, omega, alpha, beta, h2_0):
    """Gaussian negative log-likelihood of squared residuals eps2 and its
    gradient in (omega, alpha, beta).

    h2_0 is held fixed.  Returns (+inf, zeros) when a variance is not
    positive and finite.
    """
    h2 = garch11_filter(eps2, omega, alpha, beta, h2_0)
    grad = np.zeros(3)
    if not np.all(np.isfinite(h2)) or np.any(h2 <= 0.0):
        return np.inf, grad
    nll = 0.5 * float(np.sum(LOG_2PI + np.log(h2) + eps2 / h2))
    if eps2.shape[0] > 1:
        drive = np.empty((eps2.shape[0] - 1, 3))
        drive[:, 0] = 1.0
        drive[:, 1] = eps2[:-1]
        drive[:, 2] = h2[:-1]
        dh2 = lfilter([1.0], [1.0, -beta], drive, axis=0)
        inv = 1.0 / h2[1:]
        grad = 0.5 * ((inv - eps2[1:] * inv * inv) @ dh2)
    return nll, grad


@functools.lru_cache(maxsize=None)
def _lower_entries(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the lower triangle of a dim x dim matrix,
    and the weight of each entry in a symmetric inner product <A, B>."""
    rows, cols = np.tril_indices(dim)
    weight = np.where(rows == cols, 1.0, 2.0)
    for arr in (rows, cols, weight):
        arr.setflags(write=False)
    return rows, cols, weight


def _inverse_factor(chol: np.ndarray) -> np.ndarray:
    """W = L^-1 for a stack of lower-triangular factors L, by forward
    substitution over rows (batched over the leading axis)."""
    dim = chol.shape[1]
    w = np.zeros_like(chol)
    inv_diag = 1.0 / np.diagonal(chol, axis1=1, axis2=2)
    for i in range(dim):
        w[:, i, i] = inv_diag[:, i]
        if i:
            w[:, i, :i] = -np.einsum("tk,tkj->tj", chol[:, i, :i], w[:, :i, :i]) * inv_diag[:, i, None]
    return w


def corr_negloglik(xi, xneg, obar, nbar, a, b, g):
    """Gaussian negative log-likelihood of the correlation recursion, its
    gradient in (a, b, g), and the last Q.

    Q_0 = obar; Q_t = (1-a-b) obar - g nbar + a x x' + b Q_{t-1} + g m m'
    with x, m the standardized and negative-part residuals of day t-1.  Each
    Q_t is rescaled to unit diagonal, P_t = D_t Q_t D_t, before it enters
    the likelihood.  The value is +inf (with a zero gradient) when a
    rescaled matrix is not positive definite.  The 2*pi constant is
    excluded (it cancels in comparisons).

    The symmetric matrices are filtered as their lower triangles.  With
    z = P^-1 x, one day's term has gradient in Q
    G = D (P^-1 - z z') D - diag((1 - x_i z_i) / q_ii).
    """
    n, dim = xi.shape
    rows, cols, weight = _lower_entries(dim)
    on_diag = rows == cols
    grad = np.zeros(3)
    xx = xi[:-1, rows] * xi[:-1, cols]
    mm = xneg[:-1, rows] * xneg[:-1, cols]
    o_low, n_low = obar[rows, cols], nbar[rows, cols]
    q = np.empty((n, rows.size))
    q[0] = o_low
    if n > 1:
        drive = ((1.0 - a - b) * o_low - g * n_low) + a * xx
        if g != 0.0:
            drive += g * mm
        q[1:] = lfilter([1.0], [1.0, -b], drive, axis=0, zi=b * o_low[None, :])[0]
    q_last = np.empty((dim, dim))
    q_last[rows, cols] = q[-1]
    q_last[cols, rows] = q[-1]
    diag = q[:, on_diag]
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        return np.inf, grad, q_last
    scale = 1.0 / np.sqrt(diag)
    outer = scale[:, rows] * scale[:, cols]
    p = np.empty((n, dim, dim))
    p[:, rows, cols] = q * outer
    p[:, cols, rows] = p[:, rows, cols]
    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        return np.inf, grad, q_last
    w = _inverse_factor(chol)
    w_t = np.ascontiguousarray(w.transpose(0, 2, 1))
    y = np.einsum("tij,tj->ti", w, xi)
    nll = np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))) + 0.5 * np.einsum("ti,ti->", y, y)
    if n > 1:
        z = np.einsum("tij,tj->ti", w_t[1:], y[1:])
        p_inv = np.matmul(w_t[1:], w[1:])
        grad_q = (p_inv[:, rows, cols] - z[:, rows] * z[:, cols]) * outer[1:]
        grad_q[:, on_diag] -= (1.0 - xi[1:] * z) * scale[1:] ** 2
        grad_q *= weight
        # adjoint: lam_t = G_t + b lam_{t+1}, run backwards in time; then
        # d nll = 1/2 sum_t <lam_t, drive derivative of day t>
        lam = lfilter([1.0], [1.0, -b], grad_q[::-1], axis=0)[::-1]
        lam_sum = lam.sum(axis=0)
        o_term = lam_sum @ o_low
        grad[0] = np.einsum("tk,tk->", lam, xx) - o_term
        grad[1] = np.einsum("tk,tk->", lam, q[:-1]) - o_term
        grad[2] = np.einsum("tk,tk->", lam, mm) - lam_sum @ n_low
        grad *= 0.5
    return float(nll), grad, q_last
