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
  pass over the d(d+1)/2 distinct entries;
* the correlation Hessian (``corr_hessian``) adds the tangents
  dQ_t/d(a, b, g), one more filter with pole b driven by the same three
  terms at t-1.  The second derivatives of Q are nonzero only in (a, b),
  (b, b) and (g, b), where they are dQ_{t-1} filtered again, so they
  contract with the adjoint: sum_t <lam_t, dQ_{t-1}>, doubled for (b, b).
  With K = Q^-1 = D P^-1 D, e_i = diag(dQ_i) / diag(Q), u = x / diag(D),
  v = D z and c_i = u e_i / 2 - dQ_i v, each day adds
  -tr(K dQ_i K dQ_j) + sum_k e_ik e_jk (1 - x_k z_k / 2) + 2 c_i' K c_j,
  and the Hessian is half the sum of both parts over days.

The correlation kernels take one input besides (a, b, g): ``CorrTerms``,
the constants of one standardized window, built once for every fit of that
window.  ``corr_negloglik`` is the forward pass; it keeps its state on the
terms, so the Hessian at the point just evaluated costs only its own terms.
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
def _lower_entries(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the lower triangle of a dim x dim matrix,
    the weight of each entry in a symmetric inner product <A, B>, the
    positions of the diagonal entries, and the (dim, dim) gather index that
    rebuilds the full symmetric matrix from the lower-triangle entries."""
    rows, cols = np.tril_indices(dim)
    weight = np.where(rows == cols, 1.0, 2.0)
    diag = np.flatnonzero(rows == cols)
    full = np.empty((dim, dim), dtype=np.intp)
    full[rows, cols] = full[cols, rows] = np.arange(rows.size)
    for arr in (rows, cols, weight, diag, full):
        arr.setflags(write=False)
    return rows, cols, weight, diag, full


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


class CorrTerms:
    """The constants of one standardized window, for all its correlation
    fits: xi and the lower triangles of x x' and m m' of every day but the
    last, of obar and of nbar.  ``last`` keeps the inputs of the Hessian at
    the last pass made with these terms, which ``corr_hessian`` reuses."""

    def __init__(self, xi, xneg, obar, nbar):
        rows, cols = _lower_entries(xi.shape[1])[:2]
        self.xi = xi
        self.xx = xi[:-1, rows] * xi[:-1, cols]
        self.mm = xneg[:-1, rows] * xneg[:-1, cols]
        self.o_low, self.n_low = obar[rows, cols], nbar[rows, cols]
        self.last = None


def corr_negloglik(terms: CorrTerms, a, b, g):
    """Gaussian negative log-likelihood of the correlation recursion, its
    gradient in (a, b, g), and the last Q (the pass's state goes to terms).

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
    xi, xx, mm, o_low, n_low = terms.xi, terms.xx, terms.mm, terms.o_low, terms.n_low
    n, dim = xi.shape
    rows, cols, weight, on_diag, full = _lower_entries(dim)
    grad = np.zeros(3)
    terms.last = (a, b, g), grad, None
    q = np.empty((n, rows.size))
    q[0] = o_low
    if n > 1:
        drive = ((1.0 - a - b) * o_low - g * n_low) + a * xx
        if g != 0.0:
            drive += g * mm
        q[1:] = lfilter([1.0], [1.0, -b], drive, axis=0, zi=b * o_low[None, :])[0]
    q_last = q[-1][full]
    diag = q[:, on_diag]
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
        return np.inf, grad, q_last
    scale = 1.0 / np.sqrt(diag)
    outer = scale[:, rows] * scale[:, cols]
    try:
        chol = np.linalg.cholesky((q * outer)[:, full])
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
        terms.last = (a, b, g), grad, (q, scale, outer, z, p_inv, lam)
    return float(nll), grad, q_last


def corr_hessian(terms: CorrTerms, a, b, g):
    """The gradient and the exact Hessian of ``corr_negloglik`` in (a, b, g)
    (zero where the value is +inf), from the last pass with terms when it
    was made at (a, b, g)."""
    if terms.last is None or terms.last[0] != (a, b, g):
        corr_negloglik(terms, a, b, g)
    _, grad, state = terms.last
    return grad, np.zeros((3, 3)) if state is None else _corr_hessian(terms, b, *state)


def _corr_hessian(terms: CorrTerms, b, q, scale, outer, z, p_inv, lam) -> np.ndarray:
    """The Hessian of the correlation negative log-likelihood in (a, b, g),
    from the forward pass's Q path, its rescaling, z = P^-1 x, P^-1 and the
    adjoint lam of days 1..n-1."""
    xi, xx, mm, o_low, n_low = terms.xi, terms.xx, terms.mm, terms.o_low, terms.n_low
    _, _, _, on_diag, full = _lower_entries(xi.shape[1])
    drive = np.stack([xx - o_low, q[:-1] - o_low, mm - n_low], axis=1)
    tangent = lfilter([1.0], [1.0, -b], drive, axis=0)     # dq_t/d(a, b, g), t = 1..n-1
    # second derivatives of Q, contracted with the adjoint
    cross = np.einsum("tk,tjk->j", lam[1:], tangent[:-1])
    hess = np.zeros((3, 3))
    hess[:, 1] += cross
    hess[1, :] += cross
    # each day's second derivative of its term along dQ_i, dQ_j
    d_q = tangent[:, :, full]
    k_mat = p_inv * outer[1:, full]
    k_dq = np.matmul(k_mat[:, None], d_q)
    e = tangent[:, :, on_diag] * scale[1:, None] ** 2
    c = 0.5 * (xi[1:] / scale[1:])[:, None] * e - np.matmul(d_q, (scale[1:] * z)[:, None, :, None])[..., 0]

    def gram(left, right):
        """sum over days and entries of left_i * right_j, as a 3 x 3 matrix."""
        return np.einsum("tik,tjk->ij", left.reshape(*left.shape[:2], -1),
                         right.reshape(*right.shape[:2], -1))

    hess -= gram(k_dq, k_dq.transpose(0, 1, 3, 2))
    hess += gram(e * (1.0 - 0.5 * xi[1:] * z)[:, None], e)
    hess += 2.0 * gram(c, np.matmul(c, k_mat))
    return 0.25 * (hess + hess.T)
