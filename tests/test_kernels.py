"""Likelihood kernels: values against scalar-loop oracles, gradients against
central differences."""

import numpy as np
import pytest

from liqcov import _kernels as k

LOG_2PI = k.LOG_2PI


# ---------------------------------------------------------------------------
# scalar-loop oracles: the recursions written out one day at a time
# ---------------------------------------------------------------------------

def garch11_filter_loop(eps2, omega, alpha, beta, h2_0):
    n = eps2.shape[0]
    h2 = np.empty(n)
    h2[0] = h2_0
    for t in range(1, n):
        h2[t] = omega + alpha * eps2[t - 1] + beta * h2[t - 1]
    return h2


def garch11_negloglik_loop(eps2, omega, alpha, beta, h2_0):
    n = eps2.shape[0]
    h2 = h2_0
    nll = 0.0
    for t in range(n):
        if t > 0:
            h2 = omega + alpha * eps2[t - 1] + beta * h2
        if not (h2 > 0.0) or not np.isfinite(h2):
            return np.inf
        nll += 0.5 * (LOG_2PI + np.log(h2) + eps2[t] / h2)
    return nll


def corr_negloglik_loop(xi, xneg, obar, nbar, a, b, g):
    """(nll, Q_last) of the correlation recursion, with a hand-written
    Cholesky factorization per day; nll is +inf when a rescaled matrix is
    not positive definite."""
    n, dim = xi.shape
    q = obar.copy()
    chol = np.empty((dim, dim))
    p = np.empty((dim, dim))
    d = np.empty(dim)
    y = np.empty(dim)
    nll = 0.0
    for t in range(n):
        if t > 0:
            for i in range(dim):
                for j in range(dim):
                    q[i, j] = (
                        (1.0 - a - b) * obar[i, j]
                        - g * nbar[i, j]
                        + a * xi[t - 1, i] * xi[t - 1, j]
                        + b * q[i, j]
                        + g * xneg[t - 1, i] * xneg[t - 1, j]
                    )
        for i in range(dim):
            qii = q[i, i]
            if not (qii > 0.0) or not np.isfinite(qii):
                return np.inf, q
            d[i] = 1.0 / np.sqrt(qii)
        for i in range(dim):
            for j in range(dim):
                p[i, j] = q[i, j] * d[i] * d[j]
        logdet = 0.0
        for i in range(dim):
            for j in range(i + 1):
                s = p[i, j]
                for kk in range(j):
                    s -= chol[i, kk] * chol[j, kk]
                if i == j:
                    if s <= 1e-14:
                        return np.inf, q
                    chol[i, i] = np.sqrt(s)
                    logdet += 2.0 * np.log(chol[i, i])
                else:
                    chol[i, j] = s / chol[j, j]
        quad = 0.0
        for i in range(dim):
            s = xi[t, i]
            for kk in range(i):
                s -= chol[i, kk] * y[kk]
            y[i] = s / chol[i, i]
            quad += y[i] * y[i]
        nll += 0.5 * (logdet + quad)
    return nll, q


def make_corr_inputs(rng, n, dim):
    xi = rng.standard_normal((n, dim))
    neg = np.where(xi < 0, xi, 0.0)
    second = xi.T @ xi / n
    d = np.sqrt(np.diag(second))
    obar = second / np.outer(d, d)
    np.fill_diagonal(obar, 1.0)
    nbar = neg.T @ neg / n
    return (np.ascontiguousarray(xi), np.ascontiguousarray(neg),
            np.ascontiguousarray(obar), np.ascontiguousarray(nbar))


def central_differences(value, params, step):
    grad = np.empty(len(params))
    for i in range(len(params)):
        up, down = list(params), list(params)
        up[i] += step
        down[i] -= step
        grad[i] = (value(*up) - value(*down)) / (2.0 * step)
    return grad


def assert_gradient(grad, numeric, rel=1e-6):
    err = np.max(np.abs(grad - numeric)) / np.max(np.abs(numeric))
    assert err <= rel, (grad, numeric, err)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------

def test_garch_filter_paths_agree():
    rng = np.random.default_rng(1)
    eps2 = rng.uniform(0.0, 2.0, 400)
    args = (eps2, 0.1, 0.07, 0.85, 1.3)
    np.testing.assert_allclose(garch11_filter_loop(*args), k.garch11_filter(*args), rtol=1e-12)


def test_garch_negloglik_paths_agree():
    rng = np.random.default_rng(2)
    eps2 = rng.uniform(0.0, 2.0, 500)
    args = (eps2, 0.2, 0.1, 0.8, 1.0)
    assert garch11_negloglik_loop(*args) == pytest.approx(k.garch11_negloglik(*args)[0], rel=1e-12)


def test_garch_invalid_variance_is_inf_both_paths():
    eps2 = np.ones(50)
    assert garch11_negloglik_loop(eps2, -1.0, 0.0, 0.0, -1.0) == np.inf
    nll, grad = k.garch11_negloglik(eps2, -1.0, 0.0, 0.0, -1.0)
    assert nll == np.inf
    assert np.array_equal(grad, np.zeros(3))


@pytest.mark.parametrize("g", [0.0, 0.04])
def test_corr_negloglik_paths_agree(g):
    rng = np.random.default_rng(3)
    xi, neg, obar, nbar = make_corr_inputs(rng, 300, 4)
    nll_loop, q_loop = corr_negloglik_loop(xi, neg, obar, nbar, 0.05, 0.9, g)
    nll_vec, _, q_vec = k.corr_negloglik(xi, neg, obar, nbar, 0.05, 0.9, g)
    assert nll_loop == pytest.approx(nll_vec, rel=1e-10)
    np.testing.assert_allclose(q_loop, q_vec, rtol=1e-10)


def test_corr_indefinite_recursion_is_inf():
    rng = np.random.default_rng(4)
    xi, neg, obar, nbar = make_corr_inputs(rng, 100, 3)
    # a large asymmetric load drives the intercept (1-a-b) obar - g nbar indefinite
    assert corr_negloglik_loop(xi, neg, obar, nbar, 0.0, 0.0, 3.0)[0] == np.inf
    nll, grad, _ = k.corr_negloglik(xi, neg, obar, nbar, 0.0, 0.0, 3.0)
    assert nll == np.inf
    assert np.array_equal(grad, np.zeros(3))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [(0.1, 0.07, 0.85), (0.3, 1e-9, 0.6), (0.02, 0.2, 0.0)])
def test_garch_gradient_matches_central_differences(params):
    rng = np.random.default_rng(5)
    eps2 = rng.standard_normal(365) ** 2 * 0.8
    var_s = float(eps2.mean())

    def value(omega, alpha, beta):
        return k.garch11_negloglik(eps2, omega, alpha, beta, var_s)[0]

    _, grad = k.garch11_negloglik(eps2, *params, var_s)
    assert_gradient(grad, central_differences(value, params, 1e-6))


@pytest.mark.parametrize("params", [
    (0.05, 0.90, 0.0),      # symmetric model, g = 0
    (0.03, 0.90, 0.04),     # asymmetric model, g > 0
    (1e-9, 0.95, 0.01),     # near a = 0, where the former logistic map stalled
])
def test_corr_gradient_matches_central_differences(params):
    rng = np.random.default_rng(6)
    xi, neg, obar, nbar = make_corr_inputs(rng, 365, 5)

    def value(a, b, g):
        return k.corr_negloglik(xi, neg, obar, nbar, a, b, g)[0]

    _, grad, _ = k.corr_negloglik(xi, neg, obar, nbar, *params)
    assert_gradient(grad, central_differences(value, params, 1e-6))


def test_gradients_of_one_day_are_zero():
    xi = np.array([[0.3, -1.2]])
    obar = np.array([[1.0, 0.4], [0.4, 1.0]])
    nll, grad, q_last = k.corr_negloglik(xi, np.minimum(xi, 0.0), obar, np.zeros((2, 2)),
                                         0.05, 0.9, 0.02)
    assert np.isfinite(nll)
    assert np.array_equal(grad, np.zeros(3))
    np.testing.assert_array_equal(q_last, obar)
    _, grad = k.garch11_negloglik(np.array([0.7]), 0.1, 0.1, 0.8, 0.5)
    assert np.array_equal(grad, np.zeros(3))
