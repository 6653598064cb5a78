"""Bayesian shrinkage of the intraday covariance toward the dynamic forecast.

The posterior covariance adds to the prior the inverse of a sum of scaled
precisions,

    posterior = prior + [ (tau * prior)^-1 + conditional^-1 ]^-1,

so the posterior dominates the prior by a PSD increment and the confidence
scalar tau (default 1.0, sensible range [0.01, 10]) sets how much weight the
prior precision carries.  The same formula serves the liquidity-adjusted
pipeline with adjusted inputs; linked_posterior evaluates the closed-form
cross-pipeline identity that rewrites the adjusted posterior in terms of the
regular inputs and the diffusion/jump scaling matrices, which must agree
with the two-step evaluation to float accuracy.
"""

from __future__ import annotations

import numpy as np

from .linalg import sym_inverse, symmetrize
from .liquidity import composite_matrix

TAU_DEFAULT = 1.0


def posterior_covariance(sigma_prior, omega_hat, tau: float = TAU_DEFAULT) -> np.ndarray:
    """Shrink the prior toward the conditional covariance forecast.

    Both inputs must be invertible after the eigenvalue floor; a matrix with
    no usable spectrum raises SingularMatrixError naming it.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    sigma_prior = np.asarray(sigma_prior, dtype=np.float64)
    omega_hat = np.asarray(omega_hat, dtype=np.float64)
    prior_precision = sym_inverse(tau * sigma_prior, "sigma_prior")
    cond_precision = sym_inverse(omega_hat, "omega_hat")
    increment = sym_inverse(prior_precision + cond_precision, "precision_sum")
    return symmetrize(sigma_prior + increment)


def linked_posterior(
    sigma_tt_regular,
    omega_hat_regular,
    diff_mat,
    jump_mat,
    tau: float = TAU_DEFAULT,
) -> np.ndarray:
    """Adjusted-pipeline posterior from regular inputs via the composite matrix.

    Evaluates

        D^-1 [ prior + ((tau*prior)^-1 + (C Omega C')^-1)^-1 ] D^-T,
        C = D J^(-1/2)

    with D the diffusion matrix and J the diagonal jump matrix.  This equals
    posterior_covariance applied to the adjusted prior D^-1 prior D^-T and
    adjusted conditional J^(-1/2) Omega J^(-1/2).
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    sigma = np.asarray(sigma_tt_regular, dtype=np.float64)
    omega = np.asarray(omega_hat_regular, dtype=np.float64)
    diff = np.asarray(diff_mat, dtype=np.float64)
    comp = composite_matrix(diff, np.asarray(jump_mat, dtype=np.float64))

    scaled_cond = symmetrize(comp @ omega @ comp.T)
    prior_precision = sym_inverse(tau * sigma, "sigma_prior")
    cond_precision = sym_inverse(scaled_cond, "scaled_omega")
    core = sigma + sym_inverse(prior_precision + cond_precision, "precision_sum")
    # D^-1 core D^-T without forming the inverse explicitly
    left = np.linalg.solve(diff, core)
    out = np.linalg.solve(diff, left.T).T
    return symmetrize(out)
