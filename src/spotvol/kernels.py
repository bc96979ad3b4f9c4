"""Log-posterior and gradient kernel for the latent-volatility models.

This is the hot path: one evaluation per leapfrog step, hundreds of
thousands per fit. The kernel is vectorized numpy; the AR(1) forward and
adjoint recursions are each one BLAS unit-bidiagonal solve (``dtbsv``),
done in place. It allocates as few temporaries as it can and sets no
floating-point error state of its own (the sampler silences overflow once
per chain).

Parameter vector layout (unconstrained scale), with T latent days and a
design matrix of k columns (k = 0 for the baseline model):

    [mu, phi_raw, sigma_raw, w_1..w_k, intercept (only if k > 0), u_1..u_T]

where phi = tanh(phi_raw), sigma = exp(sigma_raw), and u are the
standardized volatility innovations (non-centered parameterization):

    h_1 = mu + sigma * u_1 / sqrt(1 - phi^2)
    h_t = mu + phi * (h_{t-1} - mu) + sigma * u_t

The observation y_t is Normal(mean_t, scale = exp(h_t / 2)) with
mean_t = ybar + Z_t . w + intercept. Priors: mu ~ Cauchy(0, 10),
sigma ~ half-Cauchy(0, 5), phi ~ Uniform(-1, 1), w_j and the intercept
~ Normal(0, 10), u_t ~ Normal(0, 1). Additive constants that do not
depend on the parameters are dropped throughout, so the k = 0 density and
the k > 0 density with all coefficients at zero agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dtbsv

__all__ = [
    "sv_logp_grad",
    "sv_h_path",
    "EMPTY_DESIGN",
]

EMPTY_DESIGN = np.zeros((0, 0))


def _ar1(x, phi, lower):
    """AR(1) recursion over x, in place: x_t += phi * x_{t-1} with
    ``lower=0`` (forward), or x_t += phi * x_{t+1} with ``lower=1``
    (backward, the adjoint of the forward pass).

    Each is the transposed solve of a unit-diagonal bidiagonal system whose
    off-diagonal is -phi, so one band array serves both directions. The
    transposed solve forms each step as one product and one subtraction,
    which rounds exactly as the sequential loop does.
    """
    band = np.full((2, x.shape[0]), -phi, order="F")
    return dtbsv(1, band, x, lower=lower, trans=1, diag=1, overwrite_x=1)


def _h_from_u(mu, phi, sigma, f, u):
    """AR(1) log-volatility path from standardized innovations u."""
    h = sigma * u
    h[0] = sigma * u[0] / f
    h = _ar1(h, phi, 0)
    h += mu
    return h


def sv_logp_grad(theta, y, ybar, Z):
    """Log posterior density and its gradient on the unconstrained scale."""
    k = Z.shape[1]
    off = 3 + (k + 1 if k > 0 else 0)

    mu = theta[0]
    phi = math.tanh(theta[1])
    sigma = float(np.exp(theta[2]))
    f2 = 1.0 - phi * phi
    if f2 <= 0.0 or not math.isfinite(sigma) or sigma <= 0.0:
        return -np.inf, np.zeros(theta.shape[0])
    f = math.sqrt(f2)
    u = theta[off:]
    h = _h_from_u(mu, phi, sigma, f, u)

    if k > 0:
        r = y - (ybar + Z @ theta[3:3 + k] + theta[3 + k])
    else:
        r = y - ybar
    inv_var = np.negative(h)
    np.exp(inv_var, out=inv_var)
    half_q = r * r
    half_q *= inv_var
    half_q *= 0.5
    terms = h * -0.5
    terms -= half_q
    lp = float(terms.sum() - 0.5 * np.dot(u, u))

    g = half_q                      # d logp / d h_t, direct term
    g -= 0.5
    abar = _ar1(g, phi, 1)

    grad = np.empty(theta.shape[0])
    grad_u = grad[off:]
    np.multiply(abar, sigma, out=grad_u)
    grad_u -= u
    grad[off] = sigma * abar[0] / f - u[0]

    dmu = abar[0] + (1.0 - phi) * float(abar[1:].sum())
    dphi = float(np.dot(abar[1:], h[:-1] - mu))
    dphi += abar[0] * sigma * u[0] * phi / (f * f * f)
    ds_data = sigma * (float(np.dot(abar[1:], u[1:])) + abar[0] * u[0] / f)

    lp += -math.log1p(mu * mu / 100.0)
    dmu += -2.0 * mu / (100.0 + mu * mu)
    lp += -math.log1p(sigma * sigma / 25.0) + theta[2]
    ds = ds_data - 2.0 * sigma * sigma / (25.0 + sigma * sigma) + 1.0
    lp += math.log1p(-phi * phi)
    dp = dphi * (1.0 - phi * phi) - 2.0 * phi

    if k > 0:
        e = r                       # d logp / d mean_t
        e *= inv_var
        w = theta[3:3 + k]
        lp += float(-np.dot(w, w) / 200.0)
        grad[3:3 + k] = Z.T @ e - w / 100.0
        xi = theta[3 + k]
        lp += -xi * xi / 200.0
        grad[3 + k] = float(e.sum()) - xi / 100.0

    grad[0] = dmu
    grad[1] = dp
    grad[2] = ds
    return lp, grad


def sv_h_path(mu, phi, sigma, u):
    """Latent log-volatility path h for one parameter draw."""
    return _h_from_u(mu, phi, sigma, math.sqrt(1.0 - phi * phi),
                     np.asarray(u, dtype=np.float64))

