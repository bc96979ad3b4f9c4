"""Log-posterior and gradient kernel for the latent-volatility models.

This is the hot path. The sampler's one leapfrog integrator lives here
(``sv_trajectory``): every step evaluates the gradient, hundreds of
thousands of times per fit, but only a trajectory's end point needs the
log density, so interior steps skip the terms that feed it alone. One
body (``_eval``) holds the density and gradient arithmetic for both the
integrator and the one-point ``sv_logp_grad``. It is vectorized numpy;
the AR(1) forward and adjoint recursions are each one BLAS unit-bidiagonal
solve (``dtbsv``), done in place on one band array. A trajectory
allocates its scratch buffers once and writes them with ``out=``. The
kernel sets no floating-point error state of its own (the sampler
silences overflow once per chain).

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
    "sv_trajectory",
    "sv_h_path",
    "sq_resid",
    "EMPTY_DESIGN",
]

EMPTY_DESIGN = np.zeros((0, 0))


def _ar1(x, band, lower):
    """AR(1) recursion over x, in place: x_t += phi * x_{t-1} with
    ``lower=0`` (forward), or x_t += phi * x_{t+1} with ``lower=1``
    (backward, the adjoint of the forward pass). ``band`` is a (2, T)
    Fortran-order array filled with -phi.

    Each is the transposed solve of a unit-diagonal bidiagonal system whose
    off-diagonal is -phi, so one band array serves both directions. The
    transposed solve forms each step as one product and one subtraction,
    which rounds exactly as the sequential loop does.
    """
    return dtbsv(1, band, x, lower=lower, trans=1, diag=1, overwrite_x=1)


def _h_from_u(mu, phi, sigma, f, u, h, band):
    """AR(1) log-volatility path from standardized innovations u, written
    into h."""
    np.multiply(u, sigma, out=h)
    h[0] = sigma * u[0] / f
    h = _ar1(h, band, 0)
    h += mu
    return h


def sq_resid(y, ybar):
    """(y - ybar)^2: the baseline model's squared residual, which does not
    depend on theta."""
    r = y - ybar
    return r * r


class _Scratch:
    """Buffers for the density and gradient at one point; a trajectory
    allocates one set and reuses it on every step."""

    def __init__(self, T, dim):
        self.band = np.empty((2, T), order="F")
        self.h = np.empty(T)
        self.inv_var = np.empty(T)
        self.half_q = np.empty(T)
        self.tmp = np.empty(T)
        self.grad = np.empty(dim)
        self.move = np.empty(dim)


def _eval(theta, y, ybar, Z, r_sq, s, with_lp):
    """Write the gradient at theta into ``s.grad`` and return the log
    density, or None when ``with_lp`` is false: the terms that feed only
    the density are then skipped. A saturated phi or a non-finite sigma
    gives -inf and a zero gradient. ``r_sq`` is ``sq_resid(y, ybar)`` when
    Z has no columns and unused otherwise."""
    k = Z.shape[1]
    off = 3 + (k + 1 if k > 0 else 0)
    grad = s.grad

    mu = float(theta[0])
    phi = math.tanh(theta[1])
    sigma = float(np.exp(theta[2]))
    f2 = 1.0 - phi * phi
    if f2 <= 0.0 or not math.isfinite(sigma) or sigma <= 0.0:
        grad.fill(0.0)
        return -np.inf
    f = math.sqrt(f2)
    u = theta[off:]
    s.band.fill(-phi)
    h = _h_from_u(mu, phi, sigma, f, u, s.h, s.band)

    if k > 0:
        r = Z @ theta[3:3 + k]
        r += ybar
        r += theta[3 + k]
        np.subtract(y, r, out=r)
        r_sq = np.multiply(r, r, out=s.half_q)
    inv_var = np.negative(h, out=s.inv_var)
    np.exp(inv_var, out=inv_var)
    half_q = np.multiply(r_sq, inv_var, out=s.half_q)
    half_q *= 0.5
    lp = None
    if with_lp:
        terms = np.multiply(h, -0.5, out=s.tmp)
        terms -= half_q
        lp = float(terms.sum() - 0.5 * np.dot(u, u))

    g = half_q                      # d logp / d h_t, direct term
    g -= 0.5
    abar = _ar1(g, s.band, 1)
    a0, u0 = float(abar[0]), float(u[0])

    grad_u = grad[off:]
    np.multiply(abar, sigma, out=grad_u)
    grad_u -= u
    grad[off] = sigma * a0 / f - u0

    dmu = a0 + (1.0 - phi) * float(abar[1:].sum())
    dphi = float(np.dot(abar[1:], np.subtract(h[:-1], mu, out=s.tmp[:-1])))
    dphi += a0 * sigma * u0 * phi / (f * f * f)
    ds_data = sigma * (float(np.dot(abar[1:], u[1:])) + a0 * u0 / f)

    dmu += -2.0 * mu / (100.0 + mu * mu)
    ds = ds_data - 2.0 * sigma * sigma / (25.0 + sigma * sigma) + 1.0
    dp = dphi * (1.0 - phi * phi) - 2.0 * phi
    if with_lp:
        lp += -math.log1p(mu * mu / 100.0)
        lp += -math.log1p(sigma * sigma / 25.0) + theta[2]
        lp += math.log1p(-phi * phi)

    if k > 0:
        e = r                       # d logp / d mean_t
        e *= inv_var
        w = theta[3:3 + k]
        grad[3:3 + k] = Z.T @ e - w / 100.0
        xi = theta[3 + k]
        grad[3 + k] = float(e.sum()) - xi / 100.0
        if with_lp:
            lp += float(-np.dot(w, w) / 200.0)
            lp += -xi * xi / 200.0

    grad[0] = dmu
    grad[1] = dp
    grad[2] = ds
    return lp


def sv_logp_grad(theta, y, ybar, Z):
    """Log posterior density and its gradient on the unconstrained scale."""
    s = _Scratch(y.shape[0], theta.shape[0])
    r_sq = sq_resid(y, ybar) if Z.shape[1] == 0 else None
    return _eval(theta, y, ybar, Z, r_sq, s, True), s.grad


def sv_trajectory(theta, p, grad, eps, n_steps, inv_mass, y, ybar, Z, r_sq):
    """n_steps >= 1 leapfrog steps from (theta, p), where ``grad`` is the
    gradient at theta; returns (theta, p, lp, grad) at the end point.

    Only the last step computes the log density. The inputs are left
    intact and no output aliases them. ``r_sq`` is as for ``_eval``.
    """
    s = _Scratch(y.shape[0], theta.shape[0])
    theta = theta.copy()
    step = eps * inv_mass
    p = p + 0.5 * eps * grad
    for i in range(n_steps):
        theta += np.multiply(step, p, out=s.move)
        last = i == n_steps - 1
        lp = _eval(theta, y, ybar, Z, r_sq, s, last)
        if not last:
            p += np.multiply(s.grad, eps, out=s.move)
    p += 0.5 * eps * s.grad
    return theta, p, lp, s.grad


def sv_h_path(mu, phi, sigma, u):
    """Latent log-volatility path h for one parameter draw."""
    u = np.asarray(u, dtype=np.float64)
    band = np.full((2, u.shape[0]), -phi, order="F")
    return _h_from_u(mu, phi, sigma, math.sqrt(1.0 - phi * phi), u,
                     np.empty(u.shape[0]), band)
