"""Log-posterior and gradient kernel for the latent-volatility models.

This is the hot path. The sampler's one leapfrog integrator lives here
(``sv_trajectory``): every step evaluates the gradient, hundreds of
thousands of times per fit, but only a trajectory's end point needs the
log density, so interior steps skip the terms that feed it alone. One
body (``_eval``) holds the density and gradient arithmetic, over B rows
at once: the integrator moves all chains of a fit, or of several fits of
one model kind and length, as the rows of one (B, dim) array, and the
one-point ``sv_logp_grad`` is its B = 1 call. The data (y, its squared
residual, ybar and the design) are one model's, shared by every row, or
per row: (B, T), (B, T), (B, 1) and (B, T, k).

Most of a step at the model's usual sizes is the fixed cost of its numpy
and BLAS calls, which B rows pay once instead of B times. Each row rounds
exactly as it would alone: the scalar parameters and the log-density
tail are Python floats row by row, reductions are ``axis=1`` sums and
stacked ``matmul``/``vecdot`` products (one per row, whether the design
is shared or per row), and the AR(1) forward and
adjoint recursions are each one BLAS unit-bidiagonal solve (``dtbsv``)
over the rows laid end to end, done in place on one band array. The
scratch buffers are kept per model and row count, and each step writes
them with ``out=``. The kernel sets no floating-point error state of its own (the
sampler silences overflow once per fit).

``dtbsv`` comes from scipy's compiled BLAS wrapper ``scipy.linalg._fblas``,
loaded from its file without running the ``scipy`` or ``scipy.linalg``
package imports, which cost a fresh process more than the rest of
spotvol's import together. The module is registered under its own name,
so a later ``import scipy.linalg`` reuses it: both routes hold the same
function object.

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

import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

__all__ = [
    "sv_logp_grad",
    "sv_trajectory",
    "sv_h_path",
    "sq_resid",
    "EMPTY_DESIGN",
]

EMPTY_DESIGN = np.zeros((0, 0))

_FBLAS = "scipy.linalg._fblas"


def _fblas_path():
    """File of scipy's compiled BLAS wrapper, or None. ``find_spec`` of a
    top-level package locates it without executing its ``__init__``."""
    spec = importlib.util.find_spec("scipy")
    bases = spec.submodule_search_locations if spec else None
    for base in bases or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "_fblas" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_dtbsv():
    """``scipy.linalg.blas.dtbsv``, without importing ``scipy.linalg``
    when its extension file can be loaded directly."""
    module = sys.modules.get(_FBLAS)
    if module is None:
        path = _fblas_path()
        if path is None:
            from scipy.linalg.blas import dtbsv
            return dtbsv
        loader = ExtensionFileLoader(_FBLAS, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_FBLAS, path, loader=loader))
        loader.exec_module(module)
        sys.modules[_FBLAS] = module
    return module.dtbsv


dtbsv = _load_dtbsv()


def _ar1(x, band, lower):
    """AR(1) recursion over x, in place: x_t += phi * x_{t-1} with
    ``lower=0`` (forward), or x_t += phi * x_{t+1} with ``lower=1``
    (backward, the adjoint of the forward pass). ``band`` is a (2, T)
    Fortran-order array holding -phi.

    Each is the transposed solve of a unit-diagonal bidiagonal system whose
    off-diagonal is -phi, so one band array serves both directions. The
    transposed solve forms each step as one product and one subtraction,
    which rounds exactly as the sequential loop does.
    """
    return dtbsv(1, band, x, lower=lower, trans=1, diag=1, overwrite_x=1)


def _ar1_rows(x, band, lower, edge, fill):
    """The AR(1) recursion of every row of the (B, T) array x, in place,
    as one solve over the rows laid end to end; ``band`` is (2, B*T) with
    each row's -phi and 0 where one row would feed the next.

    That 0 keeps a finite value from crossing, but 0 * inf is NaN. So when
    a value in ``edge`` (the view of the row ends that the recursion
    carries into the next row: x[:-1, -1] forward, x[1:, 0] backward) is
    not finite, ``fill()`` rewrites x's input and each row is solved on
    its own.
    """
    _ar1(x.reshape(-1), band, lower)
    if not all(map(math.isfinite, edge.tolist())):
        fill()
        T = x.shape[1]
        for b, row in enumerate(x):
            _ar1(row, band[:, b * T:(b + 1) * T], lower)


def _h_from_u(u, sigma, f, mu, h, h_first, h_edge, band):
    """AR(1) log-volatility paths from the standardized innovations in the
    rows of the (B, T) array u, written into h:

        h_1 = mu + sigma * u_1 / f
        h_t = mu + phi * (h_{t-1} - mu) + sigma * u_t

    with mu, sigma and f = sqrt(1 - phi^2) scalars or (B, 1) columns.
    h_first is the view h[:, :1]; h_edge and band are as for
    ``_ar1_rows``."""
    def fill():
        np.multiply(u, sigma, out=h)
        np.divide(h_first, f, out=h_first)

    fill()
    _ar1_rows(h, band, 0, h_edge, fill)
    h += mu
    return h


def sq_resid(y, ybar):
    """(y - ybar)^2: the baseline model's squared residual, which does not
    depend on theta."""
    r = y - ybar
    return r * r


class _Scratch:
    """Buffers for the density and gradient at the B rows of ``theta``,
    with the views of theta and of the buffers that each step reads. A
    trajectory moves ``theta`` in place, and a model keeps one set per row
    count for all its trajectories and one-point calls: fresh (B, T)
    buffers on every call would cost page faults at long T."""

    def __init__(self, B, dim, T, k):
        off = 3 + (k + 1 if k > 0 else 0)
        (self.theta, self.p, self.step, self.grad,
         self.move) = np.empty((5, B, dim))
        theta = self.theta
        self.head = theta[:, :3]
        self.sigma_raw = theta[:, 2]
        self.u = theta[:, off:]
        self.u0 = self.u[:, 0]
        self.u_rest = self.u[:, 1:]
        self.band = np.zeros((2, B * T), order="F")
        # row b's 2T band entries in memory order, less the first (which
        # would couple its day 0 to row b-1 in the forward solve) and the
        # last (its day T-1 to row b+1 in the adjoint): those stay 0
        self.band_inner = self.band.T.reshape(B, 2 * T)[:, 1:-1]
        # per-row mu, sigma, f = sqrt(1 - phi^2) and -phi, as (B, 1) views
        cols = np.empty((B, 4))
        self.cols = cols.reshape(-1)
        self.mu, self.sigma, self.f, self.neg_phi = cols.T[:, :, None]
        self.h, self.inv_var, self.half_q, self.g, self.tmp = np.empty(
            (5, B, T))
        self.h_first = self.h[:, :1]
        self.h_lag = self.h[:, :-1]
        self.tmp_lag = self.tmp[:, :-1]
        self.h_edge = self.h[:-1, -1]
        self.g_edge = self.g[1:, 0]
        self.g0 = self.g[:, 0]
        self.g_rest = self.g[:, 1:]
        self.grad_head = self.grad[:, :3]
        self.grad_u = self.grad[:, off:]
        self.grad_u0 = self.grad[:, off]
        if k > 0:
            self.w = theta[:, 3:3 + k]
            self.xi = theta[:, 3 + k:off]
            self.r3 = np.empty((B, T, 1))
            self.r = self.r3[:, :, 0]
            self.grad_w = self.grad[:, 3:3 + k]
            self.grad_xi = self.grad[:, 3 + k]


def _eval(s, y, ybar, Z, r_sq, with_lp):
    """Write the gradient at each row of the scratch's theta into
    ``s.grad`` and return the rows' log densities as a list, or None when
    ``with_lp`` is false: the terms that feed only the density are then
    skipped. A row with saturated phi or non-finite sigma gets -inf and a
    zero gradient; it runs through the arithmetic with phi = 0 and
    sigma = 1, so that it raises no error of its own. The data are one
    model's or per row (see the module docstring); ``r_sq`` is
    ``sq_resid(y, ybar)`` when Z has no columns and unused otherwise."""
    k = Z.shape[-1]

    # the scalar head, row by row in Python floats: np.tanh rounds
    # differently from math.tanh
    head, cols, bad = [], [], []
    for b, ((mu, phi_raw, sigma_raw), sigma) in enumerate(
            zip(s.head.tolist(), np.exp(s.sigma_raw).tolist())):
        phi = math.tanh(phi_raw)
        f2 = 1.0 - phi * phi
        if f2 <= 0.0 or not math.isfinite(sigma) or sigma <= 0.0:
            bad.append(b)
            phi, sigma, f2 = 0.0, 1.0, 1.0
        f = math.sqrt(f2)
        head.append((mu, phi, sigma, f, sigma_raw))
        cols += (mu, sigma, f, -phi)
    s.cols[:] = cols
    s.band_inner[:] = s.neg_phi
    h = _h_from_u(s.u, s.sigma, s.f, s.mu, s.h, s.h_first, s.h_edge,
                  s.band)

    if k > 0:
        r = s.r
        np.matmul(Z, s.w[:, :, None], out=s.r3)
        r += ybar
        r += s.xi
        np.subtract(y, r, out=r)
        r_sq = np.multiply(r, r, out=s.half_q)
    inv_var = np.negative(h, out=s.inv_var)
    np.exp(inv_var, out=inv_var)
    half_q = np.multiply(r_sq, inv_var, out=s.half_q)
    half_q *= 0.5
    if with_lp:
        terms = np.multiply(h, -0.5, out=s.tmp)
        terms -= half_q
        lp = (terms.sum(axis=1) - 0.5 * np.vecdot(s.u, s.u)).tolist()

    def fill_g():                   # d logp / d h_t, direct term
        np.subtract(half_q, 0.5, out=s.g)

    fill_g()
    _ar1_rows(s.g, s.band, 1, s.g_edge, fill_g)
    abar = s.g

    np.multiply(abar, s.sigma, out=s.grad_u)
    s.grad_u -= s.u
    sums = zip(s.g0.tolist(), s.u0.tolist(), s.g_rest.sum(axis=1).tolist(),
               np.vecdot(s.g_rest, np.subtract(s.h_lag, s.mu,
                                               out=s.tmp_lag)).tolist(),
               np.vecdot(s.g_rest, s.u_rest).tolist())
    scalars, u_first = [], []
    for b, ((mu, phi, sigma, f, sigma_raw), (a0, u0, a_sum, a_hm, a_u)) \
            in enumerate(zip(head, sums)):
        u_first.append(sigma * a0 / f - u0)
        dmu = a0 + (1.0 - phi) * a_sum
        dphi = a_hm + a0 * sigma * u0 * phi / (f * f * f)
        ds_data = sigma * (a_u + a0 * u0 / f)

        dmu += -2.0 * mu / (100.0 + mu * mu)
        ds = ds_data - 2.0 * sigma * sigma / (25.0 + sigma * sigma) + 1.0
        dp = dphi * (1.0 - phi * phi) - 2.0 * phi
        scalars.append((dmu, dp, ds))
        if with_lp:
            lp[b] += -math.log1p(mu * mu / 100.0)
            lp[b] += -math.log1p(sigma * sigma / 25.0) + sigma_raw
            lp[b] += math.log1p(-phi * phi)
    s.grad_head[:] = scalars
    s.grad_u0[:] = u_first

    if k > 0:
        e = r                       # d logp / d mean_t
        e *= inv_var
        np.subtract(np.matmul(Z.mT, s.r3)[:, :, 0], s.w / 100.0,
                    out=s.grad_w)
        xi = s.xi[:, 0].tolist()
        s.grad_xi[:] = [e_sum - x / 100.0
                        for e_sum, x in zip(e.sum(axis=1).tolist(), xi)]
        if with_lp:
            for b, (ww, x) in enumerate(zip(np.vecdot(s.w, s.w).tolist(), xi)):
                lp[b] += -ww / 200.0
                lp[b] += -x * x / 200.0

    for b in bad:
        s.grad[b] = 0.0
        if with_lp:
            lp[b] = -math.inf
    return lp if with_lp else None


def _scratch(cache, B, dim, T, k):
    s = cache.get(B)
    if s is None:
        s = cache[B] = _Scratch(B, dim, T, k)
    return s


def sv_logp_grad(theta, y, ybar, Z, r_sq=None, cache=None):
    """Log posterior density and its gradient on the unconstrained scale.
    ``r_sq`` and ``cache`` are as for ``sv_trajectory``; without them the
    call computes r_sq and allocates its own buffers."""
    k = Z.shape[1]
    s = _scratch({} if cache is None else cache, 1, theta.shape[0],
                 y.shape[0], k)
    s.theta[0] = theta
    if r_sq is None and k == 0:
        r_sq = sq_resid(y, ybar)
    return _eval(s, y, ybar, Z, r_sq, True)[0], s.grad[0].copy()


def sv_trajectory(theta, p, grad, eps, n_steps, inv_mass, y, ybar, Z, r_sq,
                  cache):
    """n_steps >= 1 leapfrog steps from each row of (theta, p), where
    ``grad`` holds the gradient at each row of theta; returns (theta, p,
    lp, grad) at the end points.

    theta, p, grad and inv_mass are (B, dim), eps is (B,) and lp is (B,):
    each row moves with its own step size and metric, and its result does
    not depend on the other rows. Only the last step computes the log
    density. The inputs are left intact and no output aliases them.
    y, ybar, Z and ``r_sq`` are as for ``_eval``; ``cache`` is a dict
    that the caller keeps for one set of data, in which the kernel keeps
    its buffers between calls (so calls with one cache must not overlap).
    """
    s = _scratch(cache, theta.shape[0], theta.shape[1], y.shape[-1],
                 Z.shape[-1])
    th, q, move = s.theta, s.p, s.move
    np.copyto(th, theta)
    eps = np.asarray(eps, dtype=np.float64)[:, None]
    half = 0.5 * eps
    step = np.multiply(eps, inv_mass, out=s.step)
    np.add(p, np.multiply(half, grad, out=move), out=q)
    for i in range(n_steps):
        th += np.multiply(step, q, out=move)
        last = i == n_steps - 1
        lp = _eval(s, y, ybar, Z, r_sq, last)
        if not last:
            q += np.multiply(s.grad, eps, out=move)
    q += np.multiply(half, s.grad, out=move)
    return th.copy(), q.copy(), np.array(lp), s.grad.copy()


def sv_h_path(mu, phi, sigma, u):
    """Latent log-volatility path h for one parameter draw."""
    u = np.asarray(u, dtype=np.float64)[None]
    h = np.empty(u.shape)
    return _h_from_u(u, sigma, math.sqrt(1.0 - phi * phi), mu, h, h[:, :1],
                     h[:0, -1], np.full((2, u.shape[1]), -phi, order="F"))[0]
