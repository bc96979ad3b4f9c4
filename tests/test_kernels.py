"""Kernel-level checks: analytic gradients against finite differences and
the density against a naive per-term reference implementation written
here; the sampler's leapfrog against an explicit stepwise one."""

import math

import numpy as np
import pytest

from spotvol import kernels
from spotvol.hmc import _leapfrog


def naive_logp(theta, y, ybar, Z):
    """Term-by-term reference density, accumulated in a different order
    from the production kernel (priors first, observations reversed)."""
    T = len(y)
    k = Z.shape[1]
    off = 3 + (k + 1 if k else 0)
    mu, phi, sigma = theta[0], math.tanh(theta[1]), math.exp(theta[2])
    u = theta[off:]

    lp = -math.log1p(mu * mu / 100.0)
    lp += -math.log1p(sigma * sigma / 25.0) + theta[2]
    lp += math.log1p(-phi * phi)
    if k:
        for j in range(k):
            lp += -theta[3 + j] ** 2 / 200.0
        lp += -theta[3 + k] ** 2 / 200.0

    h = np.empty(T)
    h[0] = mu + sigma * u[0] / math.sqrt(1 - phi * phi)
    for t in range(1, T):
        h[t] = mu + phi * (h[t - 1] - mu) + sigma * u[t]
    for t in reversed(range(T)):
        m = ybar
        if k:
            m = ybar + float(Z[t] @ theta[3:3 + k]) + theta[3 + k]
        r = y[t] - m
        lp += -0.5 * h[t] - 0.5 * r * r * math.exp(-h[t]) - 0.5 * u[t] ** 2
    return lp


def sequential_ar1(x, phi, backward):
    """x_t + phi * x_{t-1} (or x_{t+1} when `backward`), one Python float
    step at a time."""
    out = [float(v) for v in x]
    steps = range(len(out) - 2, -1, -1) if backward else range(1, len(out))
    for t in steps:
        out[t] = out[t] + phi * out[t + 1 if backward else t - 1]
    return np.array(out)


@pytest.mark.parametrize("T", [10, 360, 3500])
@pytest.mark.parametrize("phi", [0.0, 0.3, -0.3, 0.999999, -0.999999])
def test_ar1_matches_sequential_loop_bitwise(T, phi):
    x = np.random.default_rng(T).standard_normal(T)
    for lower in (0, 1):
        got = kernels._ar1(x.copy(), phi, lower)
        assert np.array_equal(got, sequential_ar1(x, phi, backward=lower))


def impls():
    return [("numpy", kernels.sv_logp_grad)]


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(31)
    T, k = 35, 5
    y = 1000 + 8 * rng.standard_normal(T)
    Z = np.ascontiguousarray(rng.standard_normal((T, k)))
    return y, float(y.mean()), Z


@pytest.mark.parametrize("name,impl", impls())
@pytest.mark.parametrize("with_design", [False, True])
def test_gradient_matches_finite_differences(problem, name, impl, with_design):
    y, ybar, Z = problem
    Zk = Z if with_design else np.zeros((len(y), 0))
    dim = 3 + (Zk.shape[1] + 1 if Zk.shape[1] else 0) + len(y)
    rng = np.random.default_rng(77)
    for _ in range(4):
        theta = 0.4 * rng.standard_normal(dim)
        _, grad = impl(theta, y, ybar, Zk)
        fd = np.empty(dim)
        for i in range(dim):
            step = 1e-6 * max(1.0, abs(theta[i]))
            tp, tm = theta.copy(), theta.copy()
            tp[i] += step
            tm[i] -= step
            fd[i] = (impl(tp, y, ybar, Zk)[0] - impl(tm, y, ybar, Zk)[0]) / (2 * step)
        rel = np.abs(grad - fd) / np.maximum(1e-6, np.maximum(np.abs(grad),
                                                              np.abs(fd)))
        assert rel.max() < 1e-4


@pytest.mark.parametrize("name,impl", impls())
def test_matches_naive_reference(problem, name, impl):
    y, ybar, Z = problem
    rng = np.random.default_rng(3)
    for Zk in (np.zeros((len(y), 0)), Z):
        dim = 3 + (Zk.shape[1] + 1 if Zk.shape[1] else 0) + len(y)
        for _ in range(3):
            theta = 0.5 * rng.standard_normal(dim)
            lp, _ = impl(theta, y, ybar, Zk)
            ref = naive_logp(theta, y, ybar, Zk)
            assert abs(lp - ref) < 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("name,impl", impls())
def test_zero_coefficients_reduce_to_baseline_bitwise(problem, name, impl):
    y, ybar, Z = problem
    rng = np.random.default_rng(12)
    for _ in range(5):
        theta_b = 0.5 * rng.standard_normal(3 + len(y))
        theta_x = np.concatenate([theta_b[:3], np.zeros(6), theta_b[3:]])
        lp_b, _ = impl(theta_b, y, ybar, np.zeros((len(y), 0)))
        lp_x, _ = impl(theta_x, y, ybar, Z)
        assert lp_x == lp_b


def test_saturated_transform_rejected(problem):
    y, ybar, Z = problem
    theta = np.zeros(3 + len(y))
    theta[1] = 50.0  # tanh saturates to exactly 1.0
    for _, impl in impls():
        lp, grad = impl(theta, y, ybar, np.zeros((len(y), 0)))
        assert lp == -np.inf
        assert np.all(np.isfinite(grad))


def test_trajectory_matches_stepwise(problem):
    """hmc._leapfrog updates in place; it must reproduce the textbook
    out-of-place integrator bit for bit and leave its inputs untouched."""
    y, ybar, Z = problem
    rng = np.random.default_rng(21)
    dim = 3 + 6 + len(y)
    theta = 0.2 * rng.standard_normal(dim)
    p = rng.standard_normal(dim)
    inv_mass = np.exp(0.1 * rng.standard_normal(dim))
    eps, n_steps = 0.01, 10
    _, grad = kernels.sv_logp_grad(theta, y, ybar, Z)
    before = theta.copy(), p.copy(), grad.copy()

    # reference: explicit leapfrog using only the logp/grad kernel
    th, pp, g = theta.copy(), p + 0.5 * eps * grad, grad
    for s in range(n_steps):
        th = th + eps * inv_mass * pp
        lp_ref, g = kernels.sv_logp_grad(th, y, ybar, Z)
        if s < n_steps - 1:
            pp = pp + eps * g
    pp = pp + 0.5 * eps * g

    th2, pp2, lp2, g2 = _leapfrog(
        lambda t: kernels.sv_logp_grad(t, y, ybar, Z), theta, p, grad, eps,
        n_steps, inv_mass)
    assert np.array_equal(th2, th)
    assert np.array_equal(pp2, pp)
    assert np.array_equal(g2, g)
    assert lp2 == lp_ref
    for arr, orig in zip((theta, p, grad), before):
        assert np.array_equal(arr, orig)
