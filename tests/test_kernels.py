"""Kernel-level checks: analytic gradients against finite differences and
the density against a naive per-term reference implementation written
here; the kernel's leapfrog integrator, through the models, against the
textbook one in conftest."""

import itertools
import math
import sys

import numpy as np
import pytest

from spotvol import BaselineSvModel, SvxModel, kernels
from spotvol.models import ModelRows
from tests.conftest import leapfrog, run_python


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
        band = np.full((2, T), -phi, order="F")
        got = kernels._ar1(x.copy(), band, lower)
        assert np.array_equal(got, sequential_ar1(x, phi, backward=lower))


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(31)
    T, k = 35, 5
    y = 1000 + 8 * rng.standard_normal(T)
    Z = np.ascontiguousarray(rng.standard_normal((T, k)))
    return y, float(y.mean()), Z


@pytest.mark.parametrize("with_design", [False, True])
def test_gradient_matches_finite_differences(problem, with_design):
    y, ybar, Z = problem
    Zk = Z if with_design else np.zeros((len(y), 0))
    dim = 3 + (Zk.shape[1] + 1 if Zk.shape[1] else 0) + len(y)
    rng = np.random.default_rng(77)
    for _ in range(4):
        theta = 0.4 * rng.standard_normal(dim)
        _, grad = kernels.sv_logp_grad(theta, y, ybar, Zk)
        fd = np.empty(dim)
        for i in range(dim):
            step = 1e-6 * max(1.0, abs(theta[i]))
            tp, tm = theta.copy(), theta.copy()
            tp[i] += step
            tm[i] -= step
            fd[i] = (kernels.sv_logp_grad(tp, y, ybar, Zk)[0] - kernels.sv_logp_grad(tm, y, ybar, Zk)[0]) / (2 * step)
        rel = np.abs(grad - fd) / np.maximum(1e-6, np.maximum(np.abs(grad),
                                                              np.abs(fd)))
        assert rel.max() < 1e-4


def test_matches_naive_reference(problem):
    y, ybar, Z = problem
    rng = np.random.default_rng(3)
    for Zk in (np.zeros((len(y), 0)), Z):
        dim = 3 + (Zk.shape[1] + 1 if Zk.shape[1] else 0) + len(y)
        for _ in range(3):
            theta = 0.5 * rng.standard_normal(dim)
            lp, _ = kernels.sv_logp_grad(theta, y, ybar, Zk)
            ref = naive_logp(theta, y, ybar, Zk)
            assert abs(lp - ref) < 1e-9 * max(1.0, abs(ref))


def test_zero_coefficients_reduce_to_baseline_bitwise(problem):
    y, ybar, Z = problem
    rng = np.random.default_rng(12)
    for _ in range(5):
        theta_b = 0.5 * rng.standard_normal(3 + len(y))
        theta_x = np.concatenate([theta_b[:3], np.zeros(6), theta_b[3:]])
        lp_b, _ = kernels.sv_logp_grad(theta_b, y, ybar, np.zeros((len(y), 0)))
        lp_x, _ = kernels.sv_logp_grad(theta_x, y, ybar, Z)
        assert lp_x == lp_b


def test_saturated_transform_rejected(problem):
    y, ybar, Z = problem
    theta = np.zeros(3 + len(y))
    theta[1] = 50.0  # tanh saturates to exactly 1.0
    lp, grad = kernels.sv_logp_grad(theta, y, ybar, np.zeros((len(y), 0)))
    assert lp == -np.inf
    assert np.all(np.isfinite(grad))


@pytest.fixture(scope="module")
def models(baseline_truth, svx_y, svx_frame):
    return {"baseline": BaselineSvModel(baseline_truth.daily_prices.window(0, 60)),
            "svx": SvxModel(svx_y.window(0, 60), svx_frame.window(0, 60))}


def _reference(model, theta, p, eps, n_steps, inv_mass):
    """The textbook integrator over the model's one-point kernel, with the
    log density of every step."""
    lps = []

    def logp_grad(t):
        lp, grad = model.logp_grad(t)
        lps.append(lp)
        return lp, grad

    _, grad = model.logp_grad(theta)
    return leapfrog(logp_grad, theta, p, grad, eps, n_steps, inv_mass), lps


def _rows(model, theta, p, eps, n_steps, inv_mass):
    """model.trajectory on a batch of one row; returns the row's (theta,
    p, lp, grad), the batch inputs (theta, p, grad, inv_mass) and copies
    of those inputs taken before the call."""
    grad = model.logp_grad(theta)[1]
    inputs = (theta[None], p[None], grad[None], inv_mass[None])
    before = [a.copy() for a in inputs]
    out = model.trajectory(inputs[0], inputs[1], inputs[2], np.array([eps]),
                           n_steps, inputs[3])
    return tuple(a[0] for a in out), inputs, before


def _assert_trajectory_matches(model, theta, p, eps, n_steps, inv_mass):
    """model.trajectory equals the reference bit for bit, leaves its
    inputs intact and returns no array that aliases one; returns the
    reference's per-step log densities and the trajectory's output."""
    (th, pp, lp, g), lps = _reference(model, theta, p, eps, n_steps, inv_mass)
    out, inputs, before = _rows(model, theta, p, eps, n_steps, inv_mass)
    for got, want in zip(out[:2] + out[3:], (th, pp, g)):
        assert got.tobytes() == want.tobytes()
    assert out[2] == lp
    for arr, orig in zip(inputs, before):
        assert arr.tobytes() == orig.tobytes()
    for got in out[:2] + out[3:]:
        assert not any(np.shares_memory(got, a) for a in inputs)
    return lps, out


def _start(model, rng):
    """A random point with mu at the log variance of the data."""
    theta = 0.2 * rng.standard_normal(model.dim)
    theta[0] = math.log(model.y.var())
    return theta


@pytest.mark.parametrize("family", ["baseline", "svx"])
@pytest.mark.parametrize("n_steps", [1, 2, 32])
def test_model_trajectory_matches_reference(models, family, n_steps):
    model = models[family]
    rng = np.random.default_rng(21)
    theta = _start(model, rng)
    p = rng.standard_normal(model.dim)
    inv_mass = np.exp(0.1 * rng.standard_normal(model.dim))
    lps, _ = _assert_trajectory_matches(model, theta, p, 0.01, n_steps,
                                        inv_mass)
    assert all(math.isfinite(lp) for lp in lps)


def _phi_push(model, phi_raw, p_phi):
    """A point at phi = tanh(phi_raw) with momentum p_phi on phi_raw only."""
    theta = _start(model, np.random.default_rng(21))
    theta[1] = phi_raw
    p = np.zeros(model.dim)
    p[1] = p_phi
    return theta, p


@pytest.mark.parametrize("family", ["baseline", "svx"])
def test_trajectory_crosses_saturated_phi(models, family):
    # from a saturated start, an interior step is still saturated (zero
    # gradient) and the end point is not
    model = models[family]
    theta, p = _phi_push(model, 19.6, -4.0)
    with np.errstate(over="ignore", invalid="ignore"):
        lps, _ = _assert_trajectory_matches(model, theta, p, 0.1, 2,
                                            np.ones(model.dim))
    assert lps[0] == -np.inf
    assert math.isfinite(lps[1])


@pytest.mark.parametrize("family", ["baseline", "svx"])
def test_trajectory_ends_on_saturated_phi(models, family):
    model = models[family]
    theta, p = _phi_push(model, 0.5, 100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        lps, (_, _, lp, grad) = _assert_trajectory_matches(
            model, theta, p, 0.1, 2, np.ones(model.dim))
    assert math.isfinite(lps[0])
    assert lp == -np.inf
    assert np.all(np.isfinite(grad))


def _row_kinds(model):
    """(theta, p, eps, inv_mass) of four kinds of row: two finite ones, one
    whose phi stays saturated, and one that a huge step drives to
    non-finite values everywhere."""
    rng = np.random.default_rng(8)
    kinds = {}
    for name, eps in (("finite_a", 0.01), ("finite_b", 0.02),
                      ("saturated", 0.01), ("huge_eps", 1e308)):
        theta = _start(model, rng)
        if name == "saturated":
            theta[1] = 50.0  # tanh saturates to exactly 1.0
        kinds[name] = (theta, rng.standard_normal(model.dim), eps,
                       np.exp(0.1 * rng.standard_normal(model.dim)))
    return kinds


@pytest.fixture(scope="module")
def later_models(baseline_truth, svx_y, svx_frame):
    """The models of ``models`` on the 60 days from day 7."""
    return {"baseline": BaselineSvModel(baseline_truth.daily_prices.window(7, 67)),
            "svx": SvxModel(svx_y.window(7, 67), svx_frame.window(7, 67))}


@pytest.mark.parametrize("family", ["baseline", "svx"])
def test_trajectory_rows_independent(models, later_models, family):
    """Each row of a batched trajectory equals its own model's call alone
    bit for bit, in every order of finite, saturated and non-finite rows,
    whether the rows share one model's data (``model.trajectory``) or each
    reads its own model's (``ModelRows``, here over two windows of one
    series): the AR(1) solve over the rows laid end to end must not carry
    a non-finite value from one row into the next, and the per-row design
    products must round as the shared ones do. The saturated row must
    raise no divide warning (pytest turns spotvol's RuntimeWarnings into
    errors)."""
    windows = (models[family], later_models[family])
    rows = {(w, name): (model,) + kind
            for w, model in enumerate(windows)
            for name, kind in _row_kinds(model).items()}
    grads = {key: r[0].logp_grad(r[1])[1] for key, r in rows.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        alone = {key: _rows(model, th, p, eps, 3, m)[0]
                 for key, (model, th, p, eps, m) in rows.items()}
        for w in (0, 1):
            assert math.isfinite(alone[w, "finite_a"][2])
            assert alone[w, "saturated"][2] == -np.inf
            assert not np.isfinite(alone[w, "huge_eps"][0]).any()
        batches = [[key] for key in rows]
        batches += [list(b) for b in itertools.permutations(rows, 2)]
        for w in (0, 1):
            batches += [list(b) for b in itertools.permutations(
                [key for key in rows if key[0] == w], 4)]
        shuffle = np.random.default_rng(5)
        batches += [[list(rows)[i] for i in shuffle.permutation(len(rows))]
                    for _ in range(12)]
        for keys in batches:
            args = (np.stack([rows[k][1] for k in keys]),
                    np.stack([rows[k][2] for k in keys]),
                    np.stack([grads[k] for k in keys]),
                    np.array([rows[k][3] for k in keys]), 3,
                    np.stack([rows[k][4] for k in keys]))
            calls = [ModelRows([rows[k][0] for k in keys], 1).trajectory]
            if len({k[0] for k in keys}) == 1:
                calls.append(windows[keys[0][0]].trajectory)
            for call in calls:
                out = call(*args)
                for b, key in enumerate(keys):
                    for got, want in zip(out, alone[key]):
                        assert np.asarray(got[b]).tobytes() \
                            == np.asarray(want).tobytes(), (keys, key)


def test_model_rows_need_one_kind_and_length(models, later_models,
                                             baseline_truth):
    ModelRows([models["svx"], later_models["svx"]], 2)
    with pytest.raises(TypeError):
        ModelRows([models["baseline"], models["svx"]], 2)
    with pytest.raises(TypeError):
        ModelRows([models["baseline"], BaselineSvModel(
            baseline_truth.daily_prices.window(0, 61))], 2)


# ---------------------------------------------------------------- BLAS source

@pytest.mark.parametrize("first", ["spotvol.kernels", "scipy.linalg.blas"])
def test_dtbsv_is_scipy_blas_dtbsv_in_either_import_order(first):
    # the kernel loads scipy.linalg._fblas from its file; scipy's own
    # import must then reuse that module, and the reverse, in a fresh
    # process each, since a module is loaded once per process
    code = (f"import importlib; importlib.import_module({first!r}); "
            "import scipy.linalg.blas, spotvol.kernels; "
            "print(spotvol.kernels.dtbsv is scipy.linalg.blas.dtbsv)")
    assert run_python(code).strip() == "True"


def test_dtbsv_falls_back_to_scipy_linalg(monkeypatch):
    from scipy.linalg.blas import dtbsv

    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas")
    monkeypatch.setattr(kernels, "_fblas_path", lambda: None)
    assert kernels._load_dtbsv() is dtbsv
