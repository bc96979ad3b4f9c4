import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

from spotvol import BaselineSvModel, SvxModel, ess, rhat, sample, split_rhat
from spotvol.errors import (
    DivergentChains,
    InvalidConfig,
    NonFiniteLogp,
    TooFewDraws,
)
from spotvol.hmc import SamplerConfig
from tests.conftest import fast_sampler


class GaussianTarget:
    """Multivariate normal with known precision, identity transform."""

    def __init__(self, precision):
        self.P = np.atleast_2d(np.asarray(precision, dtype=float))
        self.dim = self.P.shape[0]
        self.param_names = [f"x{i}" for i in range(self.dim)]

    def logp_grad(self, theta):
        g = -self.P @ theta
        return float(0.5 * theta @ g), g

    def initial_position(self, rng):
        return 0.1 * rng.standard_normal(self.dim)

    def transform(self, theta):
        return theta.copy()

    def train_summary(self):
        return {}


class CliffTarget(GaussianTarget):
    """Standard normal truncated to |x| < 1; trajectories that cross the
    cliff produce non-finite energies, i.e. divergences."""

    def __init__(self):
        super().__init__([[1.0]])

    def logp_grad(self, theta):
        if abs(theta[0]) >= 1.0:
            return -np.inf, np.zeros(1)
        return super().logp_grad(theta)


def test_standard_normal_moments():
    fit = sample(GaussianTarget([[1.0]]),
                 SamplerConfig(n_chains=4, warmup=300, draws=1000,
                               leapfrog_steps=16), seed=42)
    x = fit.column("x0")
    assert -0.1 < x.mean() < 0.1
    assert 0.9 < x.std() < 1.1
    assert fit.diagnostics["max_rhat"] < 1.05


def test_standard_normal_ks():
    fit = sample(GaussianTarget([[1.0]]),
                 SamplerConfig(n_chains=4, warmup=300, draws=1000,
                               leapfrog_steps=16), seed=7)
    stat = kstest(fit.column("x0"), "norm").statistic
    assert stat < 0.05


def test_correlated_gaussian_covariance():
    rho = 0.8
    cov = np.array([[1.0, rho], [rho, 1.0]])
    fit = sample(GaussianTarget(np.linalg.inv(cov)),
                 SamplerConfig(n_chains=4, warmup=400, draws=1000,
                               leapfrog_steps=16), seed=3)
    emp = np.cov(fit.draws.T)
    assert np.max(np.abs(emp - cov)) < 0.1


def test_determinism(baseline_truth):
    y = baseline_truth.daily_prices.window(0, 120)
    cfg = fast_sampler()
    a = sample(BaselineSvModel(y), cfg, seed=5)
    b = sample(BaselineSvModel(y), cfg, seed=5)
    assert np.array_equal(a.draws, b.draws)
    c = sample(BaselineSvModel(y), cfg, seed=6)
    assert not np.array_equal(a.draws, c.draws)


# sha256 of fit.draws for the two fits in test_draws_pinned, recorded with
# the thread-pooled sampler and the numba-free kernel it replaced (numpy
# 2.4, scipy 1.17, x86-64). A change that moves one bit of a draw fails
# here; a numpy build that rounds exp() differently does too.
PINNED_DRAWS = {
    "baseline": "cf03db18a232ddc91c935082a92d10fd16288aa10108273f2d0ed254de483ea2",
    "svx": "f3dbd6e4746e811ad13571993a6fdf42b309ce5c7bfe8de6fab99b24d0ca5b27",
}


def _draws_digest(fit):
    return hashlib.sha256(np.ascontiguousarray(fit.draws).tobytes()).hexdigest()


def test_draws_pinned(baseline_truth, svx_y, svx_frame):
    base = BaselineSvModel(baseline_truth.daily_prices.window(0, 120))
    svx = SvxModel(svx_y.window(0, 120), svx_frame.window(0, 120))
    assert _draws_digest(sample(base, fast_sampler(), seed=5)) \
        == PINNED_DRAWS["baseline"]
    assert _draws_digest(sample(svx, fast_sampler(), seed=5)) \
        == PINNED_DRAWS["svx"]


def test_max_workers_is_ignored(baseline_truth):
    y = baseline_truth.daily_prices.window(0, 120)
    draws = [sample(BaselineSvModel(y), fast_sampler(max_workers=mw),
                    seed=5).draws
             for mw in (None, 1, 2)]
    assert np.array_equal(draws[0], draws[1])
    assert np.array_equal(draws[0], draws[2])


def test_summary_means_exact(baseline_truth):
    y = baseline_truth.daily_prices.window(0, 100)
    fit = sample(BaselineSvModel(y), fast_sampler(), seed=1)
    assert fit.draws.shape[0] == fit.n_chains * fit.kept_per_chain
    for j, name in enumerate(fit.param_names):
        assert fit.summary[name]["mean"] == fit.draws[:, j].mean()
    assert set(fit.diagnostics["rhat"]) == set(fit.param_names)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SamplerConfig(n_chains=1).validate()
    with pytest.raises(InvalidConfig):
        SamplerConfig(warmup=100).validate()
    with pytest.raises(InvalidConfig):
        SamplerConfig(draws=100).validate()
    with pytest.raises(InvalidConfig):
        SamplerConfig(target_accept=1.5).validate()


def test_nonfinite_init_raises():
    class Broken(GaussianTarget):
        def logp_grad(self, theta):
            return -np.inf, np.zeros(self.dim)

    with pytest.raises(NonFiniteLogp):
        sample(Broken([[1.0]]), fast_sampler(), seed=0)


def test_divergent_chains_raise():
    with pytest.raises(DivergentChains):
        sample(CliffTarget(), fast_sampler(leapfrog_steps=32), seed=11)


def test_rhat_identical_chains_flagged():
    chains = np.ones((3, 100, 2))
    values, zero = split_rhat(chains)
    assert np.all(values == 1.0)
    assert np.all(zero)


def test_rhat_same_distribution_near_one():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((2, 2000))
    values, zero = split_rhat(chains)
    assert values[0] < 1.01
    assert not zero[0]


def test_rhat_separated_chains_large():
    rng = np.random.default_rng(1)
    chains = np.stack([rng.standard_normal(500),
                       10.0 + rng.standard_normal(500)])
    values = rhat([chains[0], chains[1]])
    assert values[0] > 2.0


def test_rhat_too_few():
    with pytest.raises(TooFewDraws):
        split_rhat(np.ones((1, 100)))
    with pytest.raises(TooFewDraws):
        split_rhat(np.ones((2, 3)))


def _ess_reference(chains):
    """The per-parameter, per-lag-pair loop that `ess` replaced."""
    chains = np.asarray(chains, dtype=float)
    m, n, p = chains.shape
    out = np.empty(p)
    for j in range(p):
        x = chains[:, :, j]
        w = x.var(axis=1, ddof=1).mean()
        if w <= 0:
            out[j] = float(m * n)
            continue
        var_plus = (n - 1) / n * w + x.mean(axis=1).var(ddof=1)
        centered = x - x.mean(axis=1, keepdims=True)
        nfft = 1 << int(np.ceil(np.log2(2 * n)))
        f = np.fft.rfft(centered, nfft, axis=1)
        acov = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :n] / n
        rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
        rho[0] = 1.0
        tau, prev_pair, t = 1.0, None, 1
        while t + 1 < n:
            pair = rho[t] + rho[t + 1]
            if pair < 0:
                break
            if prev_pair is not None:
                pair = min(pair, prev_pair)
            tau += 2.0 * pair
            prev_pair = pair
            t += 2
        out[j] = min(float(m * n), m * n / tau)
    return out


def _ar1_chains(phi, shape, seed):
    """Stationary AR(1) draws with unit innovations along axis 1."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(shape)
    x = np.empty(shape)
    x[:, 0] = eps[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, shape[1]):
        x[:, t] = phi * x[:, t - 1] + eps[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_ar1_oracle(phi):
    # the integrated autocorrelation time of AR(1) is (1 + phi) / (1 - phi)
    x = _ar1_chains(phi, (4, 2000), seed=int(10 * phi))
    expected = 8000 * (1 - phi) / (1 + phi)
    assert 0.7 * expected <= ess(x)[0] <= 1.3 * expected


def test_ess_edge_cases():
    rng = np.random.default_rng(3)
    x = np.stack([rng.standard_normal((3, 100)),
                  np.full((3, 100), 2.0),
                  _ar1_chains(-0.9, (3, 100), seed=4)], axis=2)
    # a constant parameter, and an anticorrelated one past the cap
    assert np.array_equal(ess(x)[1:], [300.0, 300.0])
    with pytest.raises(TooFewDraws):
        ess(np.ones((1, 100)))
    with pytest.raises(TooFewDraws):
        ess(np.ones((2, 3)))


@pytest.mark.parametrize("n", [4, 5, 7, 501])
@pytest.mark.parametrize("p", [1, 16, 17, 40])
def test_ess_matches_reference_loop(n, p):
    rng = np.random.default_rng(100 * n + p)
    phi = rng.uniform(-0.5, 0.95, size=p)
    x = np.stack([_ar1_chains(phi[j], (3, n), seed=j) for j in range(p)],
                 axis=2) + rng.normal(0.0, 5.0, size=p)
    if p > 1:
        x[:, :, p // 2] = 1.5  # a zero-variance column
    np.testing.assert_allclose(ess(x), _ess_reference(x), rtol=1e-12, atol=0)


def test_ess_memory_bounded_at_long_series_shape():
    x = np.random.default_rng(5).standard_normal((2, 500, 3509))
    tracemalloc.start()
    try:
        ess(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
