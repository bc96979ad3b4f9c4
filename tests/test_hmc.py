import hashlib

import numpy as np
import pytest
from scipy.stats import kstest

from spotvol import BaselineSvModel, SvxModel, rhat, sample, split_rhat
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
