import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spotvol
from spotvol import ExogenousFrame, SvxCoeffs, SynthSpec, synthesize
from spotvol.hmc import SamplerConfig


@pytest.fixture(scope="session")
def baseline_truth():
    """Small baseline synthetic dataset shared across tests."""
    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=240,
                     mean_price=1000.0, seed=101)
    _, _, truth = synthesize(spec)
    return truth


@pytest.fixture(scope="session")
def svx_truth():
    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=241,
                     mean_price=1000.0, seed=202,
                     svx=SvxCoeffs(alpha=0.4, beta1=2.0, beta2=0.1,
                                   beta3=0.01, gamma=-5.0, xi=10.0))
    _, _, truth = synthesize(spec)
    return truth


@pytest.fixture(scope="session")
def svx_frame(svx_truth):
    return ExogenousFrame.from_daily(svx_truth.daily_prices,
                                     svx_truth.daily_temps)


@pytest.fixture(scope="session")
def svx_y(svx_truth):
    return svx_truth.daily_prices.window(1, len(svx_truth.daily_prices))


def leapfrog(logp_grad, theta, p, grad, eps, n_steps, inv_mass):
    """Textbook out-of-place leapfrog over a one-point ``logp_grad``, in
    the model ``trajectory`` signature: the reference the kernel's
    integrator must match bit for bit, and the integrator of the generic
    test targets."""
    p = p + 0.5 * eps * grad
    for i in range(n_steps):
        theta = theta + eps * inv_mass * p
        lp, grad = logp_grad(theta)
        if i < n_steps - 1:
            p = p + eps * grad
    return theta, p + 0.5 * eps * grad, lp, grad


def leapfrog_rows(logp_grad, theta, p, grad, eps, n_steps, inv_mass):
    """``leapfrog`` on each row, in the model ``trajectory`` signature:
    theta, p, grad and inv_mass are (B, dim), eps and the returned log
    densities (B,)."""
    rows = [leapfrog(logp_grad, t, q, g, e, n_steps, m)
            for t, q, g, e, m in zip(theta, p, grad, eps, inv_mass)]
    theta, p, lp, grad = zip(*rows)
    return np.stack(theta), np.stack(p), np.array(lp), np.stack(grad)


def fast_sampler(**overrides) -> SamplerConfig:
    """Smallest config the sampler accepts; keeps unit tests quick."""
    kwargs = dict(n_chains=2, warmup=200, draws=500, leapfrog_steps=12,
                  max_workers=2)
    kwargs.update(overrides)
    return SamplerConfig(**kwargs)


def per_fit(sample):
    """A fake of ``hmc.sample``, one fit per call, as a fake of
    ``hmc.sample_fits``: each model's entry is ``sample(model, cfg,
    seed)``, or the exception of a type in ``errors`` that it raised."""
    def sample_fits(models, cfg, seeds, errors=()):
        out = []
        for model, seed in zip(models, seeds):
            try:
                out.append(sample(model, cfg, seed))
            except errors as exc:
                out.append(exc)
        return out
    return sample_fits


def degenerate_fit(model, mu=-1.0, phi=0.9, sigma=0.3, h=None, n_draws=50,
                   coeffs=None):
    """PosteriorFit whose draws all equal one parameter point."""
    from spotvol.posterior import PosteriorFit, summarize_draws

    T = model.T
    if h is None:
        h = np.full(T, mu)
    row = [mu, phi, sigma]
    names = ["mu", "phi", "sigma"]
    if coeffs is not None:
        row += list(coeffs)
        names += ["alpha", "beta1", "beta2", "beta3", "gamma", "xi"]
    row = np.concatenate([row, h])
    names += [f"h[{t}]" for t in range(T)]
    draws = np.tile(row, (n_draws, 1))
    return PosteriorFit(
        draws=draws,
        param_names=names,
        n_chains=2,
        kept_per_chain=n_draws // 2,
        diagnostics={"rhat": {}, "ess": {}, "divergences": 0, "warnings": [],
                     "max_rhat": 1.0},
        summary=summarize_draws(draws, names),
        train_summary=model.train_summary(),
        model_family=model.kind,
    )


def assert_summaries_exact(fs) -> None:
    """A ForecastSet's summaries, read on demand, equal the reductions of
    its draws computed in one pass each, and are cached on first read."""
    lo, hi = np.percentile(fs.draws, [2.5, 97.5], axis=0)
    vlo, vhi = np.percentile(fs.vol_draws, [2.5, 97.5], axis=0)
    for name, want in (("mean", fs.draws.mean(axis=0)), ("ci_low", lo),
                       ("ci_high", hi), ("vol_mean", fs.vol_draws.mean(axis=0)),
                       ("vol_low", vlo), ("vol_high", vhi)):
        got = getattr(fs, name)
        assert np.array_equal(got, want), name
        assert getattr(fs, name) is got, name


def run_python(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports spotvol
    from the tests' source tree: what a module loads on import can only
    be seen from a process that has not loaded it yet."""
    src = str(Path(spotvol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout
