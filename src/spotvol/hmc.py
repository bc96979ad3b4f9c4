"""Hamiltonian Monte Carlo over a differentiable log posterior.

Fixed-length leapfrog trajectories with a small deterministic step-size
jitter, dual-averaging step-size adaptation toward a target acceptance
rate, and windowed diagonal mass-matrix estimation during warmup. Chains
run one after another in the calling thread: the numpy kernel holds the
GIL, so a thread pool only adds contention. Each chain owns an independent
RNG substream and a fixed output slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ess, split_rhat
from .errors import DivergentChains, InvalidConfig, NonFiniteLogp
from .posterior import PosteriorFit, summarize_draws

DIVERGENCE_ENERGY = 1000.0
RHAT_WARN = 1.05
# warmup windows (iterations): fast step-size-only buffers at either end,
# doubling metric windows between; SamplerConfig's warmup floor of 200
# always leaves room for at least two windows
INIT_BUFFER = 75
TERM_BUFFER = 50
BASE_WINDOW = 25


@dataclass
class SamplerConfig:
    """HMC settings; ``max_workers`` is accepted and ignored (chains run
    serially) so that existing configs keep loading."""

    n_chains: int = 4
    warmup: int = 1000
    draws: int = 1000          # kept per chain
    leapfrog_steps: int = 32
    target_accept: float = 0.8
    step_jitter: float = 0.1
    max_workers: int | None = None

    def validate(self):
        if self.n_chains < 2:
            raise InvalidConfig("n_chains must be >= 2")
        if self.warmup < 200:
            raise InvalidConfig("warmup must be >= 200")
        if self.draws < 500:
            raise InvalidConfig("draws must be >= 500")
        if self.leapfrog_steps < 1:
            raise InvalidConfig("leapfrog_steps must be >= 1")
        if not 0 < self.target_accept < 1:
            raise InvalidConfig("target_accept must lie in (0, 1)")


class _DualAveraging:
    """Nesterov-style step-size averaging toward a target acceptance."""

    def __init__(self, eps0, target, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.m = 0

    def update(self, accept_prob):
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - math.sqrt(self.m) / self.gamma * self.h_bar
        eta = self.m ** (-self.kappa)
        self.log_eps_bar = eta * self.log_eps + (1 - eta) * self.log_eps_bar

    @property
    def eps(self):
        return math.exp(self.log_eps)

    @property
    def eps_averaged(self):
        return math.exp(self.log_eps_bar)


def _leapfrog(logp_grad, theta, p, grad, eps, n_steps, inv_mass):
    """n_steps leapfrog steps from (theta, p); the inputs are left intact."""
    theta = theta.copy()
    step = eps * inv_mass
    p = p + 0.5 * eps * grad
    for i in range(n_steps):
        theta += step * p
        lp, grad = logp_grad(theta)
        if i < n_steps - 1:
            p += eps * grad
    p += 0.5 * eps * grad
    return theta, p, lp, grad


def _find_initial_step(logp_grad, theta, lp, grad, inv_mass, rng):
    """Double/halve a unit step until the one-step acceptance crosses 1/2."""
    eps = 1.0
    p = rng.standard_normal(theta.shape[0]) / np.sqrt(inv_mass)
    h0 = -lp + 0.5 * float(np.sum(p * p * inv_mass))
    _, p1, lp1, _ = _leapfrog(logp_grad, theta, p, grad, eps, 1, inv_mass)
    h1 = -lp1 + 0.5 * float(np.sum(p1 * p1 * inv_mass))
    delta = h0 - h1 if math.isfinite(h1) else -math.inf
    direction = 1.0 if delta > math.log(0.5) else -1.0
    for _ in range(64):
        eps *= 2.0 ** direction
        _, p1, lp1, _ = _leapfrog(logp_grad, theta, p, grad, eps, 1, inv_mass)
        h1 = -lp1 + 0.5 * float(np.sum(p1 * p1 * inv_mass))
        delta = h0 - h1 if math.isfinite(h1) else -math.inf
        if direction * delta <= direction * math.log(0.5):
            break
    return eps


def _adaptation_schedule(warmup):
    """Iteration indices (1-based) at which the metric window closes."""
    ends = []
    start = INIT_BUFFER
    size = BASE_WINDOW
    while start + size <= warmup - TERM_BUFFER:
        end = start + size
        # absorb a remainder too small to double into this window
        if end + 2 * size > warmup - TERM_BUFFER:
            end = warmup - TERM_BUFFER
        ends.append(end)
        start = end
        size *= 2
    return ends


def _run_chain(model, cfg: SamplerConfig, seed_seq):
    rng = np.random.default_rng(seed_seq)
    dim = model.dim

    theta = model.initial_position(rng)
    lp, grad = model.logp_grad(theta)
    if not math.isfinite(lp):
        raise NonFiniteLogp("log density not finite at the initial position")

    inv_mass = np.ones(dim)
    eps = _find_initial_step(model.logp_grad, theta, lp, grad, inv_mass, rng)
    da = _DualAveraging(eps, cfg.target_accept)

    window_ends = _adaptation_schedule(cfg.warmup)
    window_draws = []

    def one_step(theta, lp, grad, eps_now):
        jitter = 1.0 + cfg.step_jitter * (2.0 * rng.random() - 1.0)
        eps_j = eps_now * jitter
        p0 = rng.standard_normal(dim) / np.sqrt(inv_mass)
        h0 = -lp + 0.5 * float(np.dot(p0 * p0, inv_mass))
        theta1, p1, lp1, grad1 = _leapfrog(
            model.logp_grad, theta, p0, grad, eps_j, cfg.leapfrog_steps,
            inv_mass)
        h1 = -lp1 + 0.5 * float(np.dot(p1 * p1, inv_mass))
        delta = h1 - h0
        divergent = (not math.isfinite(delta)) or delta > DIVERGENCE_ENERGY
        if divergent:
            accept_prob = 0.0
        elif delta <= 0.0:
            accept_prob = 1.0
        else:
            accept_prob = math.exp(-delta)
        if not divergent and rng.random() < accept_prob:
            return theta1, lp1, grad1, accept_prob, False
        return theta, lp, grad, accept_prob, divergent

    for m in range(1, cfg.warmup + 1):
        theta, lp, grad, aprob, _ = one_step(theta, lp, grad, da.eps)
        da.update(aprob)
        if not window_ends:
            continue  # terminal buffer: step size only
        if m > INIT_BUFFER:
            window_draws.append(theta.copy())
        if m == window_ends[0]:
            window_ends.pop(0)
            n = len(window_draws)
            var = np.asarray(window_draws).var(axis=0, ddof=1)
            inv_mass = n / (n + 5.0) * var + 1e-3 * (5.0 / (n + 5.0))
            window_draws = []
            eps = _find_initial_step(
                model.logp_grad, theta, lp, grad, inv_mass, rng)
            da = _DualAveraging(eps, cfg.target_accept)

    eps_final = da.eps_averaged
    kept = np.empty((cfg.draws, len(model.param_names)))
    divergences = 0
    accept_sum = 0.0
    for i in range(cfg.draws):
        theta, lp, grad, aprob, div = one_step(theta, lp, grad, eps_final)
        divergences += int(div)
        accept_sum += aprob
        kept[i] = model.transform(theta)

    stats = {
        "step_size": eps_final,
        "mean_accept": accept_sum / cfg.draws,
        "divergences": divergences,
    }
    return kept, stats


def sample(model, cfg: SamplerConfig, seed: int) -> PosteriorFit:
    """Run HMC chains and assemble a PosteriorFit.

    Deterministic for fixed (model, cfg, seed): every chain owns a spawned
    RNG substream and a fixed output slot.
    """
    cfg.validate()
    seeds = np.random.SeedSequence(seed).spawn(cfg.n_chains)
    # far-tail proposals overflow exp() in the kernel; the sampler rejects
    # them as divergent, so the warnings would carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        results = [_run_chain(model, cfg, s) for s in seeds]

    per_chain = np.stack([kept for kept, _ in results])   # (chains, draws, p)
    chain_stats = [stats for _, stats in results]
    draws = per_chain.reshape(-1, per_chain.shape[2])

    rhat, zero_var = split_rhat(per_chain)
    ess_vals = ess(per_chain)
    total_div = sum(s["divergences"] for s in chain_stats)
    div_rate = total_div / (cfg.n_chains * cfg.draws)
    if div_rate >= 0.10:
        raise DivergentChains(div_rate)

    names = list(model.param_names)
    warnings = []
    bad = [names[j] for j in np.nonzero(rhat > RHAT_WARN)[0]]
    if bad:
        head = ", ".join(bad[:8]) + ("..." if len(bad) > 8 else "")
        warnings.append(f"rhat>{RHAT_WARN} for {len(bad)} parameter(s): {head}")
    if total_div:
        warnings.append(f"{total_div} divergent transition(s) ({div_rate:.2%})")

    diagnostics = {
        "rhat": {n: float(r) for n, r in zip(names, rhat)},
        "ess": {n: float(e) for n, e in zip(names, ess_vals)},
        "zero_variance": [names[j] for j in np.nonzero(zero_var)[0]],
        "divergences": int(total_div),
        "divergence_rate": float(div_rate),
        "chains": chain_stats,
        "warnings": warnings,
        "max_rhat": float(rhat.max()),
    }
    return PosteriorFit(
        draws=draws,
        param_names=names,
        n_chains=cfg.n_chains,
        kept_per_chain=cfg.draws,
        diagnostics=diagnostics,
        summary=summarize_draws(draws, names),
        train_summary=model.train_summary() if hasattr(model, "train_summary") else {},
        model_family=getattr(model, "kind", ""),
    )


def rhat(chains) -> np.ndarray:
    """Split R-hat from a list of per-chain draw arrays (public surface)."""
    arr = np.stack([np.asarray(c, dtype=float) for c in chains])
    values, _ = split_rhat(arr)
    return values
