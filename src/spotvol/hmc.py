"""Hamiltonian Monte Carlo over a differentiable log posterior.

Fixed-length leapfrog trajectories with a small deterministic step-size
jitter, dual-averaging step-size adaptation toward a target acceptance
rate, and windowed diagonal mass-matrix estimation during warmup. Chains
run one after another in the calling thread: the numpy kernel holds the
GIL, so a thread pool only adds contention. Each chain owns an independent
RNG substream and a fixed output slot.

The model integrates: ``model.trajectory(theta, p, grad, eps, n_steps,
inv_mass) -> (theta, p, lp, grad)`` runs n_steps leapfrog steps and
computes the log density only at the end point, which is all that
accept/reject uses. ``model.logp_grad`` is called once per chain, at its
initial position.

A chain's state is one mutable ``ChainState``: position, log density,
gradient, inverse metric and RNG. ``init_chain`` builds it and
``transition`` advances it in place, so warmup and sampling are two loops
over ``transition``. The state never leaves this module.
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
# each transition scales the step size by a uniform factor in 1 +- this
STEP_JITTER = 0.1


@dataclass
class SamplerConfig:
    """HMC settings; ``max_workers`` is accepted and ignored (chains run
    serially) so that existing configs keep loading."""

    n_chains: int = 4
    warmup: int = 1000
    draws: int = 1000          # kept per chain
    leapfrog_steps: int = 32
    target_accept: float = 0.8
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

    GAMMA, T0, KAPPA = 0.05, 10.0, 0.75

    def __init__(self, eps0, target):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.m = 0

    def update(self, accept_prob):
        self.m += 1
        frac = 1.0 / (self.m + self.T0)
        self.h_bar = (1 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - math.sqrt(self.m) / self.GAMMA * self.h_bar
        eta = self.m ** (-self.KAPPA)
        self.log_eps_bar = eta * self.log_eps + (1 - eta) * self.log_eps_bar


@dataclass
class ChainState:
    """Where one chain stands: position, log density and gradient there,
    diagonal inverse mass matrix and the chain's own RNG substream."""

    theta: np.ndarray
    lp: float
    grad: np.ndarray
    inv_mass: np.ndarray
    rng: np.random.Generator


def init_chain(model, seed_seq) -> ChainState:
    """A chain at the model's initial position under a unit metric."""
    rng = np.random.default_rng(seed_seq)
    theta = model.initial_position(rng)
    lp, grad = model.logp_grad(theta)
    if not math.isfinite(lp):
        raise NonFiniteLogp("log density not finite at the initial position")
    return ChainState(theta, lp, grad, np.ones(model.dim), rng)


def _energy(lp, p, inv_mass):
    return -lp + 0.5 * float(np.dot(p * p, inv_mass))


def transition(model, state: ChainState, eps, n_steps):
    """One HMC transition of n_steps jittered leapfrog steps; an accepted
    proposal replaces the state's position. Returns (accept_prob,
    divergent); a divergent transition draws no accept uniform."""
    rng, inv_mass = state.rng, state.inv_mass
    eps *= 1.0 + STEP_JITTER * (2.0 * rng.random() - 1.0)
    p0 = rng.standard_normal(len(state.theta)) / np.sqrt(inv_mass)
    theta1, p1, lp1, grad1 = model.trajectory(
        state.theta, p0, state.grad, eps, n_steps, inv_mass)
    delta = _energy(lp1, p1, inv_mass) - _energy(state.lp, p0, inv_mass)
    if not math.isfinite(delta) or delta > DIVERGENCE_ENERGY:
        return 0.0, True
    accept_prob = 1.0 if delta <= 0.0 else math.exp(-delta)
    if rng.random() < accept_prob:
        state.theta, state.lp, state.grad = theta1, lp1, grad1
    return accept_prob, False


def _find_initial_step(model, state: ChainState):
    """Double/halve a unit step until the one-step acceptance crosses 1/2."""
    p = state.rng.standard_normal(len(state.theta)) / np.sqrt(state.inv_mass)
    h0 = _energy(state.lp, p, state.inv_mass)
    eps, direction = 1.0, 0.0
    for _ in range(65):  # a unit-step probe, then up to 64 doublings/halvings
        eps *= 2.0 ** direction
        _, p1, lp1, _ = model.trajectory(state.theta, p, state.grad, eps, 1,
                                         state.inv_mass)
        h1 = _energy(lp1, p1, state.inv_mass)
        delta = h0 - h1 if math.isfinite(h1) else -math.inf
        if not direction:
            direction = 1.0 if delta > math.log(0.5) else -1.0
        elif direction * delta <= direction * math.log(0.5):
            break
    return eps


def _adaptation_schedule(warmup):
    """Iteration indices (1-based) at which the metric window closes."""
    last = warmup - TERM_BUFFER
    ends, size = [INIT_BUFFER], BASE_WINDOW
    while ends[-1] + size <= last:
        # a window absorbs a remainder too small to double into the next
        ends.append(last if ends[-1] + 3 * size > last else ends[-1] + size)
        size *= 2
    return ends[1:]


def _run_chain(model, cfg: SamplerConfig, seed_seq):
    state = init_chain(model, seed_seq)
    da = _DualAveraging(_find_initial_step(model, state), cfg.target_accept)
    window_ends = _adaptation_schedule(cfg.warmup)  # non-empty: warmup >= 200
    window = []
    for m in range(1, cfg.warmup + 1):
        aprob, _ = transition(model, state, math.exp(da.log_eps),
                              cfg.leapfrog_steps)
        da.update(aprob)
        # the initial and terminal buffers adapt the step size only
        if INIT_BUFFER < m <= window_ends[-1]:
            window.append(state.theta)  # transition replaces, never mutates
        if m in window_ends:
            n = len(window)
            var = np.asarray(window).var(axis=0, ddof=1)
            state.inv_mass = n / (n + 5.0) * var + 1e-3 * (5.0 / (n + 5.0))
            window = []
            da = _DualAveraging(_find_initial_step(model, state),
                                cfg.target_accept)

    eps = math.exp(da.log_eps_bar)
    kept = np.empty((cfg.draws, len(model.param_names)))
    divergences, accept_sum = 0, 0.0
    for i in range(cfg.draws):
        aprob, divergent = transition(model, state, eps, cfg.leapfrog_steps)
        divergences += divergent
        accept_sum += aprob
        kept[i] = model.transform(state.theta)
    return kept, {"step_size": eps, "mean_accept": accept_sum / cfg.draws,
                  "divergences": divergences}


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
