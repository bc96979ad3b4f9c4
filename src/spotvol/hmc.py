"""Hamiltonian Monte Carlo over a differentiable log posterior.

Fixed-length leapfrog trajectories with a small deterministic step-size
jitter, dual-averaging step-size adaptation toward a target acceptance
rate, and windowed diagonal mass-matrix estimation during warmup. The
chains of a fit run in lockstep in the calling thread: each iteration
moves all of them with one trajectory call, their positions the rows of
one array. ``sample_fits`` runs the chains of several fits of one model
kind and length in the same way, each fit's chains contiguous rows of
one call, and ``sample`` is its one-fit call. Each chain owns an
independent RNG substream, step size, metric and output slot, so its
draws do not depend on the other chains or fits.

The model integrates: ``model.trajectory(theta, p, grad, eps, n_steps,
inv_mass) -> (theta, p, lp, grad)`` runs n_steps leapfrog steps from
each row of the (B, dim) theta, with eps (B,) and inv_mass (B, dim) per
row, and computes the log density (B,) only at the end points, which is
all that accept/reject uses. ``model.logp_grad`` is called once per
chain, at its initial position.

A chain's state is one mutable ``ChainState``: position, log density,
gradient, inverse metric and RNG. ``init_chain`` builds it and
``transition`` advances a list of them in place, so warmup and sampling
are two loops over ``transition``. The state never leaves this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ess, split_rhat
from .errors import DivergentChains, InvalidConfig, NonFiniteLogp
from .models import ModelRows
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
    in lockstep in one thread) so that existing configs keep loading."""

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


def _trajectory(model, states, p, eps, n_steps):
    """model.trajectory from the states' positions, one row per state."""
    return model.trajectory(
        np.array([st.theta for st in states]), p,
        np.array([st.grad for st in states]), eps, n_steps,
        np.array([st.inv_mass for st in states]))


def transition(model, states, eps, n_steps):
    """One HMC transition of n_steps jittered leapfrog steps for every
    chain, with eps its step sizes; ``model`` is the chains' model, or
    the ``ModelRows`` of their fits' models. An accepted proposal replaces
    that chain's position. Each chain draws its jitter and momentum from
    its own RNG before the one trajectory call. Returns (accept_prob,
    divergent) per chain; a divergent transition draws no accept uniform."""
    eps = [e * (1.0 + STEP_JITTER * (2.0 * st.rng.random() - 1.0))
           for e, st in zip(eps, states)]
    p0 = np.array([st.rng.standard_normal(len(st.theta)) / np.sqrt(st.inv_mass)
                   for st in states])
    theta1, p1, lp1, grad1 = _trajectory(model, states, p0, eps, n_steps)
    out = []
    for b, st in enumerate(states):
        delta = (_energy(lp1[b], p1[b], st.inv_mass)
                 - _energy(st.lp, p0[b], st.inv_mass))
        if not math.isfinite(delta) or delta > DIVERGENCE_ENERGY:
            out.append((0.0, True))
            continue
        accept_prob = 1.0 if delta <= 0.0 else math.exp(-delta)
        if st.rng.random() < accept_prob:
            st.theta, st.lp, st.grad = theta1[b], float(lp1[b]), grad1[b]
        out.append((accept_prob, False))
    return out


def _find_initial_step(model, state: ChainState):
    """Double/halve a unit step until the one-step acceptance crosses 1/2."""
    p = state.rng.standard_normal(len(state.theta)) / np.sqrt(state.inv_mass)
    h0 = _energy(state.lp, p, state.inv_mass)
    eps, direction = 1.0, 0.0
    for _ in range(65):  # a unit-step probe, then up to 64 doublings/halvings
        eps *= 2.0 ** direction
        _, p1, lp1, _ = _trajectory(model, [state], p[None], [eps], 1)
        h1 = _energy(lp1[0], p1[0], state.inv_mass)
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


def _run_chains(models, cfg: SamplerConfig, seeds):
    """Warm up and sample every chain of every model in lockstep, the
    chains of ``models[i]`` running from the seed sequences ``seeds[i]``;
    returns per model its kept draws (chains, draws, params) and its
    chains' statistics. Row r of each trajectory call is chain r % n of
    model r // n, with n = ``cfg.n_chains``."""
    n = cfg.n_chains
    row_models = [model for model in models for _ in range(n)]
    states = [init_chain(model, s)
              for model, s in zip(row_models, itertools.chain(*seeds))]
    das = [_DualAveraging(_find_initial_step(model, st), cfg.target_accept)
           for model, st in zip(row_models, states)]
    rows = models[0] if len(models) == 1 else ModelRows(models, n)
    window_ends = _adaptation_schedule(cfg.warmup)  # non-empty: warmup >= 200
    windows = [[] for _ in states]
    for m in range(1, cfg.warmup + 1):
        steps = transition(rows, states, [math.exp(da.log_eps) for da in das],
                           cfg.leapfrog_steps)
        for da, (aprob, _) in zip(das, steps):
            da.update(aprob)
        # the initial and terminal buffers adapt the step size only
        if INIT_BUFFER < m <= window_ends[-1]:
            for window, st in zip(windows, states):
                window.append(st.theta)  # transition replaces, never mutates
        if m in window_ends:
            for r, (window, st) in enumerate(zip(windows, states)):
                k = len(window)
                var = np.asarray(window).var(axis=0, ddof=1)
                st.inv_mass = k / (k + 5.0) * var + 1e-3 * (5.0 / (k + 5.0))
                das[r] = _DualAveraging(_find_initial_step(row_models[r], st),
                                        cfg.target_accept)
            windows = [[] for _ in states]

    eps = [math.exp(da.log_eps_bar) for da in das]
    kept = [np.empty((n, cfg.draws, len(model.param_names)))
            for model in models]
    divergences, accept_sum = [0] * len(states), [0.0] * len(states)
    for i in range(cfg.draws):
        steps = transition(rows, states, eps, cfg.leapfrog_steps)
        for r, (st, (aprob, divergent)) in enumerate(zip(states, steps)):
            divergences[r] += divergent
            accept_sum[r] += aprob
            kept[r // n][r % n, i] = row_models[r].transform(st.theta)
    stats = [{"step_size": e, "mean_accept": a / cfg.draws, "divergences": d}
             for e, a, d in zip(eps, accept_sum, divergences)]
    return [(k, stats[i * n:(i + 1) * n]) for i, k in enumerate(kept)]


def _assemble(model, cfg: SamplerConfig, per_chain, chain_stats):
    """A fit's PosteriorFit from its kept draws and chain statistics."""
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


def sample_fits(models, cfg: SamplerConfig, seeds, errors=()) -> list:
    """Run the HMC chains of one fit per model, all in lockstep, and
    assemble a PosteriorFit for each; ``seeds[i]`` is model i's seed.
    Several models must be SV models of one kind and length (their
    chains' rows read stacked data, see ``models.ModelRows``).

    An exception of a type in ``errors`` fails only the fit that raised
    it and takes its place in the returned list: one raised in the
    lockstep loop, which cannot tell the fits apart, reruns each fit
    alone. Any other exception propagates. A fit's draws do not depend on
    the other fits, so a rerun gives the same fits.
    """
    cfg.validate()
    chain_seeds = [np.random.SeedSequence(s).spawn(cfg.n_chains)
                   for s in seeds]
    try:
        # far-tail proposals overflow exp() in the kernel; the sampler
        # rejects them as divergent, so the warnings would carry no
        # information
        with np.errstate(over="ignore", invalid="ignore"):
            runs = _run_chains(models, cfg, chain_seeds)
    except errors as exc:
        if len(models) == 1:
            return [exc]
        return [fit for model, seed in zip(models, seeds)
                for fit in sample_fits([model], cfg, [seed], errors)]
    fits = []
    for model, (per_chain, chain_stats) in zip(models, runs):
        try:
            fits.append(_assemble(model, cfg, per_chain, chain_stats))
        except errors as exc:
            fits.append(exc)
    return fits


def sample(model, cfg: SamplerConfig, seed: int) -> PosteriorFit:
    """Run HMC chains and assemble a PosteriorFit: the one-fit call of
    ``sample_fits``.

    Deterministic for fixed (model, cfg, seed): every chain owns a spawned
    RNG substream and a fixed output slot, so chain i's draws are the same
    in a fit of any number of chains above i, and in a fit run beside any
    others.
    """
    [fit] = sample_fits([model], cfg, [seed])
    return fit


def rhat(chains) -> np.ndarray:
    """Split R-hat from a list of per-chain draw arrays (public surface)."""
    arr = np.stack([np.asarray(c, dtype=float) for c in chains])
    values, _ = split_rhat(arr)
    return values
