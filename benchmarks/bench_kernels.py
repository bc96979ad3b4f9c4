"""Benchmark the hot path: the log-density+gradient kernel and a whole
leapfrog trajectory through the sampler's integrator.

Times both at representative problem sizes (training windows of 360 days,
modeling windows of 1000, the full ten-year span of 3600), for the
baseline design (k=0) and the exogenous one (k=5).

Usage:
    python benchmarks/bench_kernels.py [--reps 200] [--sizes 360,1000,3600]
"""

import argparse
import time

import numpy as np

from spotvol import kernels
from spotvol.hmc import _leapfrog


def time_callable(fn, reps):
    fn()  # warm
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def problem(T, k, seed):
    rng = np.random.default_rng(seed)
    y = 1000 + 5 * rng.standard_normal(T)
    ybar = float(y.mean())
    Z = np.ascontiguousarray(rng.standard_normal((T, k)))
    dim = 3 + (k + 1 if k else 0) + T
    theta = 0.3 * rng.standard_normal(dim)
    return rng, y, ybar, Z, dim, theta


def bench_logp(T, k, reps):
    _, y, ybar, Z, _, theta = problem(T, k, 0)
    return time_callable(lambda: kernels.sv_logp_grad(theta, y, ybar, Z), reps)


def bench_trajectory(T, k, n_steps, reps):
    rng, y, ybar, Z, dim, theta = problem(T, k, 1)
    p = rng.standard_normal(dim)
    inv_mass = np.ones(dim)

    def logp_grad(th):
        return kernels.sv_logp_grad(th, y, ybar, Z)

    _, grad = logp_grad(theta)
    return time_callable(
        lambda: _leapfrog(logp_grad, theta, p, grad, 1e-3, n_steps, inv_mass),
        reps)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--sizes", default="360,1000,3600")
    parser.add_argument("--leapfrog", type=int, default=32)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'kernel':26s} {'T':>5s} {'k':>2s} {'time':>13s} {'per grad':>13s}")
    for T in sizes:
        for k in (0, 5):
            for label, n_grads, seconds in (
                ("logp+grad", 1, bench_logp(T, k, args.reps)),
                (f"trajectory({args.leapfrog})", args.leapfrog,
                 bench_trajectory(T, k, args.leapfrog,
                                  max(1, args.reps // 10))),
            ):
                print(f"{label:26s} {T:5d} {k:2d} {seconds * 1e6:10.1f} us "
                      f"{seconds / n_grads * 1e6:10.1f} us")


if __name__ == "__main__":
    main()
