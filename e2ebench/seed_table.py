"""Seed sensitivity of the sampler-quality metrics on the ``fit`` workload.

    python3 e2ebench/seed_table.py --seed 1 --sampler-seeds 77 78 79

Makes the ``fit`` workload's data from ``--seed``, holds it fixed and runs
the traced fit once per sampler seed, then prints ESS, ESS per second of
the ``hmc.sample`` span and max R-hat for each. A change to the draws'
arithmetic moves these numbers; the spread across sampler seeds is the
noise it must be told apart from.
"""

from __future__ import annotations

import argparse
import statistics

import run
import tracing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sampler-seeds", type=int, nargs="+",
                   default=[77, 78, 79])
    args = p.parse_args(argv)
    run.import_program()
    from workloads import SIZES, fit_inputs, fit_op

    inp = fit_inputs(args.seed, SIZES["full"])
    rows = []
    for sampler_seed in args.sampler_seeds:
        with tracing.Tracer("fit", f"seed-table-{sampler_seed}") as tracer:
            out = fit_op(dict(inp, fit_seed=sampler_seed), tracer.span)
        if out.problems:
            print(f"sampler seed {sampler_seed}: {out.problems}")
        (sp,) = [s for s in tracer.spans if s.name == "hmc.sample"]
        notes = tracer.notes[sp.id]
        m = tracing.layer_metrics(tracer, None)
        rows.append((sampler_seed, notes["ess_phi"], notes["ess_min_h"],
                     m["hmc.sample_s"], m["hmc.ess_per_s_phi"],
                     m["hmc.ess_per_s_min_h"], m["hmc.max_rhat"]))

    print("| sampler seed | ESS(phi) | min ESS(h) | hmc.sample_s | "
          "hmc.ess_per_s_phi | hmc.ess_per_s_min_h | hmc.max_rhat |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r[0]} | {r[1]:.0f} | {r[2]:.0f} | {r[3]:.2f} | {r[4]:.1f} "
              f"| {r[5]:.1f} | {r[6]:.3f} |")
    for col, name in ((1, "ESS(phi)"), (2, "min ESS(h)"), (6, "max R-hat")):
        vals = [r[col] for r in rows]
        print(f"{name}: median {statistics.median(vals):.4g}, "
              f"range {min(vals):.4g}-{max(vals):.4g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
