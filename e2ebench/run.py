"""End-to-end benchmark of spotvol: one workload per process.

    python3 e2ebench/run.py --workload {fit,cv,rolling,cli} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the program is imported from
``src/``. Load model: batch compute, a closed loop with one caller. Set-up
(import of spotvol plus input generation from ``--seed``) is timed apart
from the operation, which is repeated while the next repeat still fits in
``--seconds`` (at least twice). The benchmark starts no threads or
processes; ``max_workers`` stays unset so the program sizes its own pools.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the operation once untraced, once traced and, for fit,
cv and rolling, once more with the program's ``max_workers=1`` knobs, then
reports the per-layer metrics; spans go to ``.e2ebench-work/traces/``.
Every line but the last is a human-readable table; the last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"
SETUP_REPEATS = 3
MIN_OPS = 2
SERIAL_REFERENCE = ("fit", "cv", "rolling")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fit", "cv", "rolling", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: smallest shapes, for the harness self-check")
    return p.parse_args(argv)


def import_program() -> float:
    """Import spotvol from this checkout's src/ and return the seconds it
    took. Raises when the checkout holds no program to measure."""
    if not (SRC / "spotvol" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spotvol source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    spotvol = importlib.import_module("spotvol")
    importlib.import_module("spotvol.cli")
    import_s = time.perf_counter() - t0
    if SRC not in Path(spotvol.__file__).resolve().parents:
        raise ImportError(f"spotvol was imported from {spotvol.__file__}")
    return import_s


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operation counts, problems and fingerprints over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = set()

    def add(self, out, label=""):
        self.attempted += out.attempted
        self.failed += out.failed
        self.problems += [f"{label}{p}" for p in out.problems]
        if out.fingerprint:
            self.fingerprints.add(out.fingerprint)

    @property
    def correct(self) -> bool:
        # repeats of one operation on one seed must give identical outputs
        return (not self.problems and self.failed == 0
                and len(self.fingerprints) <= 1)


def timed(op, inp, span=None, serial=False):
    span = span or (lambda name: contextlib.nullcontext())
    c0, w0 = time.process_time(), time.perf_counter()
    out = op(inp, span, serial)
    return out, time.perf_counter() - w0, time.process_time() - c0


def measure(op, inp, seconds, tally) -> dict:
    """Repeat the operation while the next repeat still fits in `seconds`,
    at least MIN_OPS times, and report medians. Peak RSS is read after the
    first repeat, so it does not depend on how many repeats fit."""
    walls, cpus = [], []
    start = time.perf_counter()
    while len(walls) < MIN_OPS or (time.perf_counter() - start
                                   + statistics.median(walls)) <= seconds:
        out, wall, cpu = timed(op, inp)
        tally.add(out)
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 1:
            peak_rss = rss_mb()
    print("wall per operation (s): " + " ".join(f"{w:.3f}" for w in walls))
    return {"wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss,
            "ops": len(walls)}


def measure_traced(name, op, inp, seed, tally, import_s) -> dict:
    from workloads import grad_us, kernel_shape_bytes

    out, wall_plain, _ = timed(op, inp)
    tally.add(out, "untraced: ")

    run_id = f"{name}-seed{seed}-pid{os.getpid()}"
    with tracing.Tracer(name, run_id) as tracer:
        with tracer.span("bench.op") as root:
            out = op(inp, tracer.span, False)
    tally.add(out, "traced: ")
    wall_traced = root.end - root.start

    serial = None
    if name in SERIAL_REFERENCE:
        with tracing.Tracer(name, run_id + "-serial") as serial:
            with serial.span("bench.op"):
                tally.add(op(inp, serial.span, True), "serial: ")

    m = tracing.layer_metrics(tracer, serial)
    models = inp["models"]()
    m["kernels.grad_us"] = statistics.mean(grad_us(md) for md in models)
    m["kernels.bytes_per_call"] = statistics.mean(
        kernel_shape_bytes(md) for md in models)
    m["backtest.fold_failures"] = (out.failed if name in ("cv", "rolling")
                                   else 0)
    m["posterior.fit_json_mb"] = out.fit_json_bytes / 1e6
    m["setup.import_s"] = import_s
    m["trace.overhead_s"] = wall_traced - wall_plain
    tracer.write(WORK / "traces" / f"{run_id}.json")
    return m


def report(declared, values, tally, extra_rows=()):
    """Print the table, then the one-line JSON result."""
    metrics = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        value = values.get(name)
        if value is None:
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": value, "unit": unit}
    rows = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    for name, value, unit in list(rows) + list(extra_rows):
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:28s} {shown:>14s} {unit}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_s = import_program()
    except (OSError, ValueError, ImportError) as exc:
        print(f"e2ebench: cannot run: {exc}", file=sys.stderr)
        return 2

    from workloads import SIZES, WORKLOADS

    make_inputs, op = WORKLOADS[args.workload]
    size = SIZES[args.size]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    extra = (workdir,) if args.workload == "cli" else ()
    tally = Tally()
    try:
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = make_inputs(args.seed, size, *extra)
            gen.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen)

        if args.trace:
            values = measure_traced(args.workload, op, inp, args.seed, tally,
                                    import_s)
            report(spec["per_layer"], values, tally)
        else:
            values = measure(op, inp, args.seconds, tally)
            values["setup_s"] = setup_s
            error_rate = tally.failed / max(1, tally.attempted)
            report(spec["end_to_end"], values, tally,
                   [("error_rate", error_rate, "ratio"),
                    ("operations", values["ops"], "count")])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
