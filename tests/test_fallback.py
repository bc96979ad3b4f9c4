"""Smoke run of the kernel benchmark script at a tiny size."""

import subprocess
import sys


def test_benchmark_smoke():
    from pathlib import Path

    bench = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    out = subprocess.run(
        [sys.executable, str(bench), "--reps", "3", "--sizes", "50",
         "--leapfrog", "4"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "logp+grad" in out.stdout
    assert "trajectory(4)" in out.stdout
