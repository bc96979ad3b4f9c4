"""The four workloads: inputs made from a seed, one timed operation, and the
checks its outputs must pass.

Shapes follow the paper's two users. An operator refits SV/SVX every day
and forecasts the next (``fit``, ``rolling``, ``cli``); a researcher runs
sliding-window CV grids where every cell is an HMC fit (``cv``). The ``fit``
sampler keeps the default 4 chains and 32 leapfrog steps with iteration
counts at the ``SamplerConfig`` floors (200 warmup, 500 kept draws per
chain), so that one operation fits a short run. ``cv`` and ``rolling`` use
the criterion-10 sampler (2 chains, 500 + 500, 16 steps); at 200 warmup
draws its step size is not yet adapted and some seeds raise
``DivergentChains``. The ``cli`` sampler sits at every floor, one leapfrog
step included, so that ingest, file I/O, diagnostics and stats, not the
kernel, carry that workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

import spotvol
from spotvol import cli
from spotvol.hmc import SamplerConfig

# criterion-10 generator: svx-driven mean on an AR(1) log-volatility
SVX = spotvol.SvxCoeffs(alpha=0.3, beta1=2.0, beta2=0.1, beta3=0.01,
                        gamma=-5.0, xi=10.0)
FIT_TRUTH = {"mu": -1.0, "phi": 0.95, "sigma": 0.25}

SIZES = {
    # full: what the benchmark measures; tiny: the harness self-check
    "full": {"fit_T": 360, "fit_steps": 32, "cv_T": 360, "cv_test": 90,
             "cv_folds": 1, "cv_steps": 16, "roll_T": 360, "roll_days": 2,
             "cli_days": 3600, "cli_train": 3500, "cli_steps": 1},
    "tiny": {"fit_T": 60, "fit_steps": 8, "cv_T": 60, "cv_test": 15,
             "cv_folds": 1, "cv_steps": 8, "roll_T": 60, "roll_days": 2,
             "cli_days": 130, "cli_train": 100, "cli_steps": 1},
}


@dataclass
class Outcome:
    """What one operation did: how many sub-operations it attempted and
    failed, the checks that did not hold, and values to compare across
    repeats of the same operation."""

    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    fingerprint: bytes = b""
    fit_json_bytes: int = 0


def _seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _criterion10_data(n_days: int, seed: int):
    """(price series, exogenous frame) of `n_days` aligned days."""
    spec = spotvol.SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=n_days + 1,
                             mean_price=1000.0, seed=seed, zone=1, svx=SVX)
    _, _, truth = spotvol.synthesize(spec)
    frame = spotvol.ExogenousFrame.from_daily(truth.daily_prices,
                                              truth.daily_temps)
    return truth.daily_prices.window(1, n_days + 1), frame


def _cv_sampler(size, serial: bool) -> SamplerConfig:
    return SamplerConfig(n_chains=2, warmup=500, draws=500,
                         leapfrog_steps=size["cv_steps"],
                         max_workers=1 if serial else None)


def _failure(attempted: int, what: str) -> Outcome:
    traceback.print_exc()
    return Outcome(attempted=attempted, failed=attempted,
                   problems=[f"{what} raised"])


# -- fit ----------------------------------------------------------------------

def fit_inputs(seed: int, size: dict) -> dict:
    data_seed, fit_seed, fc_seed = _seeds(seed, 3)
    spec = spotvol.SynthSpec(n_days=size["fit_T"], mean_price=1000.0,
                             seed=data_seed, **FIT_TRUTH)
    _, _, truth = spotvol.synthesize(spec)
    cfg = SamplerConfig(leapfrog_steps=size["fit_steps"], warmup=200,
                        draws=500)
    return {"y": truth.daily_prices, "cfg": cfg, "fit_seed": fit_seed,
            "fc_seed": fc_seed,
            "models": lambda: [spotvol.BaselineSvModel(truth.daily_prices)]}


def fit_op(inp: dict, span, serial: bool = False) -> Outcome:
    cfg = replace(inp["cfg"], max_workers=1) if serial else inp["cfg"]
    try:
        fit = spotvol.sample(spotvol.BaselineSvModel(inp["y"]), cfg,
                             inp["fit_seed"])
        fc = spotvol.forecast(fit, 7, mode=spotvol.PpdMode.FULL_POSTERIOR,
                              seed=inp["fc_seed"])
        vol = spotvol.volatility_path(fit)
    except Exception:
        return _failure(1, "fit")
    out = Outcome(attempted=1, fingerprint=_digest(fit.draws, fc.draws))
    T = len(inp["y"])
    if fit.draws.shape != (cfg.n_chains * cfg.draws, 3 + T):
        out.problems.append(f"draws have shape {fit.draws.shape}")
    if not (np.isfinite(fit.draws).all() and np.isfinite(fc.draws).all()
            and all(np.isfinite(v).all() and v.shape == (T,) for v in vol)):
        out.problems.append("non-finite or misshapen draws, forecast or path")
    for name, truth in FIT_TRUTH.items():
        s = fit.summary[name]
        # posterior mean within 4 posterior sd (and 0.1 absolute slack)
        if abs(s["mean"] - truth) > 4.0 * s["sd"] + 0.1:
            out.problems.append(
                f"{name} mean {s['mean']:.3f} sd {s['sd']:.3f} vs {truth}")
    out.failed = int(bool(out.problems))
    return out


# -- cv -----------------------------------------------------------------------

def cv_inputs(seed: int, size: dict) -> dict:
    data_seed, cv_seed = _seeds(seed, 2)
    n_days = size["cv_T"] + size["cv_folds"] * size["cv_test"]
    y, frame = _criterion10_data(n_days, data_seed)
    combos = [spotvol.CvCombination(family, hour=14, zone=1, series=y,
                                    exog=frame)
              for family in ("baseline", "svx")]
    plan = spotvol.build_folds(n_days, size["cv_T"], size["cv_test"])
    train = y.window(0, size["cv_T"])
    return {"combos": combos, "plan": plan, "seed": cv_seed, "size": size,
            "models": lambda: [
                spotvol.BaselineSvModel(train),
                spotvol.SvxModel(train, frame.window(0, size["cv_T"]))]}


def cv_op(inp: dict, span, serial: bool = False) -> Outcome:
    combos, plan = inp["combos"], inp["plan"]
    attempted = len(combos) * len(plan)
    cfg = spotvol.BacktestConfig(sampler=_cv_sampler(inp["size"], serial),
                                 max_workers=1 if serial else None)
    try:
        summary = spotvol.cross_validate(combos, plan, cfg, inp["seed"])
    except Exception:
        return _failure(attempted, "cross_validate")
    failed = sum(len(f) for f in summary.failures.values())
    out = Outcome(attempted=attempted, failed=failed)
    for mid, fails in summary.failures.items():
        out.problems += [f"{mid} fold {fi}: {msg}" for fi, msg in fails]
    pooled = {fam: [r.mae for c in combos if c.family == fam
                    for r in summary.reports[c.model_id]]
              for fam in ("baseline", "svx")}
    if not (pooled["svx"] and pooled["baseline"]
            and np.mean(pooled["svx"]) < np.mean(pooled["baseline"])):
        out.problems.append(f"pooled svx MAE not below baseline: {pooled}")
    out.fingerprint = _digest(np.array(pooled["baseline"] + pooled["svx"]))
    return out


# -- rolling ------------------------------------------------------------------

def rolling_inputs(seed: int, size: dict) -> dict:
    data_seed, roll_seed = _seeds(seed, 2)
    T, days = size["roll_T"], size["roll_days"]
    y, frame = _criterion10_data(T + days, data_seed)
    combo = spotvol.CvCombination("svx", hour=14, zone=1, series=y,
                                  exog=frame)
    return {"combo": combo, "days": days, "seed": roll_seed, "size": size,
            "first": (str(y.dates[0]), str(y.dates[T - 1])),
            "models": lambda: [spotvol.SvxModel(y.window(0, T),
                                                frame.window(0, T))]}


def rolling_op(inp: dict, span, serial: bool = False) -> Outcome:
    days = inp["days"]
    cfg = spotvol.BacktestConfig(sampler=_cv_sampler(inp["size"], serial))
    try:
        res = spotvol.rolling_forecast(inp["combo"], inp["first"], days, cfg,
                                       inp["seed"])
    except Exception:
        return _failure(days, "rolling_forecast")
    out = Outcome(attempted=days, fingerprint=_digest(res.forecast.draws))
    fc = res.forecast
    if fc.draws.shape[1] != days or not np.isfinite(fc.draws).all():
        out.problems.append("forecasts are not finite, one per day")
    dates = inp["combo"].series.dates
    T = inp["size"]["roll_T"]
    want = [(dates[j], dates[j + T - 1]) for j in range(days)]
    if [tuple(r) for r in res.train_ranges] != want:
        out.problems.append("training windows do not advance one day a refit")
    out.failed = days if out.problems else 0
    return out


# -- cli ----------------------------------------------------------------------

def cli_inputs(seed: int, size: dict, workdir: Path) -> dict:
    (cli_seed,) = _seeds(seed, 1)
    out = workdir / "run"
    cfg = {
        "seed": cli_seed,
        "output_dir": str(out),
        "zone": 1, "hour": 14, "model": "svx",
        "data": {"prices": {1: str(out / "prices.csv")},
                 "weather": {1: str(out / "weather.csv")}},
        "sampler": {"chains": 2, "warmup": 200, "draws": 500,
                    "leapfrog_steps": size["cli_steps"]},
        "fit": {"train_days": size["cli_train"]},
        "forecast": {"horizon": 7, "mode": "full"},
        "synth": {"mu": -1.0, "phi": 0.9, "sigma": 0.3,
                  "n_days": size["cli_days"], "mean_price": 1000.0,
                  "start_date": "2015-01-01", "hourly_amp_price": 40.0,
                  "hourly_amp_temp": 2.0, "svx": vars(SVX)},
    }
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return {"config": path, "out": out,
            "models": lambda: [spotvol.SvxModel(
                *_criterion10_data(size["cli_train"], cli_seed))]}


def cli_op(inp: dict, span, serial: bool = False) -> Outcome:
    cfg, out = str(inp["config"]), inp["out"]
    fit_json = str(out / "fit.json")
    commands = [
        ("synth", ["synth", "-c", cfg]),
        ("fit", ["fit", "-c", cfg]),
        ("forecast", ["forecast", "-c", cfg, "--fit", fit_json]),
        ("diagnose", ["diagnose", "-c", cfg, "--fit", fit_json]),
        ("report", ["report", "--run-dir", str(out)]),
        ("replay", ["forecast", "--from-manifest",
                    str(out / "forecast_manifest.json")]),
    ]
    result = Outcome(attempted=len(commands))
    digests = {}
    for name, argv in commands:
        if name == "replay":
            digests = _file_digests(out, ("forecast.csv", "forecast.json"))
        try:
            with span(f"cli.{name}"), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        if rc not in (0, 2):  # 2: ok, with a convergence warning
            result.failed += 1
            result.problems.append(f"{name} exited {rc}")
    if digests != _file_digests(out, ("forecast.csv", "forecast.json")):
        result.failed += 1
        result.problems.append("forecast replay is not byte-identical")
    for f in ("fit.json", "forecast.csv", "diagnostics.json", "report.md"):
        if not (out / f).is_file():
            result.problems.append(f"{f} was not written")
    if (out / "fit.json").is_file():
        result.fit_json_bytes = (out / "fit.json").stat().st_size
        result.fingerprint = _file_digests(out, ("fit.json",))["fit.json"]
    return result


def _file_digests(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).digest()
            for n in names if (out / n).is_file()}


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.digest()


WORKLOADS = {
    "fit": (fit_inputs, fit_op),
    "cv": (cv_inputs, cv_op),
    "rolling": (rolling_inputs, rolling_op),
    "cli": (cli_inputs, cli_op),
}


def kernel_shape_bytes(model) -> int:
    """Computed bytes one logp_grad call must move: it reads theta, y and
    the design matrix and writes the gradient (8-byte floats)."""
    return 8 * (2 * model.dim + model.y.size + model.design.size)


def grad_us(model, calls: int = 100, repeats: int = 7) -> float:
    """Median µs per ``model.logp_grad`` at a starting position."""
    theta = model.initial_position(np.random.default_rng(0))
    model.logp_grad(theta)
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            model.logp_grad(theta)
        per_call.append((time.perf_counter() - t0) / calls * 1e6)
    return float(np.median(per_call))

