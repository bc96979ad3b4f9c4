"""Command-line entry point.

Subcommands: fit, forecast, cv, diagnose, synth, report. All commands are
driven by a declarative config file, write their outputs plus a manifest
into the config's output directory, and are byte-reproducible: re-running
a command from its manifest regenerates identical files.

Exit codes: 0 ok, 1 error, 2 ok with warnings (fit or forecast, R-hat > 1.05).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .backtest import BacktestConfig, CvCombination, cross_validate
from .config import RunConfig, model_family, typed
from .errors import (
    ConfigError,
    IncompatibleFit,
    InsufficientFutureData,
    SpotvolError,
)
from .hmc import RHAT_WARN, sample
from .ingest import (
    export_hourly,
    load_prices,
    load_weather,
    synthesize,
    write_csv,
    write_json,
)
from .interpret import pd_ice, residual_report
from .models import COEF_NAMES, SCALAR_NAMES_BASE, raw_coefficients
from .posterior import PosteriorFit
from .predictive import (
    PpdMode,
    VolMode,
    forecast,
    ppd_insample,
    volatility_path,
)
from .series import ExogenousFrame, Zone, build_folds, hourly_profile, select_hour
from .stats import adf_test, kmeans2, pacf, polyfit_cubic

log = logging.getLogger("spotvol")

SCALAR_PARAMS = SCALAR_NAMES_BASE + COEF_NAMES


def _write_manifest(cfg: RunConfig, command: str, outdir: Path,
                    extra_args: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": cfg.raw,
        "config_sha256": cfg.sha256(),
        "seed": cfg.seed,
        "version": __version__,
    }
    if extra_args:
        manifest["args"] = extra_args
    write_json(outdir / f"{command}_manifest.json", manifest)


def _load(cfg: RunConfig, family: str, hour: int, zone: int,
          weather: bool = False, frames: bool = False):
    """The (family, hour, zone) combination of the configured data, the
    same-day temperatures aligned with its series and the hourly price
    table. svx reads the weather data and builds a lag frame, which starts
    on day 1 like the series beside it; the baseline reads them only under
    `weather` (else temperatures are None) and builds a frame under `frames`.
    """
    prices = load_prices(cfg.data_path("prices", zone))
    series = select_hour(prices, hour, Zone(zone))
    frames = frames or family == "svx"
    frame = temps = None
    if weather or frames:
        temps = select_hour(load_weather(cfg.data_path("weather", zone)), hour)
    if frames:
        frame = ExogenousFrame.from_daily(series, temps)
        series, temps = series.window(1, len(series)), temps.window(1, len(temps))
    return CvCombination(family, hour, zone, series, frame), temps, prices


def _reprs(column):
    """A column's values as float reprs, the way the output CSVs write
    them, converted in one pass."""
    return map(repr, np.asarray(column, dtype=float).tolist())


def _fit_stdout_summary(fit: PosteriorFit) -> str:
    lines = [f"family: {fit.model_family}   chains: {fit.n_chains}   "
             f"kept/chain: {fit.kept_per_chain}"]
    lines.append(f"{'param':8s} {'mean':>12s} {'sd':>12s} {'rhat':>8s}")
    for name in SCALAR_PARAMS:
        if name in fit.summary:
            s = fit.summary[name]
            r = fit.diagnostics["rhat"][name]
            lines.append(f"{name:8s} {s['mean']:12.4f} {s['sd']:12.4f} {r:8.4f}")
    if fit.model_family == "svx":
        lines.append("raw-unit coefficients:")
        for name, stats in raw_coefficients(fit).items():
            lines.append(f"  {name:8s} {stats['mean']:+.6g} "
                         f"(sd {stats['sd']:.3g})")
    lines.append(f"max rhat: {fit.diagnostics['max_rhat']:.4f}   "
                 f"divergences: {fit.diagnostics['divergences']}")
    for w in fit.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def cmd_fit(cfg: RunConfig, outdir: Path, fit_path) -> tuple:
    combo, _, _ = _load(cfg, cfg.model, cfg.hour, cfg.zone)
    n_days = len(combo.series)
    train_days = typed("fit", cfg.section("fit"), "train_days", int, n_days,
                       1, n_days)
    model = combo.model(0, train_days - 1)
    log.info("fitting %s on %d days (hour %d, zone %d)",
             cfg.model, model.T, cfg.hour, cfg.zone)
    fit = sample(model, cfg.sampler_config(), cfg.seed)
    fit.save(outdir / "fit.json")
    print(_fit_stdout_summary(fit))
    return (2 if fit.diagnostics["max_rhat"] > RHAT_WARN else 0), None


def cmd_forecast(cfg: RunConfig, outdir: Path, fit_path) -> tuple:
    fit = PosteriorFit.load(fit_path)
    if fit.model_family != cfg.model:
        raise IncompatibleFit(
            f"fit is {fit.model_family!r} but config requests {cfg.model!r}")
    settings = cfg.forecast_settings()
    horizon = settings["horizon"]

    exog_future = None
    if fit.model_family == "svx":
        combo, _, _ = _load(cfg, "svx", cfg.hour, cfg.zone)
        last = fit.train_summary["last_date"]
        span = combo.series.locate(last, last)
        if span is None or span[1] + horizon >= len(combo.series):
            raise InsufficientFutureData(
                f"data files do not cover the forecast horizon after {last}")
        exog_future = combo.future_exog(span[1], horizon)

    fc = forecast(fit, horizon, n_draws=settings["n_draws"],
                  mode=settings["mode"], vol_mode=settings["vol_mode"],
                  exog_future=exog_future, seed=cfg.seed)
    fc.to_csv(outdir / "forecast.csv")
    write_json(outdir / "forecast.json", {**fc.to_json_dict(),
               "max_rhat": fit.diagnostics["max_rhat"], "warnings": fit.warnings})
    print(f"forecast horizon {horizon} written to {outdir / 'forecast.csv'}")
    for t in range(fc.horizon):
        label = str(fc.dates[t]) if fc.dates is not None else str(t)
        print(f"  {label}: mean {fc.mean[t]:.2f} "
              f"[{fc.ci_low[t]:.2f}, {fc.ci_high[t]:.2f}]")
    for w in fit.warnings:
        print(f"warning: {w}")
    return (2 if fit.diagnostics["max_rhat"] > RHAT_WARN else 0,
            {"fit": str(fit_path)})


def cmd_cv(cfg: RunConfig, outdir: Path, fit_path) -> tuple:
    section = cfg.section("cv")
    value = partial(typed, "cv", section)
    combos_cfg = section.get("combinations")
    if not isinstance(combos_cfg, list) or not combos_cfg:
        raise ConfigError("cv.combinations must list at least one entry")

    has_weather = bool(cfg.get("data", "weather"))
    combos = []
    for i, entry in enumerate(combos_cfg):
        where = f"cv.combinations[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be a mapping, got {entry!r}")
        family = typed(where, entry, "family", model_family, "baseline")
        hour = typed(where, entry, "hour", int, cfg.hour)
        zone = typed(where, entry, "zone", int, cfg.zone)
        # frames for both families, so that both forecast the same days
        combos.append(_load(cfg, family, hour, zone, frames=has_weather)[0])

    total = value("total_days", int, None) or min(len(c.series) for c in combos)
    plan = build_folds(total, value("train_days", int, 360),
                       value("test_days", int, 90))
    bt_cfg = BacktestConfig(
        sampler=cfg.sampler_config(),
        n_draws=value("n_draws", int, 1000, 1),
        mode=value("mode", PpdMode, PpdMode.POINT_ESTIMATE),
        vol_mode=value("vol_mode", VolMode, VolMode.PROPAGATE),
        max_workers=value("max_workers", int, None),
    )
    log.info("cross-validating %d combinations over %d folds",
             len(combos), len(plan))
    summary = cross_validate(combos, plan, bt_cfg, cfg.seed)

    write_json(outdir / "cv_summary.json", summary.to_json_dict())
    write_csv(outdir / "cv_folds.csv",
              ["model_id", "fold_id", "mae", "rmse", "n", "max_rhat",
               "min_ess", "divergences"],
              ([mid, r.fold_id, repr(r.mae), repr(r.rmse), r.n,
                repr(r.max_rhat), repr(r.min_ess), r.divergences]
               for mid in sorted(summary.reports)
               for r in summary.reports[mid]))

    print(f"{len(plan)} folds x {len(combos)} combinations")
    for mid, agg in sorted(summary.aggregates.items()):
        if agg["n_folds"]:
            print(f"  {mid:24s} mae {agg['mae']:10.3f}  rmse {agg['rmse']:10.3f}"
                  f"  folds {agg['n_folds']}")
        else:
            print(f"  {mid:24s} all folds failed")
    for metric, res in summary.mwu.items():
        if res:
            print(f"  mwu[{metric}]: U={res['u_statistic']:.0f} "
                  f"p={res['p_value']:.4f} ({res['method']})")
    return 0, None


def cmd_diagnose(cfg: RunConfig, outdir: Path, fit_path) -> tuple:
    section = cfg.section("diagnose")
    value = partial(typed, "diagnose", section)
    fit_path = fit_path or section.get("fit")
    n_draws = value("n_draws", int, 1000, 100)
    max_lag = value("pacf_max_lag", int, 42, 0)
    grid_size = value("pd_grid_size", int, 25, 1)
    fit = PosteriorFit.load(fit_path) if fit_path else None
    family = fit.model_family if fit else "baseline"
    if family not in ("baseline", "svx"):
        raise IncompatibleFit(f"fit has unknown model family {family!r}")

    # with a fit, its family decides the days; without one, the weather
    # statistics pair the days a lag frame covers, as cv does
    has_weather = bool(cfg.get("data", "weather"))
    combo, temps, prices = _load(cfg, family, cfg.hour, cfg.zone,
                                 weather=has_weather,
                                 frames=has_weather and fit is None)
    y = combo.series.values
    report: dict = {}

    try:  # needs records at every hour; single-hour exports skip it
        report["hourly_profile"] = hourly_profile(prices).tolist()
    except SpotvolError:
        pass

    adf = adf_test(y, max_lags=value("adf_max_lags", int, None))
    report["adf"] = {
        "statistic": adf.statistic, "p_value": adf.p_value,
        "n_lags_used": adf.n_lags_used, "conclusion": adf.conclusion.value,
    }

    pacf_vals = pacf(y, min(max_lag, len(y) // 4 - 1))
    report["pacf"] = pacf_vals.tolist()
    write_csv(outdir / "pacf.csv", ["lag", "pacf"], enumerate(_reprs(pacf_vals)))

    if temps is not None:
        temp = temps.values  # same-day pairing for the correlation analysis
        points = np.column_stack([temp, y])
        km = kmeans2(points, seed=cfg.seed)
        report["kmeans"] = {
            "centroids": km.centroids.tolist(),
            "correlations": list(km.correlations),
            "inertia": km.inertia,
        }
        report["cubic_fit"] = polyfit_cubic(temp, y).tolist()

    if fit:
        ts = fit.train_summary
        span = combo.series.locate(ts.get("first_date"), ts.get("last_date"))
        if span is None:
            raise IncompatibleFit(
                "fit was trained on a window the config data does not cover")
        if ts.get("n_obs") != span[1] - span[0] + 1:
            raise IncompatibleFit(
                "fit was trained on a different window than the config data")
        model = combo.model(*span)
        ppd = ppd_insample(fit, model, n_draws=n_draws, seed=cfg.seed)
        res = residual_report(model.y, ppd.mean)
        report["residuals"] = {
            "r_resid_pred": res.r_resid_pred,
            "r_resid_pred_degenerate": res.r_resid_pred_degenerate,
            "r_pred_actual": res.r_pred_actual,
            "r_pred_actual_degenerate": res.r_pred_actual_degenerate,
        }
        write_csv(outdir / "residuals.csv",
                  ["residual", "qq_theoretical", "qq_sample", "predicted_mean"],
                  zip(*map(_reprs, (res.residuals, res.qq_theoretical,
                                    res.qq_sample, ppd.mean))))
        write_csv(outdir / "volatility.csv",
                  ["date", "vol_mean", "vol_low", "vol_high"],
                  zip(model.dates.astype(str).tolist(),
                      *map(_reprs, volatility_path(fit))))
        if fit.model_family == "svx":
            report["raw_coefficients"] = raw_coefficients(fit)
            for feature in ("temperature", "weekday"):
                curve = pd_ice(fit, model, feature, grid_size=grid_size)
                report[f"pd_{feature}"] = {
                    "grid": curve.grid.tolist(),
                    "pd": curve.pd.tolist(),
                    "feature_independence_r": curve.feature_independence_r,
                }
                write_csv(outdir / f"pd_{feature}.csv", [feature, "pd"],
                          zip(_reprs(curve.grid), _reprs(curve.pd)))

    write_json(outdir / "diagnostics.json", report)
    print(f"adf: stat={adf.statistic:.3f} p={adf.p_value:.4f} "
          f"-> {adf.conclusion.value}")
    print(f"pacf(1) = {pacf_vals[1]:.4f}" if len(pacf_vals) > 1 else "")
    if "kmeans" in report:
        r = report["kmeans"]["correlations"]
        print(f"kmeans clusters r: cool={r[0]:.3f} warm={r[1]:.3f}")
    return 0, {"fit": str(fit_path)} if fit_path else None


def cmd_synth(cfg: RunConfig, outdir: Path, fit_path) -> tuple:
    spec = cfg.synth_spec()
    prices, temps, truth = synthesize(spec)
    export_hourly(prices, outdir / "prices.csv", "price")
    export_hourly(temps, outdir / "weather.csv", "temp_c")
    truth_doc = {
        "spec": {
            "mu": spec.mu, "phi": spec.phi, "sigma": spec.sigma,
            "n_days": spec.n_days, "mean_price": spec.mean_price,
            "seed": spec.seed, "start_date": spec.start_date,
            "hour": spec.hour, "zone": spec.zone,
            "svx": vars(spec.svx) if spec.svx else None,
        },
        "h": truth.h.tolist(),
        "daily_prices": truth.daily_prices.values.tolist(),
        "daily_temps": truth.daily_temps.values.tolist(),
        "dates": [str(d) for d in truth.daily_prices.dates],
    }
    write_json(outdir / "synth_truth.json", truth_doc)
    print(f"synthesized {spec.n_days} days x 24 hours into {outdir}")
    return 0, None


def cmd_report(run_dir) -> int:
    run_dir = Path(run_dir)
    if not run_dir.exists():
        raise ConfigError(f"run directory {run_dir} does not exist")
    lines = ["# Run report", ""]
    fit_file = run_dir / "fit.json"
    if fit_file.exists():
        fit = PosteriorFit.load(fit_file)
        lines += [f"## Fit ({fit.model_family})", "",
                  "| param | mean | sd | rhat |", "| - | - | - | - |"]
        for name in SCALAR_PARAMS:
            if name in fit.summary:
                s = fit.summary[name]
                lines.append(f"| {name} | {s['mean']:.4f} | {s['sd']:.4f} "
                             f"| {fit.diagnostics['rhat'][name]:.4f} |")
        lines += ["", f"max rhat {fit.diagnostics['max_rhat']:.4f}, "
                      f"divergences {fit.diagnostics['divergences']}", ""]
    cv_file = run_dir / "cv_summary.json"
    if cv_file.exists():
        cv = json.loads(cv_file.read_text())
        lines += ["## Cross-validation", "",
                  "| model | mae | rmse | folds |", "| - | - | - | - |"]
        for mid, agg in sorted(cv["aggregates"].items()):
            if agg["n_folds"]:
                lines.append(f"| {mid} | {agg['mae']:.3f} | {agg['rmse']:.3f} "
                             f"| {agg['n_folds']} |")
        for metric, res in (cv.get("mwu") or {}).items():
            if res:
                lines.append(f"- MWU {metric}: U={res['u_statistic']:.0f}, "
                             f"p={res['p_value']:.4f}")
        lines.append("")
    fc_file = run_dir / "forecast.json"
    if fc_file.exists():
        fc = json.loads(fc_file.read_text())
        lines += ["## Forecast", "", "| day | mean | 95% CI |", "| - | - | - |"]
        dates = fc.get("dates") or [str(i) for i in range(len(fc["mean"]))]
        for d, m, lo, hi in zip(dates, fc["mean"], fc["ci_low"], fc["ci_high"]):
            lines.append(f"| {d} | {m:.2f} | [{lo:.2f}, {hi:.2f}] |")
        lines.append("")
    diag_file = run_dir / "diagnostics.json"
    if diag_file.exists():
        diag = json.loads(diag_file.read_text())
        lines += ["## Diagnostics", ""]
        if "adf" in diag:
            a = diag["adf"]
            lines.append(f"- ADF: stat {a['statistic']:.3f}, p {a['p_value']:.4f}"
                         f" -> {a['conclusion']}")
        if "kmeans" in diag:
            r = diag["kmeans"]["correlations"]
            lines.append(f"- price/temperature cluster correlations: "
                         f"{r[0]:.3f}, {r[1]:.3f}")
        lines.append("")
    text = "\n".join(lines)
    (run_dir / "report.md").write_text(text)
    print(text)
    return 0


# every config command: (config, output dir, fit path or None) ->
# (exit code, manifest args or None)
COMMANDS = {"fit": cmd_fit, "forecast": cmd_forecast, "cv": cmd_cv,
            "diagnose": cmd_diagnose, "synth": cmd_synth}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotvol",
        description="Stochastic-volatility forecasting for day-ahead "
                    "electricity spot prices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("-c", "--config", help="path to the run config")
            p.add_argument("--from-manifest",
                           help="re-run from a previously written manifest")
        p.add_argument("-v", "--verbose", action="store_true")
        return p

    add("fit", "fit the configured model and save the posterior")
    p_fc = add("forecast", "forecast past a fitted model's window")
    p_fc.add_argument("--fit", help="path to fit.json", default=None)
    add("cv", "sliding-window cross-validation over model combinations")
    p_diag = add("diagnose", "stationarity, correlation and residual reports")
    p_diag.add_argument("--fit", help="optional fit.json for model-level reports",
                        default=None)
    add("synth", "generate synthetic price/weather CSVs")
    p_rep = add("report", "assemble a markdown report from a run directory",
                needs_config=False)
    p_rep.add_argument("--run-dir", required=True)
    return parser


def _config_from_args(args) -> tuple:
    """Resolve (config, extra) from --config or --from-manifest."""
    manifest_args = {}
    if getattr(args, "from_manifest", None):
        try:
            doc = json.loads(Path(args.from_manifest).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read manifest {args.from_manifest}: "
                              f"{exc}") from None
        if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
            raise ConfigError(
                f"manifest {args.from_manifest} holds no config mapping")
        if doc.get("command") != args.command:
            raise ConfigError(
                f"manifest was written by {doc.get('command')!r}, "
                f"not {args.command!r}")
        manifest_args = doc.get("args") or {}
        return RunConfig.from_dict(doc["config"]), manifest_args
    if not getattr(args, "config", None):
        raise ConfigError("provide --config or --from-manifest")
    return RunConfig.load(args.config), manifest_args


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        cfg, manifest_args = _config_from_args(args)
        fit_path = getattr(args, "fit", None) or manifest_args.get("fit")
        if args.command == "forecast" and not fit_path:
            raise ConfigError("forecast needs --fit (or a manifest with one)")
        outdir = cfg.output_dir
        outdir.mkdir(parents=True, exist_ok=True)
        code, extra = COMMANDS[args.command](cfg, outdir, fit_path)
        _write_manifest(cfg, args.command, outdir, extra)
        return code
    except SpotvolError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
