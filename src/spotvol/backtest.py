"""Evaluation protocol: point metrics, sliding-window cross-validation and
rolling one-day-ahead forecasting, with a rank-sum comparison of the two
model families.

Every CV fold and rolling refit is an independent fit with its own RNG
substreams. The fits of one combination (its folds, or the refits of one
rolling run: one model kind and one training length) run in lockstep
groups through ``hmc.sample_fits``, every chain of a group a row of one
kernel call per leapfrog step, because most of a step at these sizes is
the fixed cost of its numpy calls. A fit's draws do not depend on its
group, so each fold equals a direct ``sample`` and ``forecast`` on its
window. A fold that fails, whether with a spotvol error or a numeric
one, is recorded and the run goes on (a full grid is 8 combinations x 36
folds of MCMC fits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HorizonZero,
    InsufficientFutureData,
    LengthMismatch,
    SpotvolError,
)
from .hmc import SamplerConfig, sample_fits
from .models import BaselineSvModel, build_model
from .predictive import ForecastSet, PpdMode, VolMode, forecast
from .series import ExogenousFrame, FoldPlan, PriceSeries
from .stats import mwu_test


def _errors(actual, predicted) -> np.ndarray:
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1 or len(actual) == 0:
        raise LengthMismatch("need equal-length nonempty vectors")
    return actual - predicted


def mae(actual, predicted) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(_errors(actual, predicted))))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    return float(math.sqrt(np.mean(_errors(actual, predicted) ** 2)))


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    n: int
    model_id: str = ""
    hour: int | None = None
    zone: int | None = None
    fold_id: int | None = None
    # convergence of the fit behind a fold's forecast
    max_rhat: float | None = None
    min_ess: float | None = None
    divergences: int | None = None

    def __post_init__(self):
        if self.mae < 0 or self.rmse < 0:
            raise ValueError("metrics must be nonnegative")


@dataclass(frozen=True)
class CvCombination:
    """One model-family x hour x zone cell of prices and their lag frame."""

    family: str                       # "baseline" | "svx"
    hour: int
    zone: int
    series: PriceSeries
    exog: ExogenousFrame | None = None

    def __post_init__(self):
        if self.family not in ("baseline", "svx"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "svx":
            if self.exog is None:
                raise ValueError("svx combination needs an exogenous frame")
            if not np.array_equal(self.series.dates, self.exog.dates):
                raise ValueError("series and frame must share dates")

    @property
    def model_id(self) -> str:
        return f"{self.family}-h{self.hour}-z{self.zone}"

    def model(self, lo: int, hi: int) -> BaselineSvModel:
        """The family's model on days lo..hi (inclusive)."""
        exog = self.exog.window(lo, hi + 1) if self.family == "svx" else None
        return build_model(self.family, self.series.window(lo, hi + 1), exog)

    def future_exog(self, hi: int, horizon: int) -> ExogenousFrame | None:
        """Regressor rows of the `horizon` days after day hi; None for the
        baseline family."""
        if self.family == "svx":
            return self.exog.window(hi + 1, hi + 1 + horizon)
        return None


@dataclass
class CvSummary:
    reports: dict                     # model_id -> list[MetricReport]
    failures: dict                    # model_id -> list[(fold_id, message)]
    aggregates: dict                  # model_id -> {"mae", "rmse", "n_folds"}
    mwu: dict = field(default_factory=dict)  # metric -> comparison dict | None
    n_folds: int = 0

    def to_json_dict(self) -> dict:
        return {
            "n_folds": self.n_folds,
            "reports": {
                mid: [vars(r) for r in reps]
                for mid, reps in sorted(self.reports.items())
            },
            "failures": {m: list(f) for m, f in sorted(self.failures.items())},
            "aggregates": dict(sorted(self.aggregates.items())),
            "mwu": self.mwu,
        }


@dataclass
class BacktestConfig:
    """Sampler and forecast settings of every fold fit; ``max_workers`` is
    accepted and ignored (fold fits run in lockstep in one thread) so that
    existing configs keep loading."""

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    n_draws: int = 1000
    mode: PpdMode = PpdMode.POINT_ESTIMATE
    vol_mode: VolMode = VolMode.PROPAGATE
    max_workers: int | None = None

    def __post_init__(self):
        self.mode = PpdMode(self.mode)
        self.vol_mode = VolMode(self.vol_mode)


# errors that fail one fold but not the grid; ValueError covers
# np.linalg.LinAlgError, ArithmeticError covers FloatingPointError
_FOLD_ERRORS = (SpotvolError, ArithmeticError, ValueError)

# the most chains (rows) of one lockstep group, and the most rows x days:
# together they bound the kept draws held at once. A row's step cost stops
# falling by about 16 rows at T=360, and by 2 at T=3500 (the B-scan in
# BENCH_18.json), so a long series runs one fit per group at little loss.
_MAX_ROWS = 16
_MAX_ROW_DAYS = 16 * 360


def _seed_pairs(seed: int, n: int) -> list:
    """`n` (fit seed, forecast seed) pairs, each from its own substream."""
    ss = np.random.SeedSequence(seed).spawn(2 * n)
    return [(int(ss[2 * i].generate_state(1)[0]),
             int(ss[2 * i + 1].generate_state(1)[0])) for i in range(n)]


def _attempt(fn, *args):
    """fn(*args), or the _FOLD_ERRORS exception it raised."""
    try:
        return fn(*args)
    except _FOLD_ERRORS as exc:
        return exc


def _forecast(combo: CvCombination, fit, hi: int, horizon: int,
              cfg: BacktestConfig, seed: int) -> tuple:
    """The fit's forecast of the `horizon` days after day hi, and the
    fit's convergence figures."""
    fc = forecast(fit, horizon, n_draws=cfg.n_draws, mode=cfg.mode,
                  vol_mode=cfg.vol_mode,
                  exog_future=combo.future_exog(hi, horizon), seed=seed)
    diag = fit.diagnostics
    return fc, {"max_rhat": diag["max_rhat"],
                "min_ess": min(diag["ess"].values(), default=None),
                "divergences": diag["divergences"]}


def _fit_forecasts(combo: CvCombination, windows: list, cfg: BacktestConfig,
                   seed_pairs: list):
    """Fit the combination's family on each (lo, hi, horizon) window, days
    lo..hi inclusive, with its (fit seed, forecast seed) pair, and forecast
    the `horizon` days after hi.

    The fits run in lockstep groups of at most ``_MAX_ROWS`` chains and
    ``_MAX_ROW_DAYS`` chain-days, and at least one fit.
    Yields per window, in order, (ForecastSet, convergence figures) or the
    _FOLD_ERRORS exception that failed it.
    """
    # an invalid sampler fails the run, not each fit, and would not size
    # the groups
    cfg.sampler.validate()
    days = max((hi - lo + 1 for lo, hi, _ in windows), default=1)
    rows = min(_MAX_ROWS, _MAX_ROW_DAYS // days)
    size = max(1, rows // cfg.sampler.n_chains)
    for g in range(0, len(windows), size):
        group = list(zip(windows[g:g + size], seed_pairs[g:g + size]))
        models = [_attempt(combo.model, lo, hi) for (lo, hi, _), _ in group]
        built = [i for i, m in enumerate(models)
                 if not isinstance(m, Exception)]
        fits = dict(zip(built, sample_fits(
            [models[i] for i in built], cfg.sampler,
            [group[i][1][0] for i in built], _FOLD_ERRORS))) if built else {}
        for i, ((_, hi, horizon), (_, fc_seed)) in enumerate(group):
            fit = fits.pop(i, models[i])
            yield fit if isinstance(fit, Exception) else _attempt(
                _forecast, combo, fit, hi, horizon, cfg, fc_seed)


def _report(combo: CvCombination, start: int, mean,
            fold_id: int | None = None, stats: dict | None = None
            ) -> MetricReport:
    """Score forecast means against the days from `start` on."""
    actual = combo.series.values[start:start + len(mean)]
    return MetricReport(mae=mae(actual, mean), rmse=rmse(actual, mean),
                        n=len(mean), model_id=combo.model_id, hour=combo.hour,
                        zone=combo.zone, fold_id=fold_id, **(stats or {}))


def cross_validate(combos: list, plan: FoldPlan, cfg: BacktestConfig,
                   seed: int) -> CvSummary:
    """Fit and score every combination on every sliding fold.

    Fold failures are recorded under the combination and skipped in the
    aggregates; the run continues. The pooled MAE and RMSE distributions
    of the two families are compared with a one-tailed rank-sum test of
    "baseline shifted right (worse)".
    """
    for combo in combos:
        if len(combo.series) < plan.folds[-1][3] + 1:
            raise SpotvolError(
                f"{combo.model_id}: series shorter than the fold plan span")

    pairs = _seed_pairs(seed, len(combos) * len(plan))
    reports = {c.model_id: [] for c in combos}
    failures = {c.model_id: [] for c in combos}
    for ci, combo in enumerate(combos):
        outcomes, folds = {}, []
        for fi, (a, b, c, d) in enumerate(plan.folds):
            if c == b + 1:
                folds.append((fi, (a, b, d - c + 1)))
            else:
                outcomes[fi] = SpotvolError(
                    f"test window starts on day {c}, not the day after the "
                    f"train window ends ({b})")
        results = _fit_forecasts(
            combo, [window for _, window in folds], cfg,
            [pairs[ci * len(plan) + fi] for fi, _ in folds])
        for (fi, (_, hi, _)), out in zip(folds, results):
            # only the means outlive the fold, so no fold's draws reach
            # the next group's peak memory
            outcomes[fi] = out if isinstance(out, Exception) else _attempt(
                _report, combo, hi + 1, out[0].mean, fi, out[1])
        for fi, out in sorted(outcomes.items()):
            if isinstance(out, Exception):
                failures[combo.model_id].append(
                    (fi, f"{type(out).__name__}: {out}"))
            else:
                reports[combo.model_id].append(out)

    aggregates = {
        mid: {"mae": float(np.mean([r.mae for r in reps])) if reps else None,
              "rmse": float(np.mean([r.rmse for r in reps])) if reps else None,
              "n_folds": len(reps)}
        for mid, reps in reports.items()}

    mwu = dict.fromkeys(("mae", "rmse"))
    for metric in mwu:
        base_pool, svx_pool = (
            [getattr(r, metric) for c in combos if c.family == family
             for r in reports[c.model_id]] for family in ("baseline", "svx"))
        if base_pool and svx_pool:
            res = mwu_test(base_pool, svx_pool)
            mwu[metric] = {
                "u_statistic": res.u_statistic,
                "p_value": res.p_value,
                "method": res.method.value,
                "null_mean": res.null_mean,
                "null_sd": res.null_sd,
                "baseline_mean": float(np.mean(base_pool)),
                "svx_mean": float(np.mean(svx_pool)),
            }

    return CvSummary(reports=reports, failures=failures,
                     aggregates=aggregates, mwu=mwu, n_folds=len(plan))


@dataclass
class RollingResult:
    forecast: ForecastSet
    report: MetricReport
    train_ranges: list                # [(start_date, end_date)] per refit
    # the convergence of each refit's fit
    max_rhat: list
    min_ess: list
    divergences: list


def rolling_forecast(combo: CvCombination, first_train: tuple,
                     horizon_days: int, cfg: BacktestConfig,
                     seed: int) -> RollingResult:
    """Day-ahead loop: fit on the training window, predict one day, slide
    the window forward one day; repeat `horizon_days` times. The refits
    run in lockstep groups; the first that fails raises its error.

    `first_train` is an inclusive (start, end) date pair resolved against
    the combination's series; the series must extend `horizon_days` past
    its end.
    """
    if horizon_days < 1:
        raise HorizonZero(f"horizon_days must be >= 1, got {horizon_days}")
    dates = combo.series.dates
    span = combo.series.locate(*first_train)
    if span is None:
        raise SpotvolError("first_train range not covered by the series")
    a, b = span
    if b + horizon_days >= len(dates):
        raise InsufficientFutureData(
            f"series ends {dates[-1]}, need {horizon_days} days past {dates[b]}")

    refits = list(_fit_forecasts(
        combo, [(a + j, b + j, 1) for j in range(horizon_days)], cfg,
        _seed_pairs(seed, horizon_days)))
    for out in refits:
        if isinstance(out, Exception):
            raise out
    fcs, stats = zip(*refits)
    fcset = ForecastSet.from_draws(
        np.column_stack([fc.draws[:, 0] for fc in fcs]),
        np.column_stack([fc.vol_draws[:, 0] for fc in fcs]),
        cfg.mode, cfg.vol_mode, dates[b + 1: b + 1 + horizon_days])
    return RollingResult(
        forecast=fcset, report=_report(combo, b + 1, fcset.mean),
        train_ranges=[(dates[a + j], dates[b + j])
                      for j in range(horizon_days)],
        max_rhat=[st["max_rhat"] for st in stats],
        min_ess=[st["min_ess"] for st in stats],
        divergences=[st["divergences"] for st in stats])
