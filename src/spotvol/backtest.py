"""Evaluation protocol: point metrics, sliding-window cross-validation and
rolling one-day-ahead forecasting, with a rank-sum comparison of the two
model families.

Fold tasks are independent and run one after another, each with its own
RNG substreams, so a fold's result does not depend on the others. A fold
that fails, whether with a spotvol error or a numeric one, is recorded
and the run goes on (a full grid is 8 combinations x 36 folds of MCMC
fits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientFutureData, LengthMismatch, SpotvolError
from .hmc import SamplerConfig, sample
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
    max_rhat: float | None = None     # of the fit behind a fold's forecast

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
    accepted and ignored (folds run serially) so that existing configs keep
    loading."""

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


def _seed_pairs(seed: int, n: int) -> list:
    """`n` (fit seed, forecast seed) pairs, each from its own substream."""
    ss = np.random.SeedSequence(seed).spawn(2 * n)
    return [(int(ss[2 * i].generate_state(1)[0]),
             int(ss[2 * i + 1].generate_state(1)[0])) for i in range(n)]


def _fit_forecast(combo: CvCombination, lo: int, hi: int, horizon: int,
                  cfg: BacktestConfig, fit_seed: int,
                  fc_seed: int) -> tuple:
    """Fit the combination's family on days lo..hi (inclusive) and forecast
    the `horizon` days after hi; returns the ForecastSet and the fit's max
    R-hat."""
    fit = sample(combo.model(lo, hi), cfg.sampler, fit_seed)
    fc = forecast(fit, horizon, n_draws=cfg.n_draws, mode=cfg.mode,
                  vol_mode=cfg.vol_mode,
                  exog_future=combo.future_exog(hi, horizon), seed=fc_seed)
    return fc, fit.diagnostics["max_rhat"]


def _report(combo: CvCombination, start: int, mean,
            fold_id: int | None = None,
            max_rhat: float | None = None) -> MetricReport:
    """Score forecast means against the days from `start` on."""
    actual = combo.series.values[start:start + len(mean)]
    return MetricReport(mae=mae(actual, mean), rmse=rmse(actual, mean),
                        n=len(mean), model_id=combo.model_id, hour=combo.hour,
                        zone=combo.zone, fold_id=fold_id, max_rhat=max_rhat)


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

    tasks = [(combo, fi) for combo in combos for fi in range(len(plan))]
    reports = {c.model_id: [] for c in combos}
    failures = {c.model_id: [] for c in combos}
    for (combo, fi), (fit_seed, fc_seed) in zip(
            tasks, _seed_pairs(seed, len(tasks))):
        a, b, c, d = plan.folds[fi]
        try:
            if c != b + 1:
                raise SpotvolError(
                    f"test window starts on day {c}, not the day after the "
                    f"train window ends ({b})")
            fc, max_rhat = _fit_forecast(combo, a, b, d - c + 1, cfg,
                                         fit_seed, fc_seed)
            rep = _report(combo, c, fc.mean, fi, max_rhat)
            # only the means outlive the fold, so no fold's draws reach
            # the next fold's peak memory
            del fc
        except _FOLD_ERRORS as exc:
            failures[combo.model_id].append(
                (fi, f"{type(exc).__name__}: {exc}"))
        else:
            reports[combo.model_id].append(rep)

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
    max_rhat: list                    # the max R-hat of each refit's fit


def rolling_forecast(combo: CvCombination, first_train: tuple,
                     horizon_days: int, cfg: BacktestConfig,
                     seed: int) -> RollingResult:
    """Day-ahead loop: fit on the training window, predict one day, slide
    the window forward one day; repeat `horizon_days` times.

    `first_train` is an inclusive (start, end) date pair resolved against
    the combination's series; the series must extend `horizon_days` past
    its end.
    """
    dates = combo.series.dates
    span = combo.series.locate(*first_train)
    if span is None:
        raise SpotvolError("first_train range not covered by the series")
    a, b = span
    if b + horizon_days >= len(dates):
        raise InsufficientFutureData(
            f"series ends {dates[-1]}, need {horizon_days} days past {dates[b]}")

    refits = [_fit_forecast(combo, a + j, b + j, 1, cfg, *seeds)
              for j, seeds in enumerate(_seed_pairs(seed, horizon_days))]
    fcset = ForecastSet.from_draws(
        np.column_stack([fc.draws[:, 0] for fc, _ in refits]),
        np.column_stack([fc.vol_draws[:, 0] for fc, _ in refits]),
        cfg.mode, cfg.vol_mode, dates[b + 1: b + 1 + horizon_days])
    return RollingResult(
        forecast=fcset, report=_report(combo, b + 1, fcset.mean),
        train_ranges=[(dates[a + j], dates[b + j])
                      for j in range(horizon_days)],
        max_rhat=[max_rhat for _, max_rhat in refits])
