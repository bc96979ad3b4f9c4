"""Posterior predictive distributions and multi-step forecasts.

Two modes mirror the two ways of evaluating the predictive integral:
FULL_POSTERIOR pairs every predictive draw with a distinct posterior draw;
POINT_ESTIMATE fixes the parameters at their posterior means and only
samples observation noise. The observation-noise stream is independent of
the draw-index stream, so both modes consume identical noise for the same
seed.

Volatility beyond the training window either holds the last learned value
(HOLD) or runs the AR(1) recursion forward with fresh shocks (PROPAGATE).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import HorizonZero, MissingExogenous, ModeUnsupported, TooFewDraws
from .ingest import write_csv, write_json
from .models import COEF_NAMES, Standardizer, mean_values
from .posterior import PosteriorFit
from .series import ExogenousFrame


class PpdMode(str, Enum):
    FULL_POSTERIOR = "full"
    POINT_ESTIMATE = "point"


class VolMode(str, Enum):
    HOLD = "hold"
    PROPAGATE = "propagate"


@dataclass(frozen=True)
class ForecastSet:
    """Matrix of predictive draws with per-day summaries."""

    draws: np.ndarray      # (n_draws, horizon)
    mean: np.ndarray       # exact column means of draws
    ci_low: np.ndarray     # 2.5 percentile
    ci_high: np.ndarray    # 97.5 percentile
    vol_mean: np.ndarray   # summaries of exp(h/2)
    vol_low: np.ndarray
    vol_high: np.ndarray
    mode: PpdMode
    vol_mode: VolMode | None = None
    dates: np.ndarray | None = None
    vol_draws: np.ndarray | None = None  # per-draw exp(h/2), same shape as draws

    @property
    def horizon(self) -> int:
        return self.draws.shape[1]

    def to_csv(self, path) -> None:
        columns = (self.mean, self.ci_low, self.ci_high,
                   self.vol_mean, self.vol_low, self.vol_high)
        write_csv(path, ["date", "mean", "ci_low", "ci_high",
                         "vol_mean", "vol_low", "vol_high"],
                  ([str(self.dates[t]) if self.dates is not None else str(t)]
                   + [repr(float(v[t])) for v in columns]
                   for t in range(self.horizon)))

    def to_json_dict(self) -> dict:
        d = {
            "mode": self.mode.value,
            "vol_mode": self.vol_mode.value if self.vol_mode else None,
            "mean": self.mean.tolist(),
            "ci_low": self.ci_low.tolist(),
            "ci_high": self.ci_high.tolist(),
            "vol_mean": self.vol_mean.tolist(),
            "vol_low": self.vol_low.tolist(),
            "vol_high": self.vol_high.tolist(),
        }
        if self.dates is not None:
            d["dates"] = [str(x) for x in self.dates]
        return d

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def from_draws(cls, draws, vols, mode, vol_mode=None,
                   dates=None) -> "ForecastSet":
        """Summarize predictive draws and their per-draw volatilities."""
        lo, hi = np.percentile(draws, [2.5, 97.5], axis=0)
        vlo, vhi = np.percentile(vols, [2.5, 97.5], axis=0)
        return cls(
            draws=draws,
            mean=draws.mean(axis=0),
            ci_low=lo,
            ci_high=hi,
            vol_mean=vols.mean(axis=0),
            vol_low=vlo,
            vol_high=vhi,
            mode=mode,
            vol_mode=vol_mode,
            dates=dates,
            vol_draws=np.asarray(vols),
        )


def _check_fit(fit: PosteriorFit):
    if fit.draws is None or len(fit.draws) == 0:
        raise ModeUnsupported("fit carries no posterior draws")


def _conditioning(fit: PosteriorFit, mode: PpdMode, n_draws: int,
                  idx_seq, names) -> np.ndarray:
    """The named columns of the posterior rows the predictive draws
    condition on: `n_draws` rows drawn with replacement (index stream
    `idx_seq`) under FULL_POSTERIOR, one row of column means under
    POINT_ESTIMATE."""
    where = {n: j for j, n in enumerate(fit.param_names)}
    cols = [where[n] for n in names]
    if mode is PpdMode.FULL_POSTERIOR:
        idx = np.random.default_rng(idx_seq).integers(0, len(fit.draws), n_draws)
        return fit.draws[np.ix_(idx, cols)]
    return fit.draws[:, cols].mean(axis=0, keepdims=True)


def ppd_insample(fit: PosteriorFit, model, n_draws: int = 1000,
                 mode: PpdMode = PpdMode.POINT_ESTIMATE, seed: int = 0) -> ForecastSet:
    """Sample the in-sample predictive distribution over the training days."""
    _check_fit(fit)
    if n_draws < 100:
        raise TooFewDraws("n_draws must be >= 100")
    mode = PpdMode(mode)
    idx_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    z = np.random.default_rng(noise_seq).standard_normal((n_draws, model.T))

    k = len(COEF_NAMES) if model.kind == "svx" else 0
    rows = _conditioning(fit, mode, n_draws, idx_seq,
                         COEF_NAMES[:k] + model.param_names[-model.T:])
    m = mean_values(model.ybar, model.design, rows[:, :k] if k else None)
    vols = np.exp(rows[:, k:] / 2.0)
    draws = m + vols * z
    return ForecastSet.from_draws(draws, np.broadcast_to(vols, draws.shape),
                                  mode, None, model.dates)


def forecast(fit: PosteriorFit, horizon: int, n_draws: int = 1000,
             mode: PpdMode = PpdMode.POINT_ESTIMATE,
             vol_mode: VolMode = VolMode.PROPAGATE,
             exog_future: ExogenousFrame | None = None,
             seed: int = 0) -> ForecastSet:
    """Forecast `horizon` days past the training window.

    The exogenous family needs `exog_future` with exactly `horizon` rows of
    actual lagged regressors (always observable in day-ahead operation).
    """
    _check_fit(fit)
    if horizon < 1:
        raise HorizonZero("horizon must be >= 1")
    if n_draws < 1:
        raise TooFewDraws("n_draws must be >= 1")
    mode = PpdMode(mode)
    vol_mode = VolMode(vol_mode)
    ts = fit.train_summary
    family = fit.model_family or ts.get("family", "baseline")

    z_future = None
    if family == "svx":
        if exog_future is None:
            raise MissingExogenous("svx forecasting requires exog_future")
        if len(exog_future) != horizon:
            raise MissingExogenous(
                f"exog_future has {len(exog_future)} rows, horizon is {horizon}")
        std = Standardizer.from_dict(ts["standardizer"])
        z_future = std.transform(exog_future.matrix())   # (horizon, 5)

    idx_seq, shock_seq, noise_seq = np.random.SeedSequence(seed).spawn(3)
    z = np.random.default_rng(noise_seq).standard_normal((n_draws, horizon))

    k = len(COEF_NAMES) if family == "svx" else 0
    rows = _conditioning(fit, mode, n_draws, idx_seq,
                         COEF_NAMES[:k] + ("mu", "phi", "sigma",
                                           f"h[{ts['n_obs'] - 1}]"))
    m = mean_values(float(ts["ybar"]), z_future, rows[:, :k] if k else None)
    mu, phi, sigma, h = rows[:, k:].T

    if vol_mode is VolMode.PROPAGATE:
        delta = np.random.default_rng(shock_seq).standard_normal((n_draws, horizon))
    vols = np.empty((n_draws, horizon))
    for j in range(horizon):
        if vol_mode is VolMode.PROPAGATE:
            h = mu + phi * (h - mu) + sigma * delta[:, j]
        vols[:, j] = np.exp(h / 2.0)
    draws = vols * z
    draws += m

    dates = None
    if "last_date" in ts:
        d0 = np.datetime64(ts["last_date"], "D")
        dates = d0 + np.arange(1, horizon + 1)
    return ForecastSet.from_draws(draws, vols, mode, vol_mode, dates)


def volatility_path(fit: PosteriorFit):
    """Learned volatility exp(h/2) over the training days.

    Returns (mean, ci_low, ci_high) vectors summarized across draws.
    """
    _check_fit(fit)
    vols = np.exp(fit.h_draws() / 2.0)
    lo, hi = np.percentile(vols, [2.5, 97.5], axis=0)
    return vols.mean(axis=0), lo, hi
