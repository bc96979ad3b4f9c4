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

from .errors import HorizonZero, MissingExogenous, ModeUnsupported
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


def _coef_draws(fit: PosteriorFit) -> np.ndarray:
    return np.column_stack([fit.column(n) for n in COEF_NAMES])


def ppd_insample(fit: PosteriorFit, model, n_draws: int = 1000,
                 mode: PpdMode = PpdMode.POINT_ESTIMATE, seed: int = 0) -> ForecastSet:
    """Sample the in-sample predictive distribution over the training days."""
    _check_fit(fit)
    if n_draws < 100:
        raise ValueError("n_draws must be >= 100")
    mode = PpdMode(mode)
    idx_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    z = np.random.default_rng(noise_seq).standard_normal((n_draws, model.T))

    h_all = fit.h_draws()
    is_svx = model.kind == "svx"
    if mode is PpdMode.FULL_POSTERIOR:
        idx = np.random.default_rng(idx_seq).integers(0, len(fit.draws), n_draws)
        h = h_all[idx]                                   # (n_draws, T)
        coeffs = _coef_draws(fit)[idx] if is_svx else None
        m = mean_values(model.ybar, model.design, coeffs)
        m = m.T if is_svx else m                         # (n_draws, T) | scalar
    else:
        h = h_all.mean(axis=0)[None, :]                  # (1, T)
        coeffs = _coef_draws(fit).mean(axis=0) if is_svx else None
        m = mean_values(model.ybar, model.design, coeffs)  # (T,) | scalar

    vols = np.exp(h / 2.0)
    draws = m + vols * z
    dates = model.dates if getattr(model, "dates", None) is not None else None
    return ForecastSet.from_draws(draws, np.broadcast_to(vols, draws.shape),
                                  mode, None, dates)


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
    mode = PpdMode(mode)
    vol_mode = VolMode(vol_mode)
    ts = fit.train_summary
    family = fit.model_family or ts.get("family", "baseline")
    ybar = float(ts["ybar"])

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

    h_all = fit.h_draws()
    if mode is PpdMode.FULL_POSTERIOR:
        idx = np.random.default_rng(idx_seq).integers(0, len(fit.draws), n_draws)
        mu = fit.column("mu")[idx]
        phi = fit.column("phi")[idx]
        sigma = fit.column("sigma")[idx]
        h_last = h_all[idx, -1]
        coeffs = _coef_draws(fit)[idx] if family == "svx" else None
    else:
        mu = np.full(n_draws, fit.column("mu").mean())
        phi = np.full(n_draws, fit.column("phi").mean())
        sigma = np.full(n_draws, fit.column("sigma").mean())
        h_last = np.full(n_draws, h_all[:, -1].mean())
        coeffs = (_coef_draws(fit).mean(axis=0) if family == "svx" else None)

    if vol_mode is VolMode.PROPAGATE:
        delta = np.random.default_rng(shock_seq).standard_normal((n_draws, horizon))

    draws = np.empty((n_draws, horizon))
    vols = np.empty((n_draws, horizon))
    h_prev = h_last
    for k in range(horizon):
        if vol_mode is VolMode.PROPAGATE:
            h_k = mu + phi * (h_prev - mu) + sigma * delta[:, k]
            h_prev = h_k
        else:
            h_k = h_last
        if family == "svx":
            if coeffs.ndim == 1:
                m_k = ybar + z_future[k] @ coeffs[:-1] + coeffs[-1]
            else:
                m_k = ybar + coeffs[:, :-1] @ z_future[k] + coeffs[:, -1]
        else:
            m_k = ybar
        vols[:, k] = np.exp(h_k / 2.0)
        draws[:, k] = m_k + vols[:, k] * z[:, k]

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
