"""Model interpretation: partial-dependence curves and residual reports.

PD/ICE predictions use the posterior-mean parameters (deterministic), and
temperature substitution rewrites all three power columns together so the
perturbed design stays internally consistent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import FeatureNotInModel, LengthMismatch
from .models import COEF_NAMES, mean_values
from .posterior import PosteriorFit
from .stats import pearson

FEATURES = ("temperature", "weekday")
INDEPENDENCE_WARN = 0.3


@dataclass(frozen=True)
class PdCurve:
    feature: str
    grid: np.ndarray
    ice: np.ndarray                 # (n_obs, len(grid)) predicted means
    pd: np.ndarray                  # column means of ice
    feature_independence_r: float   # Pearson r of temperature vs weekday


def pd_ice(fit: PosteriorFit, model, feature: str, grid_size: int = 25) -> PdCurve:
    """Individual conditional expectations over a feature grid, averaged
    into a partial-dependence curve.

    Every observation's feature column is replaced by each grid value in
    turn while all other columns stay intact; the prediction is the model
    mean at the posterior-mean coefficients.
    """
    if getattr(model, "kind", None) != "svx":
        raise FeatureNotInModel("partial dependence needs an exogenous fit")
    if feature not in FEATURES:
        raise FeatureNotInModel(f"unknown feature {feature!r}")

    raw = model.raw_design            # columns per ExogenousFrame.COLUMNS
    coeffs = np.array([[fit.column(n).mean() for n in COEF_NAMES]])
    std = model.standardizer

    temp = raw[:, 1]
    wd = raw[:, 4]
    r_indep, _ = pearson(temp, wd)
    if abs(r_indep) > INDEPENDENCE_WARN:
        warnings.warn(
            f"temperature and weekday correlate at r={r_indep:.3f}; "
            "partial dependence assumes independent features",
            stacklevel=2)

    if feature == "temperature":
        grid = np.linspace(temp.min(), temp.max(), grid_size)
    else:
        grid = np.arange(7, dtype=float)

    n = raw.shape[0]
    ice = np.empty((n, len(grid)))
    for j, g in enumerate(grid):
        mod = raw.copy()
        if feature == "temperature":
            mod[:, 1] = g
            mod[:, 2] = g ** 2
            mod[:, 3] = g ** 3
        else:
            mod[:, 4] = g
        z = std.transform(mod)
        ice[:, j] = mean_values(model.ybar, z, coeffs)[0]

    return PdCurve(
        feature=feature,
        grid=grid,
        ice=ice,
        pd=ice.mean(axis=0),
        feature_independence_r=r_indep,
    )


@dataclass(frozen=True)
class ResidualReport:
    residuals: np.ndarray
    qq_theoretical: np.ndarray      # standard normal plotting positions
    qq_sample: np.ndarray           # sorted residuals
    r_resid_pred: float
    r_resid_pred_degenerate: bool
    r_pred_actual: float
    r_pred_actual_degenerate: bool


def residual_report(actual, predicted_mean) -> ResidualReport:
    """Residuals, normal-quantile pairs and the two Pearson correlations
    used for goodness-of-fit reading (residual vs prediction, prediction
    vs actual). Degenerate correlations report 0 with a flag."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted_mean, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1 or len(actual) == 0:
        raise LengthMismatch("need equal-length nonempty vectors")
    resid = actual - predicted
    n = len(resid)
    positions = (np.arange(1, n + 1) - 0.5) / n
    r_rp, flag_rp = pearson(resid, predicted)
    r_pa, flag_pa = pearson(predicted, actual)
    return ResidualReport(
        residuals=resid,
        qq_theoretical=ndtri(positions),
        qq_sample=np.sort(resid),
        r_resid_pred=r_rp,
        r_resid_pred_degenerate=flag_rp,
        r_pred_actual=r_pa,
        r_pred_actual_degenerate=flag_pa,
    )
