"""Latent-volatility model objects: data binding, transforms, priors.

The models own their training data by value and are never mutated after
construction, so one model serves every chain of a fit. Gradients are
analytic (see kernels); transforms map the unconstrained sampling scale to
the constrained reporting scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConstantColumn, InsufficientData, MisalignedFrames, MissingStandardizer
from .series import DailySeries, ExogenousFrame, PriceSeries

SCALAR_NAMES_BASE = ("mu", "phi", "sigma")
COEF_NAMES = ("alpha", "beta1", "beta2", "beta3", "gamma", "xi")


@dataclass(frozen=True)
class Standardizer:
    """Column means and standard deviations of a design matrix."""

    means: np.ndarray
    sds: np.ndarray
    columns: tuple

    @classmethod
    def fit(cls, matrix: np.ndarray, columns) -> "Standardizer":
        means = matrix.mean(axis=0)
        sds = matrix.std(axis=0)
        bad = np.nonzero(sds <= 0)[0]
        if bad.size:
            raise ConstantColumn(f"column {columns[bad[0]]!r} is constant")
        return cls(means, sds, tuple(columns))

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.means) / self.sds

    def to_dict(self):
        return {"columns": list(self.columns),
                "means": self.means.tolist(),
                "sds": self.sds.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(np.asarray(d["means"], dtype=float),
                   np.asarray(d["sds"], dtype=float),
                   tuple(d["columns"]))


def _h_names(T: int):
    return tuple(f"h[{t}]" for t in range(T))


class BaselineSvModel:
    """Price as Normal(ybar, exp(h/2)) with AR(1) latent log volatility."""

    kind = "baseline"

    def __init__(self, y: DailySeries):
        self.y = np.ascontiguousarray(y.values, dtype=np.float64)
        self.T = len(self.y)
        if self.T < 10:
            raise InsufficientData(f"need at least 10 observations, got {self.T}")
        self.ybar = float(self.y.mean())
        self.hour = y.hour
        zone = getattr(y, "zone", None)
        self.zone = int(zone) if zone is not None else None
        self.dates = y.dates
        self.n_coef = 0
        self.design = kernels.EMPTY_DESIGN
        self.dim = 3 + self.T
        self.param_names = SCALAR_NAMES_BASE + _h_names(self.T)

    # -- sampler interface -------------------------------------------------

    def logp_grad(self, theta):
        return kernels.sv_logp_grad(theta, self.y, self.ybar, self.design)

    def initial_position(self, rng) -> np.ndarray:
        theta = np.zeros(self.dim)
        theta[:self._h_offset()] = 0.1 * rng.standard_normal(self._h_offset())
        return theta

    def transform(self, theta) -> np.ndarray:
        """Unconstrained vector -> constrained parameter vector."""
        out = np.empty(len(self.param_names))
        out[0] = theta[0]
        out[1] = np.tanh(theta[1])
        out[2] = np.exp(theta[2])
        off = self._h_offset()
        out[3:off] = theta[3:off]
        out[off:] = kernels.sv_h_path(theta[0], out[1], out[2], theta[off:])
        return out

    def _h_offset(self) -> int:
        return 3 + (self.n_coef + 1 if self.n_coef else 0)

    # -- bookkeeping for prediction ----------------------------------------

    def train_summary(self) -> dict:
        return {
            "family": self.kind,
            "ybar": self.ybar,
            "n_obs": self.T,
            "hour": self.hour,
            "zone": self.zone,
            "first_date": str(self.dates[0]),
            "last_date": str(self.dates[-1]),
        }


class SvxModel(BaselineSvModel):
    """Baseline plus exogenous mean regressors: lagged price, lagged
    temperature powers, weekday code, and a free intercept.

    Design columns are standardized internally; the sampled coefficients
    live on that standardized scale (raw_coefficients converts back).
    """

    kind = "svx"

    def __init__(self, y: PriceSeries, frame: ExogenousFrame):
        if len(y) != len(frame) or not np.array_equal(y.dates, frame.dates):
            raise MisalignedFrames("series and exogenous frame must share dates")
        super().__init__(y)
        self.raw_design = frame.matrix()
        self.standardizer = Standardizer.fit(self.raw_design, ExogenousFrame.COLUMNS)
        self.design = np.ascontiguousarray(
            self.standardizer.transform(self.raw_design))
        self.n_coef = self.design.shape[1]
        self.dim = 3 + self.n_coef + 1 + self.T
        self.param_names = (SCALAR_NAMES_BASE + COEF_NAMES + _h_names(self.T))

    def train_summary(self) -> dict:
        d = super().train_summary()
        d["standardizer"] = self.standardizer.to_dict()
        return d


def mean_values(ybar: float, design_std: np.ndarray | None,
                coeffs: np.ndarray | None):
    """Observation mean per day under each row of coefficients.

    ``design_std`` is the (T, k) standardized design and ``coeffs`` a
    (rows, k+1) matrix whose rows are (w_1..w_k, xi) on that scale; the
    result is (rows, T). Pass None for the baseline family, whose mean is
    the scalar ``ybar``.
    """
    if coeffs is None:
        return ybar
    return (ybar + design_std @ coeffs[:, :-1].T + coeffs[:, -1]).T


def raw_coefficients(fit, std: Standardizer | None = None) -> dict:
    """Posterior summary of the exogenous coefficients in raw data units.

    The model samples w on standardized columns: mean = ybar + sum w_j z_j + xi
    with z_j = (x_j - m_j) / s_j. In raw units the slope on x_j is w_j / s_j
    and the intercept absorbs -sum w_j m_j / s_j, leaving predictions
    unchanged.
    """
    if std is None:
        ts = fit.train_summary or {}
        if "standardizer" not in ts:
            raise MissingStandardizer("fit carries no standardizer")
        std = Standardizer.from_dict(ts["standardizer"])
    k = len(std.columns)
    w = np.column_stack([fit.column(n) for n in COEF_NAMES[:k]])
    xi = fit.column("xi")
    raw = w / std.sds
    raw_xi = xi - raw @ std.means
    draws = np.column_stack([raw, raw_xi])
    names = list(COEF_NAMES[:k]) + ["xi"]
    return {
        name: {"mean": float(draws[:, j].mean()), "sd": float(draws[:, j].std(ddof=1))}
        for j, name in enumerate(names)
    }
