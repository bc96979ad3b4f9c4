import numpy as np
import pytest

from spotvol import (
    BaselineSvModel,
    ExogenousFrame,
    PriceSeries,
    SvxModel,
    pd_ice,
    polyfit_cubic,
    residual_report,
)
from spotvol.errors import FeatureNotInModel, LengthMismatch
from tests.conftest import degenerate_fit


def make_fit(svx_y, svx_frame, coeffs):
    model = SvxModel(svx_y, svx_frame)
    fit = degenerate_fit(model, mu=-1.0, phi=0.9, sigma=0.3,
                         h=np.full(model.T, -1.0), coeffs=coeffs)
    return model, fit


def test_pd_matches_naive_double_loop(svx_y, svx_frame):
    coeffs = [0.4, 2.0, 0.1, 0.01, -5.0, 10.0]
    model, fit = make_fit(svx_y, svx_frame, coeffs)
    curve = pd_ice(fit, model, "temperature", grid_size=9)

    w = np.asarray(coeffs)
    raw = model.raw_design
    std = model.standardizer
    for j, g in enumerate(curve.grid):
        acc = 0.0
        for i in range(raw.shape[0]):
            row = raw[i].copy()
            row[1], row[2], row[3] = g, g ** 2, g ** 3
            z = (row - std.means) / std.sds
            acc += model.ybar + float(z @ w[:5]) + w[5]
        naive = acc / raw.shape[0]
        assert abs(curve.pd[j] - naive) < 1e-10 * max(1.0, abs(naive))
        assert curve.pd[j] == pytest.approx(curve.ice[:, j].mean())


def test_pd_dead_feature_is_constant(svx_y, svx_frame):
    model, fit = make_fit(svx_y, svx_frame, [0.4, 2.0, 0.1, 0.01, 0.0, 10.0])
    curve = pd_ice(fit, model, "weekday")
    assert np.max(curve.pd) - np.min(curve.pd) < 1e-10
    assert np.array_equal(curve.grid, np.arange(7.0))


def test_pd_cubic_feature_shape(svx_y, svx_frame):
    c = 0.02
    model, fit = make_fit(svx_y, svx_frame, [0.0, 0.0, 0.0, c, 0.0, 0.0])
    curve = pd_ice(fit, model, "temperature", grid_size=25)
    coeffs = polyfit_cubic(curve.grid, curve.pd)
    fitted = np.vander(curve.grid, 4, increasing=True) @ coeffs
    ss_res = np.sum((curve.pd - fitted) ** 2)
    ss_tot = np.sum((curve.pd - curve.pd.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.999
    # slope of pd vs grid^3 equals the raw-scale cubic coefficient
    raw_cubic = c / model.standardizer.sds[3]
    assert coeffs[3] == pytest.approx(raw_cubic, rel=1e-6)


def test_ice_passes_through_observed_point(svx_y, svx_frame):
    coeffs = [0.4, 2.0, 0.1, 0.01, -5.0, 10.0]
    model, fit = make_fit(svx_y, svx_frame, coeffs)
    curve = pd_ice(fit, model, "temperature", grid_size=25)
    temp = model.raw_design[:, 1]
    obs = int(np.argmin(temp))          # grid[0] == min(temp) exactly
    assert curve.grid[0] == temp[obs]
    w = np.asarray(coeffs)
    unperturbed = model.ybar + float(model.design[obs] @ w[:5]) + w[5]
    assert curve.ice[obs, 0] == unperturbed


def test_pd_feature_validation(svx_y, svx_frame, baseline_truth):
    model, fit = make_fit(svx_y, svx_frame, [0.0] * 6)
    with pytest.raises(FeatureNotInModel):
        pd_ice(fit, model, "humidity")
    base_model = BaselineSvModel(baseline_truth.daily_prices)
    base_fit = degenerate_fit(base_model)
    with pytest.raises(FeatureNotInModel):
        pd_ice(base_fit, base_model, "temperature")


def test_pd_reports_feature_independence(svx_y, svx_frame):
    model, fit = make_fit(svx_y, svx_frame, [0.0] * 6)
    curve = pd_ice(fit, model, "temperature")
    r, _ = __import__("spotvol").pearson(model.raw_design[:, 1],
                                         model.raw_design[:, 4])
    assert curve.feature_independence_r == pytest.approx(r)
    assert abs(r) < 0.3  # synthetic temperature ignores the weekday


def test_pd_warns_on_correlated_features():
    # build a frame whose temperature tracks the weekday code
    dates = np.arange(np.datetime64("2024-01-01"),
                      np.datetime64("2024-01-01") + np.timedelta64(60, "D"))
    from spotvol.series import DailySeries, weekday_codes

    wd_next = weekday_codes(dates + np.timedelta64(1, "D")).astype(float)
    rng = np.random.default_rng(0)
    # temperature tracks tomorrow's weekday, so the lagged column in the
    # frame lines up with the weekday column
    temps = DailySeries(dates, 10.0 * wd_next + 0.2 * rng.standard_normal(60),
                        hour=3)
    prices = PriceSeries(dates, 1000 + 20 * rng.standard_normal(60), hour=3)
    frame = ExogenousFrame.from_daily(prices, temps)
    model = SvxModel(prices.window(1, 60), frame)
    fit = degenerate_fit(model, coeffs=[0.0] * 6)
    with pytest.warns(UserWarning, match="independent"):
        pd_ice(fit, model, "temperature")


def test_residual_report_identical_inputs():
    rep = residual_report(np.ones(20), np.ones(20))
    assert np.all(rep.residuals == 0.0)
    assert rep.r_resid_pred == 0.0 and rep.r_resid_pred_degenerate
    assert rep.r_pred_actual == 0.0 and rep.r_pred_actual_degenerate


def test_residual_report_gaussian_qq():
    rng = np.random.default_rng(17)
    resid = rng.standard_normal(1000)
    pred = 100 + rng.standard_normal(1000)
    rep = residual_report(pred + resid, pred)
    corr = np.corrcoef(rep.qq_theoretical, rep.qq_sample)[0, 1]
    assert corr > 0.99
    assert len(rep.qq_theoretical) == 1000
    # plotting positions (i - 0.5)/n map through the normal quantile, to
    # 2e-15 relative of scipy's ndtri
    from scipy.special import ndtri
    for n in (1, 2, 1000, 3500):
        qq = residual_report(np.zeros(n), np.zeros(n)).qq_theoretical
        np.testing.assert_allclose(qq, ndtri((np.arange(1, n + 1) - 0.5) / n),
                                   rtol=2e-15, atol=0)


def test_residual_report_anticorrelated():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal(50)
    actual = pred + (-pred)  # residual = -pred exactly
    rep = residual_report(actual, pred)
    assert rep.r_resid_pred == pytest.approx(-1.0)


def test_residual_report_length_mismatch():
    with pytest.raises(LengthMismatch):
        residual_report([1.0, 2.0], [1.0])
