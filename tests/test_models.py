import math

import numpy as np
import pytest

from spotvol import (
    BaselineSvModel,
    ExogenousFrame,
    PriceSeries,
    Standardizer,
    SvxModel,
    raw_coefficients,
)
from spotvol.models import ModelRows, build_model
from spotvol.errors import (
    ConstantColumn,
    InsufficientData,
    MisalignedFrames,
    MissingStandardizer,
)
from tests.conftest import degenerate_fit


def test_build_model_maps_family(svx_y, svx_frame):
    y, frame = svx_y.window(0, 30), svx_frame.window(0, 30)
    assert type(build_model("baseline", y)) is BaselineSvModel
    svx = build_model("svx", y, frame)
    assert type(svx) is SvxModel
    assert np.array_equal(svx.design, SvxModel(y, frame).design)


def test_baseline_smoke_constant_series():
    dates = np.arange(np.datetime64("2024-01-01"), np.datetime64("2024-01-11"))
    y = PriceSeries(dates, np.full(10, 500.0), hour=3)
    model = BaselineSvModel(y)
    rng = np.random.default_rng(0)
    theta = model.initial_position(rng)
    lp, grad = model.logp_grad(theta)
    assert math.isfinite(lp)
    assert np.all(np.isfinite(grad))


def test_baseline_too_short():
    dates = np.arange(np.datetime64("2024-01-01"), np.datetime64("2024-01-06"))
    with pytest.raises(InsufficientData):
        BaselineSvModel(PriceSeries(dates, np.ones(5), hour=0))


def test_decoupled_h_naive_oracle(baseline_truth):
    # with phi = 0 and fixed sigma the latent days decouple; a per-day sum
    # of independent normal terms must reproduce the density
    y = baseline_truth.daily_prices.window(0, 60)
    model = BaselineSvModel(y)
    rng = np.random.default_rng(4)
    theta = 0.3 * rng.standard_normal(model.dim)
    theta[1] = 0.0  # phi = tanh(0) = 0

    mu, sigma = theta[0], math.exp(theta[2])
    u = theta[3:]
    lp_naive = -math.log1p(mu ** 2 / 100.0)
    lp_naive += -math.log1p(sigma ** 2 / 25.0) + theta[2]
    lp_naive += math.log1p(-0.0)
    for t in range(model.T):
        h_t = mu + sigma * u[t]
        r = model.y[t] - model.ybar
        lp_naive += -0.5 * h_t - 0.5 * r * r * math.exp(-h_t) - 0.5 * u[t] ** 2

    lp, _ = model.logp_grad(theta)
    assert abs(lp - lp_naive) < 1e-9 * max(1.0, abs(lp_naive))


def test_svx_reduces_to_baseline(svx_y, svx_frame):
    base = BaselineSvModel(svx_y)
    svx = SvxModel(svx_y, svx_frame)
    rng = np.random.default_rng(10)
    for _ in range(5):
        theta_b = 0.4 * rng.standard_normal(base.dim)
        theta_x = np.concatenate([theta_b[:3], np.zeros(6), theta_b[3:]])
        lp_b, _ = base.logp_grad(theta_b)
        lp_x, _ = svx.logp_grad(theta_x)
        assert abs(lp_x - lp_b) <= 1e-12 * max(1.0, abs(lp_b))


def test_model_gradients_vs_finite_differences(svx_y, svx_frame):
    base = BaselineSvModel(svx_y.window(0, 60))
    svx = SvxModel(svx_y.window(0, 60), svx_frame.window(0, 60))
    rng = np.random.default_rng(15)
    for model in (base, svx):
        for _ in range(3):
            theta = 0.3 * rng.standard_normal(model.dim)
            _, grad = model.logp_grad(theta)
            for i in rng.choice(model.dim, size=12, replace=False):
                step = 1e-6 * max(1.0, abs(theta[i]))
                tp, tm = theta.copy(), theta.copy()
                tp[i] += step
                tm[i] -= step
                fd = (model.logp_grad(tp)[0] - model.logp_grad(tm)[0]) / (2 * step)
                rel = abs(grad[i] - fd) / max(1e-6, abs(grad[i]), abs(fd))
                assert rel < 1e-4


def test_transform_reconstructs_h(svx_y, svx_frame):
    model = SvxModel(svx_y, svx_frame)
    rng = np.random.default_rng(2)
    theta = 0.3 * rng.standard_normal(model.dim)
    [out] = model.transform(theta[None])
    mu, phi, sigma = out[0], out[1], out[2]
    assert phi == pytest.approx(math.tanh(theta[1]))
    assert sigma == pytest.approx(math.exp(theta[2]))
    h = out[9:]
    u = theta[9:]
    assert h[0] == pytest.approx(mu + sigma * u[0] / math.sqrt(1 - phi ** 2))
    for t in (1, 7, model.T - 1):
        assert h[t] == pytest.approx(mu + phi * (h[t - 1] - mu) + sigma * u[t])


@pytest.mark.parametrize("family", ["baseline", "svx"])
def test_row_transform_equals_one_row_transform(svx_y, svx_frame, family):
    """The rows' transform, through the model and through ``ModelRows``,
    equals each row's one-row transform bit for bit at B = 1, 2 and 4.
    Row 1's path ends at inf, so wherever a row follows it the AR(1)
    solve over the rows laid end to end falls back to per-row solves."""
    model = build_model(family, svx_y.window(0, 60), svx_frame.window(0, 60))
    rng = np.random.default_rng(21)
    theta = 0.3 * rng.standard_normal((4, model.dim))
    theta[1, -1] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [model.transform(row[None])[0] for row in theta]
        assert np.isinf(alone[1][-1]) and np.isfinite(alone[0]).all()
        for order in ([0], [1], [0, 1], [1, 0], [0, 1, 2, 3], [3, 1, 2, 0]):
            for rows in (model, ModelRows([model] * len(order), 1)):
                out = rows.transform(theta[order])
                assert out.shape == (len(order), len(model.param_names))
                for got, r in zip(out, order):
                    assert got.tobytes() == alone[r].tobytes(), (order, r)


def test_standardizer_rejects_constant_column():
    m = np.column_stack([np.ones(20), np.arange(20.0)])
    with pytest.raises(ConstantColumn):
        Standardizer.fit(m, ("const", "ramp"))


def test_mean_prediction_invariant_under_standardization(svx_y, svx_frame):
    # the standardized-scale mean must equal the raw-scale computation
    model = SvxModel(svx_y, svx_frame)
    rng = np.random.default_rng(8)
    w = rng.standard_normal(5)
    xi = rng.standard_normal()
    std_mean = model.ybar + model.design @ w + xi
    raw_slopes = w / model.standardizer.sds
    raw_intercept = xi - float(raw_slopes @ model.standardizer.means)
    raw_mean = model.ybar + model.raw_design @ raw_slopes + raw_intercept
    scale = np.abs(std_mean).max()
    assert np.max(np.abs(std_mean - raw_mean)) < 1e-10 * scale


def test_misaligned_frame_rejected(svx_truth, svx_frame):
    with pytest.raises(MisalignedFrames):
        SvxModel(svx_truth.daily_prices, svx_frame)  # off by the first day


def test_raw_coefficients_identity_standardizer(svx_y, svx_frame):
    model = SvxModel(svx_y, svx_frame)
    coeffs = [0.5, 2.0, 0.1, 0.01, -5.0, 10.0]
    fit = degenerate_fit(model, coeffs=coeffs)
    identity = Standardizer(np.zeros(5), np.ones(5), ExogenousFrame.COLUMNS)
    out = raw_coefficients(fit, identity)
    for name, value in zip(("alpha", "beta1", "beta2", "beta3", "gamma", "xi"),
                           coeffs):
        assert out[name]["mean"] == pytest.approx(value, abs=1e-12)


def test_raw_coefficients_scaling_equivalence(svx_y, svx_frame):
    # scale one regressor by 10: raw slope scales by 1/10, predictions equal
    model = SvxModel(svx_y, svx_frame)
    coeffs = np.array([0.5, 2.0, 0.1, 0.01, -5.0, 10.0])
    fit = degenerate_fit(model, coeffs=list(coeffs))
    out = raw_coefficients(fit)

    std = model.standardizer
    raw_slopes = np.array([out[n]["mean"] for n in
                           ("alpha", "beta1", "beta2", "beta3", "gamma")])
    assert np.allclose(raw_slopes, coeffs[:5] / std.sds)

    scaled = Standardizer(std.means, std.sds * 10.0, std.columns)
    out10 = raw_coefficients(fit, scaled)
    assert out10["alpha"]["mean"] == pytest.approx(out["alpha"]["mean"] / 10.0)

    # prediction equivalence through the back-transform
    pred_std = model.ybar + model.design @ coeffs[:5] + coeffs[5]
    xi_raw = out["xi"]["mean"]
    pred_raw = model.ybar + model.raw_design @ raw_slopes + xi_raw
    assert np.max(np.abs(pred_std - pred_raw)) < 1e-10 * np.abs(pred_std).max()


def test_raw_coefficients_zero_stays_zero(svx_y, svx_frame):
    model = SvxModel(svx_y, svx_frame)
    fit = degenerate_fit(model, coeffs=[0.0] * 6)
    out = raw_coefficients(fit)
    for name in ("alpha", "beta1", "beta2", "beta3", "gamma", "xi"):
        assert out[name]["mean"] == 0.0


def test_raw_coefficients_needs_standardizer(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model)
    with pytest.raises(MissingStandardizer):
        raw_coefficients(fit)
