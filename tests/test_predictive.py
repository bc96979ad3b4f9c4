import tracemalloc

import numpy as np
import pytest

from spotvol import (
    BaselineSvModel,
    PpdMode,
    SvxModel,
    VolMode,
    forecast,
    ppd_insample,
    volatility_path,
)
from spotvol.errors import (
    HorizonZero,
    MissingExogenous,
    ModeUnsupported,
    TooFewDraws,
)
from spotvol.posterior import PosteriorFit
from tests.conftest import degenerate_fit


def test_degenerate_posterior_modes_coincide(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model, mu=-1.0, phi=0.9, sigma=0.3,
                         h=baseline_truth.h[:model.T])
    full = ppd_insample(fit, model, n_draws=1000,
                        mode=PpdMode.FULL_POSTERIOR, seed=4)
    point = ppd_insample(fit, model, n_draws=1000,
                         mode=PpdMode.POINT_ESTIMATE, seed=4)
    # same parameter point + shared noise stream: draws agree to rounding
    # (the point estimate averages identical rows, which costs last bits)
    assert np.allclose(full.draws, point.draws, rtol=1e-9)
    # per-day two-sample KS distance stays far under the 0.05 bound
    from scipy.stats import ks_2samp

    for t in range(model.T):
        ks = ks_2samp(full.draws[:, t], point.draws[:, t]).statistic
        assert ks < 0.05


def test_near_zero_volatility_collapses_ci(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model, mu=-40.0, phi=0.0, sigma=1e-10,
                         h=np.full(model.T, -40.0))
    out = ppd_insample(fit, model, n_draws=500, seed=0)
    assert np.all(out.ci_high - out.ci_low < 1e-3)
    assert np.all(out.vol_mean > 0)


def test_insample_mean_clt_bound(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    h = baseline_truth.h
    fit = degenerate_fit(model, mu=-1.0, phi=0.9, sigma=0.3, h=h)
    n_draws = 1000
    out = ppd_insample(fit, model, n_draws=n_draws, seed=12)
    bound = 3.0 * np.exp(h / 2.0) / np.sqrt(n_draws)
    assert np.all(np.abs(out.mean - model.ybar) < bound)
    # summary invariants
    assert np.array_equal(out.mean, out.draws.mean(axis=0))
    assert np.all(out.ci_low <= out.mean) and np.all(out.mean <= out.ci_high)


def test_forecast_hold_vs_propagate_variance(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model, mu=-1.0, phi=0.9, sigma=0.5,
                         h=np.full(model.T, -1.0))
    hold = forecast(fit, 1, n_draws=2000, vol_mode=VolMode.HOLD, seed=3)
    prop = forecast(fit, 1, n_draws=2000, vol_mode=VolMode.PROPAGATE, seed=3)
    assert prop.draws[:, 0].var() >= hold.draws[:, 0].var()


def test_forecast_phi_zero_marginal(baseline_truth):
    # with phi = 0 the propagated volatility is exp(h/2), h ~ N(mu, sigma)
    model = BaselineSvModel(baseline_truth.daily_prices)
    mu, sigma = -2.0, 0.4
    fit = degenerate_fit(model, mu=mu, phi=0.0, sigma=sigma,
                         h=np.full(model.T, 5.0))  # h_T far from mu
    n = 4000
    out = forecast(fit, 1, n_draws=n, vol_mode=VolMode.PROPAGATE, seed=9)
    h_draws = 2.0 * np.log(out.vol_draws[:, 0])
    assert abs(h_draws.mean() - mu) < 3.0 * sigma / np.sqrt(n)
    assert abs(h_draws.std() - sigma) < 3.0 * sigma * np.sqrt(2.0 / n)


def test_forecast_noiseless_recursion(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    mu, phi, h_last = -1.0, 0.8, 1.5
    fit = degenerate_fit(model, mu=mu, phi=phi, sigma=1e-12,
                         h=np.full(model.T, h_last))
    out = forecast(fit, 5, n_draws=200, vol_mode=VolMode.PROPAGATE, seed=2)
    for k in range(5):
        expected = np.exp((mu + phi ** (k + 1) * (h_last - mu)) / 2.0)
        assert out.vol_mean[k] == pytest.approx(expected, rel=1e-10)


def test_forecast_seed_determinism(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model)
    a = forecast(fit, 7, n_draws=300, seed=10)
    b = forecast(fit, 7, n_draws=300, seed=10)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.mean, b.mean)


def test_forecast_dates_continue_training_window(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model)
    out = forecast(fit, 3, n_draws=200, seed=0)
    expected = baseline_truth.daily_prices.dates[-1] + np.arange(1, 4)
    assert np.array_equal(out.dates, expected)


def test_forecast_svx_uses_exogenous(svx_truth, svx_y, svx_frame):
    T = len(svx_y)
    train_y = svx_y.window(0, T - 10)
    train_frame = svx_frame.window(0, T - 10)
    model = SvxModel(train_y, train_frame)
    coeffs = [0.4, 2.0, 0.1, 0.01, -5.0, 10.0]
    fit = degenerate_fit(model, mu=-1.0, phi=0.9, sigma=0.3,
                         h=np.full(model.T, -1.0), coeffs=coeffs)
    future = svx_frame.window(T - 10, T - 3)
    out = forecast(fit, 7, n_draws=400, exog_future=future, seed=5)
    assert out.horizon == 7
    # mean responds to the exogenous rows: compare against direct computation
    z = model.standardizer.transform(future.matrix())
    expected = model.ybar + z @ np.array(coeffs[:5]) + coeffs[5]
    noise = 3.0 * np.exp(-0.35) / np.sqrt(400)
    assert np.max(np.abs(out.mean - expected)) < 4 * noise

    with pytest.raises(MissingExogenous):
        forecast(fit, 7, n_draws=400, seed=5)
    with pytest.raises(MissingExogenous):
        forecast(fit, 3, n_draws=400, exog_future=future, seed=5)


def test_forecast_errors(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model)
    with pytest.raises(HorizonZero):
        forecast(fit, 0, seed=1)
    fit_empty = degenerate_fit(model)
    fit_empty.draws = np.empty((0, len(fit_empty.param_names)))
    with pytest.raises(ModeUnsupported):
        forecast(fit_empty, 3, seed=1)
    with pytest.raises(TooFewDraws):
        forecast(fit, 3, n_draws=0, seed=1)
    with pytest.raises(TooFewDraws):
        ppd_insample(fit, model, n_draws=50, seed=1)


def test_volatility_path_constants(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit0 = degenerate_fit(model, h=np.zeros(model.T))
    mean, lo, hi = volatility_path(fit0)
    assert np.all(mean == 1.0) and np.all(lo == 1.0) and np.all(hi == 1.0)
    fit2 = degenerate_fit(model, h=np.full(model.T, 2.0))
    mean2, _, _ = volatility_path(fit2)
    assert np.allclose(mean2, np.e)


def test_volatility_path_tracks_truth(baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    rng = np.random.default_rng(3)
    h = baseline_truth.h
    noisy = h[None, :] + 0.3 * rng.standard_normal((200, len(h)))
    fit = degenerate_fit(model, h=h, n_draws=200)
    fit.draws[:, 3:] = noisy
    mean, lo, hi = volatility_path(fit)
    corr = np.corrcoef(np.exp(h / 2.0), mean)[0, 1]
    assert corr > 0.7
    assert np.all(lo <= hi)


def test_forecast_csv_round_trip(tmp_path, baseline_truth):
    model = BaselineSvModel(baseline_truth.daily_prices)
    fit = degenerate_fit(model)
    out = forecast(fit, 4, n_draws=200, seed=8)
    path = tmp_path / "fc.csv"
    out.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "date,mean,ci_low,ci_high,vol_mean,vol_low,vol_high"
    assert len(rows) == 5
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(got, out.mean)


def _random_fit(T, n_draws, seed=0) -> PosteriorFit:
    """Baseline fit whose draws vary, so point estimates are real means."""
    rng = np.random.default_rng(seed)
    names = ["mu", "phi", "sigma"] + [f"h[{t}]" for t in range(T)]
    draws = rng.normal(-1.0, 0.3, (n_draws, len(names)))
    return PosteriorFit(
        draws=draws, param_names=names, n_chains=2,
        kept_per_chain=n_draws // 2, diagnostics={}, summary={},
        train_summary={"family": "baseline", "ybar": 100.0, "n_obs": T,
                       "last_date": "2024-01-01"},
        model_family="baseline")


@pytest.mark.parametrize("mode", list(PpdMode))
def test_forecast_reads_only_the_columns_it_needs(mode):
    # a 16 MB latent block: forecasting one day must not copy it
    fit = _random_fit(T=2000, n_draws=1000)
    tracemalloc.start()
    try:
        forecast(fit, 1, n_draws=200, mode=mode, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 ** 2


def test_point_forecast_holds_mean_last_volatility():
    fit = _random_fit(T=50, n_draws=400, seed=2)
    out = forecast(fit, 3, n_draws=100, mode=PpdMode.POINT_ESTIMATE,
                   vol_mode=VolMode.HOLD, seed=5)
    expected = np.exp(fit.column("h[49]").mean() / 2.0)
    assert np.all(out.vol_draws == expected)
