import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvol import (
    BacktestConfig,
    CvCombination,
    ExogenousFrame,
    MetricReport,
    SvxCoeffs,
    SynthSpec,
    build_folds,
    cross_validate,
    mae,
    rmse,
    rolling_forecast,
    synthesize,
)
from spotvol.errors import InsufficientFutureData, LengthMismatch, SpotvolError
from tests.conftest import fast_sampler


def test_mae_hand_values():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_rmse_hand_values():
    assert rmse([5.0, 5.0], [5.0, 5.0]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))


def test_metrics_match_naive_loops():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a = rng.standard_normal(100) * 50
        p = rng.standard_normal(100) * 50
        acc_abs = 0.0
        acc_sq = 0.0
        for i in range(100):
            acc_abs += abs(a[i] - p[i])
            acc_sq += (a[i] - p[i]) ** 2
        assert abs(mae(a, p) - acc_abs / 100) < 1e-12 * max(1, acc_abs)
        assert abs(rmse(a, p) - math.sqrt(acc_sq / 100)) < 1e-12


def test_metrics_length_mismatch():
    with pytest.raises(LengthMismatch):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        rmse([], [])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_metric_inequalities(actual, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(actual)
    p = a + rng.uniform(-1e5, 1e5, len(a))
    m, r = mae(a, p), rmse(a, p)
    worst = np.max(np.abs(a - p))
    assert m <= worst + 1e-9
    assert r <= worst + 1e-9
    assert r ** 2 >= m ** 2 - 1e-9 * max(1.0, m ** 2)


def test_metric_report_rejects_negative():
    with pytest.raises(ValueError):
        MetricReport(mae=-1.0, rmse=0.0, n=1)


def _cv_material(n_days=452, seed=303):
    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=n_days,
                     mean_price=1000.0, seed=seed,
                     svx=SvxCoeffs(alpha=0.3, beta1=2.0, beta2=0.1,
                                   beta3=0.01, gamma=-5.0, xi=10.0))
    _, _, truth = synthesize(spec)
    frame = ExogenousFrame.from_daily(truth.daily_prices, truth.daily_temps)
    y = truth.daily_prices.window(1, n_days)
    return truth, y, frame


def test_cross_validate_single_fold():
    truth, y, frame = _cv_material()
    plan = build_folds(len(y), 360, 90)
    assert len(plan) == 1
    combos = [
        CvCombination("baseline", hour=14, zone=1, series=y, exog=frame),
        CvCombination("svx", hour=14, zone=1, series=y, exog=frame),
    ]
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=400, max_workers=2)
    summary = cross_validate(combos, plan, cfg, seed=11)

    assert summary.n_folds == 1
    for combo in combos:
        reports = summary.reports[combo.model_id]
        assert len(reports) == 1
        assert reports[0].fold_id == 0
        assert reports[0].n == 90
        agg = summary.aggregates[combo.model_id]
        assert agg["mae"] == pytest.approx(reports[0].mae)
        assert not summary.failures[combo.model_id]
    # exogenous structure dominates this generator; svx must win the fold
    assert (summary.aggregates["svx-h14-z1"]["mae"]
            < summary.aggregates["baseline-h14-z1"]["mae"])
    assert summary.mwu["mae"] is not None

    # reproducibility of the whole summary under the same master seed
    again = cross_validate(combos, plan, cfg, seed=11)
    assert again.aggregates == summary.aggregates


def test_cross_validate_noiseless_is_near_exact():
    spec = SynthSpec(mu=-40.0, phi=0.0, sigma=1e-10, n_days=452,
                     mean_price=800.0, seed=5)
    _, _, truth = synthesize(spec)
    frame = ExogenousFrame.from_daily(truth.daily_prices, truth.daily_temps)
    y = truth.daily_prices.window(1, 452)
    plan = build_folds(len(y), 360, 90)
    combos = [CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)]
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=300, max_workers=1)
    summary = cross_validate(combos, plan, cfg, seed=2)
    assert summary.aggregates["baseline-h14-z1"]["mae"] < 1e-3


def test_cross_validate_records_failures():
    # temperature constant over fold 0's training window only: that fold
    # fails (constant design column) and is recorded, the run continues
    from spotvol.series import DailySeries

    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=546,
                     mean_price=1000.0, seed=21)
    _, _, truth = synthesize(spec)
    temps_vals = truth.daily_temps.values.copy()
    temps_vals[:361] = 4.0
    temps = DailySeries(truth.daily_temps.dates, temps_vals, hour=14)
    frame = ExogenousFrame.from_daily(truth.daily_prices, temps)
    y = truth.daily_prices.window(1, 546)
    plan = build_folds(len(y), 360, 90)
    assert len(plan) == 2
    combos = [CvCombination("svx", hour=14, zone=1, series=y, exog=frame)]
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=200, max_workers=1)
    summary = cross_validate(combos, plan, cfg, seed=8)
    mid = combos[0].model_id
    assert len(summary.failures[mid]) == 1
    assert summary.failures[mid][0][0] == 0
    assert "ConstantColumn" in summary.failures[mid][0][1]
    assert len(summary.reports[mid]) == 1
    assert summary.aggregates[mid]["n_folds"] == 1


def test_cross_validate_isolates_numeric_fold_errors(monkeypatch):
    # the svx fits raise the numeric errors an MCMC fit can hit; each fold
    # is recorded as a typed failure and the baseline folds still report
    import spotvol.backtest as bt
    from tests.conftest import degenerate_fit

    _, _, truth = synthesize(SynthSpec(mu=-1.0, phi=0.9, sigma=0.3,
                                       n_days=121, mean_price=1000.0, seed=4))
    frame = ExogenousFrame.from_daily(truth.daily_prices, truth.daily_temps)
    y = truth.daily_prices.window(1, 121)
    plan = build_folds(len(y), 60, 20)
    assert len(plan) == 3
    errors = [FloatingPointError("overflow encountered in exp"),
              np.linalg.LinAlgError("Singular matrix"),
              ValueError("array must not contain infs or NaNs")]

    def flaky_sample(model, cfg, seed):
        if model.kind == "svx":
            fold = int(np.searchsorted(y.dates, model.dates[0])) // 20
            raise errors[fold]
        return degenerate_fit(model)

    monkeypatch.setattr(bt, "sample", flaky_sample)
    combos = [CvCombination("baseline", 14, 1, y, exog=frame),
              CvCombination("svx", 14, 1, y, exog=frame)]
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=50)
    summary = cross_validate(combos, plan, cfg, seed=6)

    assert summary.failures["svx-h14-z1"] == [
        (0, "FloatingPointError: overflow encountered in exp"),
        (1, "LinAlgError: Singular matrix"),
        (2, "ValueError: array must not contain infs or NaNs")]
    assert summary.aggregates["svx-h14-z1"]["n_folds"] == 0
    assert not summary.failures["baseline-h14-z1"]
    assert [r.fold_id for r in summary.reports["baseline-h14-z1"]] == [0, 1, 2]
    assert summary.mwu["mae"] is None

    # a programming error is not a fold failure: it still propagates
    def broken_sample(model, cfg, seed):
        raise TypeError("bad call")

    monkeypatch.setattr(bt, "sample", broken_sample)
    with pytest.raises(TypeError):
        cross_validate(combos, plan, cfg, seed=6)


def test_cross_validate_rejects_fold_gap(monkeypatch):
    # a test window that does not start the day after the train window
    # fails that fold before any fit: forecasting days b+1.. and scoring
    # them against days c..d would compare different days
    import spotvol.backtest as bt
    from spotvol.series import FoldPlan

    def no_sample(model, cfg, seed):
        raise AssertionError("a gapped fold must not be fitted")

    monkeypatch.setattr(bt, "sample", no_sample)
    truth, y, frame = _cv_material(n_days=80, seed=5)
    plan = FoldPlan(((0, 59, 65, 74),), 60, 10)
    combos = [CvCombination("baseline", 14, 1, y, exog=frame),
              CvCombination("svx", 14, 1, y, exog=frame)]
    summary = cross_validate(combos, plan,
                             BacktestConfig(sampler=fast_sampler()), seed=2)
    for combo in combos:
        assert summary.reports[combo.model_id] == []
        [(fold_id, msg)] = summary.failures[combo.model_id]
        assert fold_id == 0
        assert msg.startswith("SpotvolError: test window starts on day 65")


def test_cross_validate_max_workers_is_ignored():
    _, _, truth = synthesize(SynthSpec(mu=-1.0, phi=0.9, sigma=0.3,
                                       n_days=100, mean_price=1000.0, seed=9))
    y = truth.daily_prices
    plan = build_folds(len(y), 60, 20)
    combos = [CvCombination("baseline", hour=14, zone=1, series=y)]
    summaries = [
        cross_validate(combos, plan,
                       BacktestConfig(sampler=fast_sampler(max_workers=mw),
                                      n_draws=200, max_workers=mw),
                       seed=4).to_json_dict()
        for mw in (None, 1, 2)]
    assert len(summaries[0]["reports"]["baseline-h14-z1"]) == 2
    assert summaries[0] == summaries[1] == summaries[2]


def test_cross_validate_short_series_rejected():
    truth, y, frame = _cv_material()
    plan = build_folds(len(y), 360, 90)
    with pytest.raises(Exception):
        cross_validate(
            [CvCombination("baseline", 14, 1, y.window(0, 100),
                           frame.window(0, 100))],
            plan, BacktestConfig(sampler=fast_sampler()), seed=1)


def test_cross_validate_full_plan_report_count():
    # the ten-year plan produces exactly 36 reports per combination
    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=3600,
                     mean_price=1000.0, seed=404)
    _, _, truth = synthesize(spec)
    y = truth.daily_prices
    plan = build_folds(len(y), 360, 90)
    combos = [CvCombination("baseline", hour=14, zone=1, series=y)]
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=200, max_workers=4)
    summary = cross_validate(combos, plan, cfg, seed=3)
    assert summary.n_folds == 36
    assert len(summary.reports["baseline-h14-z1"]) == 36
    assert not summary.failures["baseline-h14-z1"]
    assert summary.aggregates["baseline-h14-z1"]["n_folds"] == 36
    assert [r.fold_id for r in summary.reports["baseline-h14-z1"]] \
        == list(range(36))


def test_fold_windows_never_overlap():
    plan = build_folds(3600, 360, 90)
    for a, b, c, d in plan.folds:
        assert b < c
        assert set(range(a, b + 1)).isdisjoint(range(c, d + 1))


def test_rolling_forecast_bookkeeping():
    truth, y, frame = _cv_material(n_days=375, seed=77)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=300, max_workers=1)
    first_train = (str(y.dates[0]), str(y.dates[359]))
    res = rolling_forecast(combo, first_train, horizon_days=3, cfg=cfg, seed=21)

    assert res.forecast.horizon == 3
    assert res.report.n == 3
    assert len(res.train_ranges) == 3
    one_day = np.timedelta64(1, "D")
    for prev, nxt in zip(res.train_ranges, res.train_ranges[1:]):
        assert nxt[0] - prev[0] == one_day
        assert nxt[1] - prev[1] == one_day
    assert np.array_equal(res.forecast.dates, y.dates[360:363])


def test_rolling_forecast_single_day_equals_direct():
    # each day's column is a direct one-day fit and forecast on the window
    # shifted by that many days, with that day's pair of seeds
    from spotvol import BaselineSvModel, forecast as direct_forecast, sample

    truth, y, frame = _cv_material(n_days=372, seed=78)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=300, max_workers=1)
    first_train = (str(y.dates[0]), str(y.dates[359]))
    res = rolling_forecast(combo, first_train, 2, cfg, seed=33)

    assert res.forecast.vol_draws is not None
    assert res.forecast.vol_draws.shape == res.forecast.draws.shape == (300, 2)
    seeds = np.random.SeedSequence(33).spawn(4)
    for j in range(2):
        model = BaselineSvModel(y.window(j, 360 + j))
        fit = sample(model, cfg.sampler,
                     int(seeds[2 * j].generate_state(1)[0]))
        fc = direct_forecast(fit, 1, n_draws=300, mode=cfg.mode,
                             vol_mode=cfg.vol_mode,
                             seed=int(seeds[2 * j + 1].generate_state(1)[0]))
        assert np.array_equal(res.forecast.draws[:, j], fc.draws[:, 0])
        assert np.array_equal(res.forecast.vol_draws[:, j], fc.vol_draws[:, 0])


def test_rolling_forecast_noise_floor():
    # near-noiseless generator: rolling MAE must sit at the noise floor
    spec = SynthSpec(mu=-40.0, phi=0.0, sigma=1e-10, n_days=370,
                     mean_price=900.0, seed=6)
    _, _, truth = synthesize(spec)
    frame = ExogenousFrame.from_daily(truth.daily_prices, truth.daily_temps)
    y = truth.daily_prices.window(1, 370)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=300, max_workers=1)
    res = rolling_forecast(combo, (str(y.dates[0]), str(y.dates[359])),
                           3, cfg, seed=9)
    noise_floor = float(np.exp(truth.h[360:363] / 2.0).mean())
    assert res.report.mae < max(3 * noise_floor, 1e-3)


def test_rolling_forecast_insufficient_future():
    truth, y, frame = _cv_material(n_days=365, seed=79)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=300)
    with pytest.raises(InsufficientFutureData):
        rolling_forecast(combo, (str(y.dates[0]), str(y.dates[359])),
                         30, cfg, seed=1)


def test_rolling_forecast_first_train_outside_series():
    truth, y, frame = _cv_material(n_days=80, seed=5)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=100)
    day_before = str(y.dates[0] - np.timedelta64(1, "D"))
    with pytest.raises(SpotvolError, match="first_train"):
        rolling_forecast(combo, (day_before, str(y.dates[59])), 1, cfg, seed=3)


def test_rolling_forecast_string_modes_serialize(monkeypatch):
    # the config file hands the modes over as strings; the rolling
    # forecast set must still serialize them
    import spotvol.backtest as bt
    from tests.conftest import degenerate_fit

    monkeypatch.setattr(bt, "sample",
                        lambda model, cfg, seed: degenerate_fit(model))
    truth, y, frame = _cv_material(n_days=80, seed=5)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=100, mode="point",
                         vol_mode="hold")
    res = rolling_forecast(combo, (str(y.dates[0]), str(y.dates[59])), 1,
                           cfg, seed=3)
    doc = res.forecast.to_json_dict()
    assert doc["mode"] == "point" and doc["vol_mode"] == "hold"
