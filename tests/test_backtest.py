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
from tests.conftest import assert_summaries_exact, fast_sampler


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
        assert reports[0].max_rhat >= 1.0
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
    from tests.conftest import degenerate_fit, per_fit

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

    monkeypatch.setattr(bt, "sample_fits", per_fit(flaky_sample))
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

    monkeypatch.setattr(bt, "sample_fits", per_fit(broken_sample))
    with pytest.raises(TypeError):
        cross_validate(combos, plan, cfg, seed=6)


def test_cross_validate_rejects_fold_gap(monkeypatch):
    # a test window that does not start the day after the train window
    # fails that fold before any fit: forecasting days b+1.. and scoring
    # them against days c..d would compare different days
    import spotvol.backtest as bt
    from spotvol.series import FoldPlan
    from tests.conftest import per_fit

    def no_sample(model, cfg, seed):
        raise AssertionError("a gapped fold must not be fitted")

    monkeypatch.setattr(bt, "sample_fits", per_fit(no_sample))
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


def _direct(family, y, frame, lo, hi, horizon, cfg, fit_seed, fc_seed):
    """A fit on days lo..hi and its forecast of the `horizon` days after,
    made directly with ``sample`` and ``forecast``: what a CV fold on that
    window must equal."""
    from spotvol import BaselineSvModel, SvxModel, forecast, sample

    if family == "svx":
        model = SvxModel(y.window(lo, hi + 1), frame.window(lo, hi + 1))
        exog = frame.window(hi + 1, hi + 1 + horizon)
    else:
        model, exog = BaselineSvModel(y.window(lo, hi + 1)), None
    fit = sample(model, cfg.sampler, fit_seed)
    fc = forecast(fit, horizon, n_draws=cfg.n_draws, mode=cfg.mode,
                  vol_mode=cfg.vol_mode, exog_future=exog, seed=fc_seed)
    return fit, fc


def _assert_fold_is_direct(rep, family, y, frame, fold, cfg, seeds):
    a, b, c, d = fold
    fit, fc = _direct(family, y, frame, a, b, d - c + 1, cfg, *seeds)
    actual = y.values[c:d + 1]
    assert rep.mae == mae(actual, fc.mean)
    assert rep.rmse == rmse(actual, fc.mean)
    assert rep.max_rhat == fit.diagnostics["max_rhat"]
    assert rep.min_ess == min(fit.diagnostics["ess"].values())
    assert rep.divergences == fit.diagnostics["divergences"]


def _three_fold_material():
    _, _, truth = synthesize(SynthSpec(mu=-1.0, phi=0.9, sigma=0.3,
                                       n_days=121, mean_price=1000.0, seed=4))
    frame = ExogenousFrame.from_daily(truth.daily_prices, truth.daily_temps)
    y = truth.daily_prices.window(1, 121)
    plan = build_folds(len(y), 60, 20)
    assert len(plan) == 3
    return y, frame, plan


def _fold_seeds(seed, n):
    ss = np.random.SeedSequence(seed).spawn(2 * n)
    return [(int(ss[2 * i].generate_state(1)[0]),
             int(ss[2 * i + 1].generate_state(1)[0])) for i in range(n)]


def test_cross_validate_folds_equal_direct_fits():
    # the folds of a combination run as rows of one lockstep loop; each
    # must still equal a direct fit and forecast on its window with its
    # own pair of seeds, bit for bit
    y, frame, plan = _three_fold_material()
    combos = [CvCombination("baseline", 14, 1, y, exog=frame),
              CvCombination("svx", 14, 1, y, exog=frame)]
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=100)
    summary = cross_validate(combos, plan, cfg, seed=12)
    seeds = _fold_seeds(12, len(combos) * len(plan))
    for ci, combo in enumerate(combos):
        assert not summary.failures[combo.model_id]
        reports = summary.reports[combo.model_id]
        assert [r.fold_id for r in reports] == [0, 1, 2]
        for fi, rep in enumerate(reports):
            _assert_fold_is_direct(rep, combo.family, y, frame,
                                   plan.folds[fi], cfg,
                                   seeds[ci * len(plan) + fi])


def test_cross_validate_failed_fit_fails_only_its_fold(monkeypatch):
    # fold 1's fit cannot start (a non-finite log density at every
    # chain's initial position): that fold alone is a NonFiniteLogp
    # failure, and the folds beside it in its lockstep group still equal
    # their direct fits
    from spotvol import BaselineSvModel

    y, frame, plan = _three_fold_material()
    start = BaselineSvModel.initial_position

    def initial_position(model, rng):
        theta = start(model, rng)
        if model.dates[0] == y.dates[plan.folds[1][0]]:
            theta[:] = np.nan
        return theta

    monkeypatch.setattr(BaselineSvModel, "initial_position",
                        initial_position)
    combo = CvCombination("svx", 14, 1, y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=100)
    summary = cross_validate([combo], plan, cfg, seed=13)
    assert summary.failures[combo.model_id] == [
        (1, "NonFiniteLogp: log density not finite at the initial position")]
    seeds = _fold_seeds(13, len(plan))
    reports = summary.reports[combo.model_id]
    assert [r.fold_id for r in reports] == [0, 2]
    for rep in reports:
        _assert_fold_is_direct(rep, "svx", y, frame, plan.folds[rep.fold_id],
                               cfg, seeds[rep.fold_id])


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


@pytest.mark.parametrize("n_chains", [0, 1])
def test_invalid_sampler_fails_the_run_before_any_fit(monkeypatch, n_chains):
    import spotvol.backtest as bt
    from spotvol.errors import InvalidConfig
    from tests.conftest import per_fit

    def no_sample(model, cfg, seed):
        raise AssertionError("an invalid sampler must not fit")

    monkeypatch.setattr(bt, "sample_fits", per_fit(no_sample))
    y, frame, plan = _three_fold_material()
    combo = CvCombination("svx", 14, 1, y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(n_chains=n_chains))
    with pytest.raises(InvalidConfig):
        cross_validate([combo], plan, cfg, seed=1)
    with pytest.raises(InvalidConfig):
        rolling_forecast(combo, (str(y.dates[0]), str(y.dates[59])), 2,
                         cfg, seed=1)


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
    assert len(res.max_rhat) == 3 and min(res.max_rhat) >= 1.0
    assert len(res.min_ess) == 3 and min(res.min_ess) > 0.0
    assert len(res.divergences) == 3 and min(res.divergences) >= 0
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
    assert_summaries_exact(res.forecast)
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
        assert res.max_rhat[j] == fit.diagnostics["max_rhat"]


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


@pytest.mark.parametrize("horizon_days", [0, -1])
def test_rolling_forecast_horizon_below_one_fails_before_any_fit(
        monkeypatch, horizon_days):
    import spotvol.backtest as bt
    from spotvol.errors import HorizonZero
    from tests.conftest import per_fit

    def no_sample(model, cfg, seed):
        raise AssertionError("a horizon below one must not fit")

    monkeypatch.setattr(bt, "sample_fits", per_fit(no_sample))
    truth, y, frame = _cv_material(n_days=80, seed=5)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=100)
    with pytest.raises(HorizonZero):
        rolling_forecast(combo, (str(y.dates[0]), str(y.dates[59])),
                         horizon_days, cfg, seed=3)


@pytest.mark.parametrize("T, groups", [
    (360, [8, 2]),          # 16 rows of 2 chains: 8 fits a group
    (1000, [2] * 5),        # 16 x 360 row-days: 5 rows, so 2 fits a group
])
def test_lockstep_groups_bounded_by_rows_and_days(monkeypatch, T, groups):
    import spotvol.backtest as bt
    from tests.conftest import degenerate_fit

    sizes = []

    def sample_fits(models, cfg, seeds, errors=()):
        sizes.append(len(models))
        return [degenerate_fit(m) for m in models]

    monkeypatch.setattr(bt, "sample_fits", sample_fits)
    _, _, truth = synthesize(SynthSpec(mu=-1.0, phi=0.9, sigma=0.3,
                                       n_days=T + 10, mean_price=1000.0,
                                       seed=8))
    y = truth.daily_prices
    combo = CvCombination("baseline", hour=14, zone=1, series=y)
    cfg = BacktestConfig(sampler=fast_sampler(n_chains=2), n_draws=50)
    res = rolling_forecast(combo, (str(y.dates[0]), str(y.dates[T - 1])),
                           10, cfg, seed=3)
    assert res.forecast.horizon == 10
    assert sizes == groups


def test_rolling_forecast_string_modes_serialize(monkeypatch):
    # the config file hands the modes over as strings; the rolling
    # forecast set must still serialize them
    import spotvol.backtest as bt
    from tests.conftest import degenerate_fit, per_fit

    monkeypatch.setattr(bt, "sample_fits",
                        per_fit(lambda model, cfg, seed: degenerate_fit(model)))
    truth, y, frame = _cv_material(n_days=80, seed=5)
    combo = CvCombination("baseline", hour=14, zone=1, series=y, exog=frame)
    cfg = BacktestConfig(sampler=fast_sampler(), n_draws=100, mode="point",
                         vol_mode="hold")
    res = rolling_forecast(combo, (str(y.dates[0]), str(y.dates[59])), 1,
                           cfg, seed=3)
    doc = res.forecast.to_json_dict()
    assert doc["mode"] == "point" and doc["vol_mode"] == "hold"
