import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotvol import (
    ExogenousFrame,
    HourlyTable,
    PriceSeries,
    SynthSpec,
    Zone,
    build_folds,
    hourly_profile,
    select_hour,
    synthesize,
)
from spotvol.errors import (
    EmptyTable,
    HourOutOfRange,
    InsufficientData,
    MisalignedFrames,
    MissingDay,
)
from spotvol.series import DailySeries, weekday_codes


def make_table(n_days=3, base=1000.0, start="2024-01-01"):
    dates = np.repeat(np.arange(np.datetime64(start), np.datetime64(start)
                                + np.timedelta64(n_days, "D")), 24)
    hours = np.tile(np.arange(24), n_days)
    values = base + hours + 0.01 * np.arange(len(hours))
    return HourlyTable(dates, hours, values)


def test_select_hour_extracts_column():
    table = make_table(3)
    series = select_hour(table, 14)
    assert len(series) == 3
    mask = table.hours == 14
    assert np.array_equal(series.values, table.values[mask])
    assert series.hour == 14


def test_select_hour_missing_day():
    table = make_table(3)
    keep = ~((table.dates == np.datetime64("2024-01-02")) & (table.hours == 14))
    broken = HourlyTable(table.dates[keep], table.hours[keep], table.values[keep])
    with pytest.raises(MissingDay):
        select_hour(broken, 14)


def test_select_hour_constant_table():
    table = make_table(4)
    const = HourlyTable(table.dates, table.hours, np.full(len(table), 1000.0))
    for hour in (0, 11, 23):
        assert np.all(select_hour(const, hour).values == 1000.0)


def test_select_hour_bad_hour():
    with pytest.raises(HourOutOfRange):
        select_hour(make_table(2), 24)


def test_select_hour_round_trip():
    # synthesize a table from a daily series, select the hour back
    rng = np.random.default_rng(5)
    dates = np.arange(np.datetime64("2023-03-01"), np.datetime64("2023-03-11"))
    values = 900 + 50 * rng.standard_normal(10)
    series = PriceSeries(dates, values, hour=7, zone=Zone.ZONE2)
    all_dates = np.repeat(dates, 24)
    all_hours = np.tile(np.arange(24), 10)
    all_values = rng.uniform(0, 1, len(all_hours))
    all_values[all_hours == 7] = values
    table = HourlyTable(all_dates, all_hours, all_values)
    back = select_hour(table, 7, Zone.ZONE2)
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.dates, series.dates)


def test_hourly_profile_mean_of_two():
    dates = np.repeat(np.arange(np.datetime64("2024-01-01"),
                                np.datetime64("2024-01-03")), 24)
    hours = np.tile(np.arange(24), 2)
    values = np.zeros(48)
    values[hours == 0] = [100.0, 300.0]
    table = HourlyTable(dates, hours, values)
    profile = hourly_profile(table)
    assert profile[0] == 200.0


def test_hourly_profile_constant():
    table = make_table(3)
    const = HourlyTable(table.dates, table.hours, np.full(len(table), 1000.0))
    assert np.allclose(hourly_profile(const), 1000.0)


def test_hourly_profile_empty():
    with pytest.raises(EmptyTable):
        hourly_profile(HourlyTable(np.array([], dtype="datetime64[D]"),
                                   np.array([], dtype=int), np.array([])))


def test_hourly_profile_matches_generator_closed_form():
    # sinusoidal intraday modulation: profile is daily mean + known offsets
    spec = SynthSpec(mu=-3.0, phi=0.5, sigma=0.2, n_days=40, mean_price=500.0,
                     seed=9, hour=12, hourly_amp_price=80.0)
    prices, _, truth = synthesize(spec)
    profile = hourly_profile(prices)
    hours = np.arange(24)
    expected = truth.daily_prices.values.mean() + 80.0 * np.sin(
        2 * np.pi * (hours - 12) / 24.0)
    assert np.max(np.abs(profile - expected)) < 1e-12 * 500.0


def test_build_folds_paper_counts():
    plan = build_folds(3600, 360, 90)
    assert len(plan) == 36
    assert build_folds(450, 360, 90).folds == ((0, 359, 360, 449),)


def test_build_folds_against_enumeration():
    # independent window enumeration oracle
    plan = build_folds(3600, 360, 90)
    expected = []
    start = 0
    while start + 360 + 90 <= 3600:
        expected.append((start, start + 359, start + 360, start + 449))
        start += 90
    assert list(plan.folds) == expected
    for k, fold in enumerate(plan.folds):
        assert fold[0] == 90 * k


def test_build_folds_insufficient():
    with pytest.raises(InsufficientData):
        build_folds(100, 90, 20)
    with pytest.raises(InsufficientData):
        build_folds(100, 0, 10)


@given(st.integers(1, 400), st.integers(1, 200), st.integers(1, 100))
@settings(max_examples=200, deadline=None)
def test_build_folds_count_formula(total, train, test):
    if total < train + test:
        with pytest.raises(InsufficientData):
            build_folds(total, train, test)
        return
    plan = build_folds(total, train, test)
    assert len(plan) == (total - train) // test
    for a, b, c, d in plan.folds:
        assert c == b + 1
        assert b - a + 1 == train
        assert d - c + 1 == test
        assert d < total
    for prev, nxt in zip(plan.folds, plan.folds[1:]):
        assert nxt[0] - prev[0] == test


def test_exogenous_frame_drops_first_day(baseline_truth):
    prices = baseline_truth.daily_prices
    temps = baseline_truth.daily_temps
    frame = ExogenousFrame.from_daily(prices, temps)
    assert len(frame) == len(prices) - 1
    assert frame.dates[0] == prices.dates[1]
    assert np.array_equal(frame.lag_price, prices.values[:-1])
    assert np.array_equal(frame.temp_lag, temps.values[:-1])
    assert np.array_equal(frame.temp_lag_sq, temps.values[:-1] ** 2)
    assert np.array_equal(frame.temp_lag_cu, temps.values[:-1] ** 3)
    assert np.array_equal(frame.weekday, weekday_codes(frame.dates).astype(float))


def test_exogenous_frame_deterministic(baseline_truth):
    a = ExogenousFrame.from_daily(baseline_truth.daily_prices,
                                  baseline_truth.daily_temps)
    b = ExogenousFrame.from_daily(baseline_truth.daily_prices,
                                  baseline_truth.daily_temps)
    assert np.array_equal(a.matrix(), b.matrix())


def test_exogenous_frame_misaligned(baseline_truth):
    prices = baseline_truth.daily_prices
    temps = baseline_truth.daily_temps
    with pytest.raises(MisalignedFrames):
        ExogenousFrame.from_daily(prices.window(0, 100), temps.window(1, 101))


def test_weekday_codes_known_dates():
    # 2024-01-01 was a Monday
    codes = weekday_codes(np.arange(np.datetime64("2024-01-01"),
                                    np.datetime64("2024-01-08")))
    assert list(codes) == [0, 1, 2, 3, 4, 5, 6]


def test_daily_series_validation():
    dates = np.arange(np.datetime64("2024-01-01"), np.datetime64("2024-01-04"))
    with pytest.raises(ValueError):
        DailySeries(dates[[0, 2, 1]], np.ones(3), hour=3)
    with pytest.raises(ValueError):
        DailySeries(dates, np.array([1.0, np.nan, 2.0]), hour=3)
    with pytest.raises(HourOutOfRange):
        DailySeries(dates, np.ones(3), hour=25)


def test_price_series_window_keeps_zone():
    dates = np.arange(np.datetime64("2024-01-01"), np.datetime64("2024-01-11"))
    s = PriceSeries(dates, np.arange(10.0) + 1, hour=5, zone=Zone.ZONE2)
    w = s.window(2, 6)
    assert isinstance(w, PriceSeries)
    assert w.zone == Zone.ZONE2
    assert np.array_equal(w.values, [3.0, 4.0, 5.0, 6.0])


def test_daily_series_locate():
    dates = np.arange(np.datetime64("2024-01-01"), np.datetime64("2024-01-11"))
    s = DailySeries(dates, np.arange(10.0), hour=5)
    assert s.locate("2024-01-03", dates[6]) == (2, 6)
    assert s.locate(dates[0], dates[-1]) == (0, 9)
    assert s.locate("2024-01-04", "2024-01-04") == (3, 3)
    assert s.locate("2023-12-31", "2024-01-05") is None  # before day 0
    assert s.locate("2024-01-05", "2024-01-11") is None  # past the end
    assert s.locate("2024-01-05", "2024-01-04") is None  # reversed
    assert s.locate(None, "2024-01-04") is None          # NaT
    assert s.window(0, 0).locate("2024-01-01", "2024-01-01") is None
