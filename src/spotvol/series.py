"""Core domain types: hourly tables, daily series, exogenous frames, fold plans.

All containers are frozen dataclasses over read-only numpy arrays. Dates are
numpy datetime64[D]; no timezone handling happens here (ingest resolves local
time before handoff).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .errors import (
    DuplicateRecord,
    EmptyTable,
    HourOutOfRange,
    InsufficientData,
    MisalignedFrames,
    MissingDate,
    MissingDay,
)

ONE_DAY = np.timedelta64(1, "D")


class Zone(IntEnum):
    """Price zone of the day-ahead market."""

    ZONE1 = 1  # European
    ZONE2 = 2  # Siberian


def _as_dates(dates) -> np.ndarray:
    arr = np.asarray(dates, dtype="datetime64[D]")
    arr.setflags(write=False)
    return arr


def _as_floats(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def weekday_codes(dates: np.ndarray) -> np.ndarray:
    """Calendar weekday per date, 0 (Monday) .. 6 (Sunday)."""
    days = np.asarray(dates, dtype="datetime64[D]").view("int64")
    return ((days + 3) % 7).astype(np.int64)  # epoch day 0 was a Thursday


@dataclass(frozen=True)
class HourlyTable:
    """Raw (date, hour, value) records with unique keys and finite values."""

    dates: np.ndarray   # datetime64[D], one per record
    hours: np.ndarray   # int, 0..23
    values: np.ndarray  # float64

    def __post_init__(self):
        object.__setattr__(self, "dates", _as_dates(self.dates))
        hours = np.asarray(self.hours, dtype=np.int64)
        hours.setflags(write=False)
        object.__setattr__(self, "hours", hours)
        object.__setattr__(self, "values", _as_floats(self.values))
        if not (len(self.dates) == len(self.hours) == len(self.values)):
            raise ValueError("dates, hours, values must have equal length")
        if len(self.hours) and (self.hours.min() < 0 or self.hours.max() > 23):
            raise HourOutOfRange("hours must lie in [0, 23]")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        nat = np.flatnonzero(np.isnat(self.dates))
        if len(nat):
            raise MissingDate(f"empty or NaT date in record {nat[0]} "
                              f"(hour {self.hours[nat[0]]})")
        keys = self.dates.view("int64") * 24 + self.hours
        order = np.argsort(keys, kind="stable")
        dup = np.flatnonzero(np.diff(keys[order]) == 0)
        if len(dup):
            i = order[dup[0] + 1]
            raise DuplicateRecord(self.dates[i], int(self.hours[i]))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DailySeries:
    """One value per calendar day at a fixed market hour, contiguous dates."""

    dates: np.ndarray
    values: np.ndarray
    hour: int

    def __post_init__(self):
        object.__setattr__(self, "dates", _as_dates(self.dates))
        object.__setattr__(self, "values", _as_floats(self.values))
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have equal length")
        if not (0 <= self.hour <= 23):
            raise HourOutOfRange(f"hour {self.hour} not in [0, 23]")
        if len(self.dates) > 1 and not np.all(np.diff(self.dates) == ONE_DAY):
            raise ValueError("dates must increase in steps of exactly one day")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def window(self, start: int, stop: int) -> "DailySeries":
        """Positional slice [start, stop)."""
        return replace(self, dates=self.dates[start:stop],
                       values=self.values[start:stop])


@dataclass(frozen=True)
class PriceSeries(DailySeries):
    """Daily spot prices (RUB/MWh) for one market hour and price zone."""

    zone: Zone = Zone.ZONE1


@dataclass(frozen=True)
class ExogenousFrame:
    """Per-day regressor matrix aligned with a price series.

    Row t carries the previous day's price and temperature (plus its square
    and cube) together with the weekday code of day t, so no column looks at
    information from day t itself except the calendar. Only the observed
    columns are stored; the temperature powers and the weekday code are
    derived on access.
    """

    dates: np.ndarray
    lag_price: np.ndarray
    temp_lag: np.ndarray

    COLUMNS = ("lag_price", "temp_lag", "temp_lag_sq", "temp_lag_cu", "weekday")

    def __post_init__(self):
        object.__setattr__(self, "dates", _as_dates(self.dates))
        for name in ("lag_price", "temp_lag"):
            object.__setattr__(self, name, _as_floats(getattr(self, name)))
            if len(getattr(self, name)) != len(self.dates):
                raise ValueError(f"column {name} length mismatch")
        if len(self.dates) > 1 and not np.all(np.diff(self.dates) == ONE_DAY):
            raise ValueError("dates must increase in steps of exactly one day")

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def temp_lag_sq(self) -> np.ndarray:
        return self.temp_lag ** 2

    @property
    def temp_lag_cu(self) -> np.ndarray:
        return self.temp_lag ** 3

    @property
    def weekday(self) -> np.ndarray:
        return weekday_codes(self.dates).astype(float)

    @classmethod
    def from_daily(cls, prices: DailySeries, temps: DailySeries) -> "ExogenousFrame":
        """Join a price and a temperature series into a lag-1 design frame.

        Both series must cover the same date range. The first day is dropped:
        it has no lagged observation.
        """
        if len(prices) != len(temps) or not np.array_equal(prices.dates, temps.dates):
            raise MisalignedFrames("price and temperature series must share dates")
        if len(prices) < 2:
            raise InsufficientData("need at least 2 days to form lagged columns")
        return cls(dates=prices.dates[1:], lag_price=prices.values[:-1],
                   temp_lag=temps.values[:-1])

    def matrix(self) -> np.ndarray:
        """Design matrix with columns in COLUMNS order, shape (n, 5)."""
        return np.column_stack([getattr(self, c) for c in self.COLUMNS])

    def window(self, start: int, stop: int) -> "ExogenousFrame":
        return ExogenousFrame(self.dates[start:stop], self.lag_price[start:stop],
                              self.temp_lag[start:stop])


@dataclass(frozen=True)
class FoldPlan:
    """Sliding train/test windows expressed as day offsets.

    Each fold is (train_start, train_end, test_start, test_end), all
    inclusive day indices. Consecutive folds advance by test_days.
    """

    folds: tuple
    train_days: int
    test_days: int

    def __len__(self) -> int:
        return len(self.folds)

    def date_folds(self, start_date) -> list:
        """Folds as (train_start, train_end, test_start, test_end) dates."""
        d0 = np.datetime64(start_date, "D")
        return [tuple(d0 + np.timedelta64(i, "D") for i in f) for f in self.folds]


def select_hour(raw: HourlyTable, hour: int, zone: Zone = Zone.ZONE1) -> PriceSeries:
    """Extract the daily series of values at one fixed hour.

    The table must contain that hour on every calendar day of its span;
    gaps raise MissingDay rather than being filled.
    """
    if not (0 <= hour <= 23):
        raise HourOutOfRange(f"hour {hour} not in [0, 23]")
    if len(raw) == 0:
        raise EmptyTable("hourly table has no records")
    mask = raw.hours == hour
    dates = raw.dates[mask]
    values = raw.values[mask]
    span = np.arange(raw.dates.min(), raw.dates.max() + ONE_DAY, ONE_DAY)
    if len(dates) != len(span):
        missing = np.setdiff1d(span, dates)
        raise MissingDay(missing[0])
    order = np.argsort(dates)
    return PriceSeries(dates[order], values[order], hour, zone)


def hourly_profile(raw: HourlyTable) -> np.ndarray:
    """Arithmetic mean value per hour of day, vector of length 24."""
    if len(raw) == 0:
        raise EmptyTable("hourly table has no records")
    profile = np.zeros(24)
    for h in range(24):
        vals = raw.values[raw.hours == h]
        if len(vals) == 0:
            raise MissingDay(f"no records at hour {h}")
        profile[h] = vals.mean()
    return profile


def build_folds(total_days: int, train_days: int, test_days: int) -> FoldPlan:
    """Sliding-window fold plan: train window then test window, advancing by
    the test width. Fold count is floor((total - train) / test)."""
    if min(total_days, train_days, test_days) <= 0:
        raise InsufficientData("all window sizes must be positive")
    if total_days < train_days + test_days:
        raise InsufficientData(
            f"{total_days} days cannot hold a {train_days}+{test_days} window"
        )
    n_folds = (total_days - train_days) // test_days
    folds = []
    for k in range(n_folds):
        train_start = k * test_days
        train_end = train_start + train_days - 1
        test_start = train_end + 1
        test_end = test_start + test_days - 1
        folds.append((train_start, train_end, test_start, test_end))
    return FoldPlan(tuple(folds), train_days, test_days)
