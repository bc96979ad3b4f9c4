"""CSV ingestion and synthetic data generation.

Canonical file schemas (CSV, UTF-8, comma-separated, ISO-8601 dates,
header row required):

    prices:  date,hour,price
    weather: date,hour,temp_c

Adapters for raw market or weather-archive exports are user-side
preprocessing; this module only accepts the canonical layout.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, NonFinite, ParseError
from .series import DailySeries, HourlyTable, PriceSeries, Zone, weekday_codes

PRICE_SCHEMA = ("date", "hour", "price")
WEATHER_SCHEMA = ("date", "hour", "temp_c")


_RECORD = np.dtype([("date", "M8[D]"), ("hour", "i8"), ("value", "f8")])


def _check_header(reader, schema) -> None:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "empty file, expected header") from None
    if tuple(h.strip() for h in header) != schema:
        raise ParseError(1, f"header {header!r} does not match {list(schema)}")


def _parse_rows(path, schema) -> HourlyTable:
    """Row-by-row reference parser: reports the first bad line of a file."""
    dates, hours, values = [], [], []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _check_header(reader, schema)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
            try:
                date = np.datetime64(row[0].strip(), "D")
            except ValueError:
                raise ParseError(line_no, f"bad date {row[0]!r}") from None
            try:
                hour = int(row[1])
            except ValueError:
                raise ParseError(line_no, f"bad hour {row[1]!r}") from None
            if not 0 <= hour <= 23:
                raise ParseError(line_no, f"hour {hour} not in [0, 23]")
            try:
                value = float(row[2])
            except ValueError:
                raise ParseError(line_no, f"bad value {row[2]!r}") from None
            if not math.isfinite(value):
                raise NonFinite(f"line {line_no}: non-finite value {row[2]!r}")
            dates.append(date)
            hours.append(hour)
            values.append(value)
    return HourlyTable(np.array(dates, dtype="datetime64[D]"),
                       np.array(hours), np.array(values))


def _load_table(path, schema) -> HourlyTable:
    """Parse the body in one ``np.loadtxt`` pass. Whatever that pass
    rejects or warns about, or reads as an hour outside [0, 23] or a
    non-finite value, is parsed again by `_parse_rows`, so that a bad file
    raises the reference parser's error for its first bad line, and syntax
    only Python's ``int``/``float`` accept (``1_000``, non-ASCII digits)
    loads as before."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        _check_header(csv.reader(fh), schema)
        try:
            text = fh.read()
            with warnings.catch_warnings():
                # numpy warns where it reads more than the row parser
                # accepts: an hour `7.0` or `1e1` (read through a float by
                # numpy releases that only deprecate it), a timezone on a
                # date, or a body without rows
                warnings.simplefilter("error")
                rec = np.loadtxt(io.StringIO(text, newline=""), dtype=_RECORD,
                                 delimiter=",", comments=None, quotechar='"',
                                 ndmin=1)
        except (ValueError, Warning):
            return _parse_rows(path, schema)
    dates, hours, values = (np.ascontiguousarray(rec[f]) for f in _RECORD.names)
    if ((hours < 0) | (hours > 23)).any() or not np.isfinite(values).all():
        return _parse_rows(path, schema)
    return HourlyTable(dates, hours, values)


def load_prices(path) -> HourlyTable:
    """Parse a canonical price CSV (`date,hour,price`)."""
    return _load_table(path, PRICE_SCHEMA)


def load_weather(path) -> HourlyTable:
    """Parse a canonical weather CSV (`date,hour,temp_c`)."""
    return _load_table(path, WEATHER_SCHEMA)


def write_csv(path, header, rows) -> None:
    """Write a header row, then `rows`, as UTF-8 CSV; every output CSV of
    the package goes through here except `export_hourly`'s, which writes
    the same dialect in one formatted pass."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write `payload` as JSON with sorted keys; every output JSON file of
    the package goes through here, so reruns are byte-identical."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def export_hourly(table: HourlyTable, path, value_name: str) -> None:
    """Write an HourlyTable back to the canonical CSV layout.

    Values are written with repr round-tripping, so load(export(t)) == t.
    The bytes are those of `write_csv`: no field needs quoting, since ISO
    dates, ints and float reprs hold no comma, quote or line break. Each
    distinct day's date string is made once.
    """
    order = np.lexsort((table.hours, table.dates.view("int64")))
    days, day_of_row = np.unique(table.dates[order], return_inverse=True)
    day_text = days.astype(str).tolist()
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"date,hour,{value_name}\r\n")
        fh.write("".join(
            f"{day_text[d]},{h},{v!r}\r\n" for d, h, v in zip(
                day_of_row.tolist(), table.hours[order].tolist(),
                table.values[order].tolist())))


@dataclass(frozen=True)
class SvxCoeffs:
    """True exogenous coefficients used by the generator."""

    alpha: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    gamma: float = 0.0
    xi: float = 0.0

    def as_tuple(self):
        return (self.alpha, self.beta1, self.beta2, self.beta3,
                self.gamma, self.xi)


@dataclass(frozen=True)
class TempSpec:
    """Synthetic temperature path: annual sinusoid plus AR(1) noise."""

    mean: float = 5.0
    amplitude: float = 15.0
    phase_days: float = 105.0  # shifts the seasonal peak within the year
    ar_phi: float = 0.7
    ar_sigma: float = 2.5


@dataclass(frozen=True)
class SynthSpec:
    """Forward-simulation recipe for a latent-volatility price process."""

    mu: float
    phi: float
    sigma: float
    n_days: int
    mean_price: float
    seed: int
    start_date: str = "2020-01-01"
    hour: int = 14
    zone: int = 1
    hourly_amp_price: float = 0.0
    hourly_amp_temp: float = 0.0
    svx: SvxCoeffs | None = None
    temp: TempSpec = field(default_factory=TempSpec)

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise InvalidSpec(f"|phi| must be < 1, got {self.phi}")
        if not self.sigma > 0:
            raise InvalidSpec(f"sigma must be > 0, got {self.sigma}")
        if self.n_days < 2:
            raise InvalidSpec(f"n_days must be >= 2, got {self.n_days}")
        if not 0 <= self.hour <= 23:
            raise InvalidSpec(f"hour {self.hour} not in [0, 23]")
        if self.zone not in (1, 2):
            raise InvalidSpec(f"zone must be 1 or 2, got {self.zone}")


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth recorded next to a synthetic dataset, for test oracles."""

    spec: SynthSpec
    h: np.ndarray                # latent log volatility per day
    daily_prices: PriceSeries    # the series at the reference hour
    daily_temps: DailySeries


def _ar1_path(rng, n, phi, sigma):
    z = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = sigma / math.sqrt(1.0 - phi * phi) * z[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + sigma * z[t]
    return x


def synthesize(spec: SynthSpec):
    """Simulate (prices, temps) hourly tables plus the generating truth.

    The latent log volatility h follows its AR(1) recursion exactly; the
    reference-hour price is mean_price (plus the exogenous regression terms
    when svx coefficients are given) with observation scale exp(h/2).
    Other hours are deterministic sinusoidal offsets of the reference hour,
    so selecting the reference hour recovers the daily series bit-for-bit.
    """
    n = spec.n_days
    ss = np.random.SeedSequence(spec.seed)
    rng_h, rng_eps, rng_temp = (np.random.default_rng(c) for c in ss.spawn(3))

    h = _ar1_path(rng_h, n, spec.phi, spec.sigma) + spec.mu
    eps = rng_eps.standard_normal(n)

    start = np.datetime64(spec.start_date, "D")
    dates = start + np.arange(n)
    day_index = np.arange(n, dtype=float)
    seasonal = spec.temp.amplitude * np.sin(
        2.0 * math.pi * (day_index - spec.temp.phase_days) / 365.25)
    temp = spec.temp.mean + seasonal + _ar1_path(
        rng_temp, n, spec.temp.ar_phi, spec.temp.ar_sigma)

    scale = np.exp(h / 2.0)
    y = np.empty(n)
    y[0] = spec.mean_price + scale[0] * eps[0]
    if spec.svx is None:
        y[1:] = spec.mean_price + scale[1:] * eps[1:]
    else:
        a, b1, b2, b3, g, xi = spec.svx.as_tuple()
        wd = weekday_codes(dates).astype(float)
        for t in range(1, n):
            x = temp[t - 1]
            y[t] = (spec.mean_price + a * y[t - 1]
                    + b3 * x ** 3 + b2 * x ** 2 + b1 * x
                    + g * wd[t] + xi + scale[t] * eps[t])

    daily_prices = PriceSeries(dates, y, spec.hour, Zone(spec.zone))
    daily_temps = DailySeries(dates, temp, spec.hour)

    hours = np.arange(24)
    price_offsets = spec.hourly_amp_price * np.sin(
        2.0 * math.pi * (hours - spec.hour) / 24.0)
    temp_offsets = spec.hourly_amp_temp * np.sin(
        2.0 * math.pi * (hours - spec.hour) / 24.0)

    all_dates = np.repeat(dates, 24)
    all_hours = np.tile(hours, n)
    price_values = (np.repeat(y, 24) + np.tile(price_offsets, n))
    temp_values = (np.repeat(temp, 24) + np.tile(temp_offsets, n))

    prices = HourlyTable(all_dates, all_hours, price_values)
    temps = HourlyTable(all_dates, all_hours, temp_values)
    truth = SynthTruth(spec, h, daily_prices, daily_temps)
    return prices, temps, truth
