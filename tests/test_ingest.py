import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotvol import (
    HourlyTable,
    SvxCoeffs,
    SynthSpec,
    export_hourly,
    load_prices,
    load_weather,
    select_hour,
    synthesize,
)
from spotvol.errors import (
    DuplicateRecord,
    InvalidSpec,
    MissingDate,
    MissingDay,
    NonFinite,
    ParseError,
)


def write(path, text):
    path.write_text(text)
    return path


def test_load_prices_well_formed(tmp_path):
    p = write(tmp_path / "p.csv",
              "date,hour,price\n"
              "2024-01-01,0,1000.5\n"
              "2024-01-01,1,1001.0\n"
              "2024-01-02,0,999.25\n")
    table = load_prices(p)
    assert len(table) == 3
    assert table.values[0] == 1000.5


def test_load_prices_nan_rejected(tmp_path):
    p = write(tmp_path / "p.csv", "date,hour,price\n2024-01-01,0,NaN\n")
    with pytest.raises(NonFinite):
        load_prices(p)


def test_load_prices_bad_header(tmp_path):
    p = write(tmp_path / "p.csv", "day,hour,price\n2024-01-01,0,1\n")
    with pytest.raises(ParseError):
        load_prices(p)


def test_load_prices_bad_rows(tmp_path):
    with pytest.raises(ParseError):
        load_prices(write(tmp_path / "a.csv",
                          "date,hour,price\nnot-a-date,0,1\n"))
    with pytest.raises(ParseError):
        load_prices(write(tmp_path / "b.csv",
                          "date,hour,price\n2024-01-01,24,1\n"))
    with pytest.raises(ParseError):
        load_prices(write(tmp_path / "c.csv",
                          "date,hour,price\n2024-01-01,3,abc\n"))
    with pytest.raises(ParseError):
        load_prices(write(tmp_path / "d.csv", "date,hour,price\n2024-01-01,3\n"))


def test_load_prices_duplicate(tmp_path):
    p = write(tmp_path / "p.csv",
              "date,hour,price\n2024-01-01,0,1\n2024-01-01,0,2\n")
    with pytest.raises(DuplicateRecord):
        load_prices(p)


def test_load_weather_negative_and_gaps(tmp_path):
    p = write(tmp_path / "w.csv",
              "date,hour,temp_c\n"
              "2024-01-01,0,-12.5\n"
              "2024-01-01,3,-11.0\n"
              "2024-01-02,3,-10.0\n")
    table = load_weather(p)
    assert table.values[0] == -12.5
    # the hour-0 gap on day 2 only surfaces when that hour is selected
    with pytest.raises(MissingDay):
        select_hour(table, 0)
    assert len(select_hour(table, 3)) == 2


def test_round_trip_export(tmp_path):
    spec = SynthSpec(mu=-1.0, phi=0.8, sigma=0.3, n_days=15, mean_price=1234.5,
                     seed=3, hourly_amp_price=50.0, hourly_amp_temp=2.0)
    prices, temps, _ = synthesize(spec)
    export_hourly(prices, tmp_path / "p.csv", "price")
    export_hourly(temps, tmp_path / "w.csv", "temp_c")
    p2 = load_prices(tmp_path / "p.csv")
    w2 = load_weather(tmp_path / "w.csv")
    for orig, back in ((prices, p2), (temps, w2)):
        key = np.lexsort((orig.hours, orig.dates.view("int64")))
        key2 = np.lexsort((back.hours, back.dates.view("int64")))
        assert np.array_equal(orig.values[key], back.values[key2])
        assert np.array_equal(orig.dates[key], back.dates[key2])


def _reference_load(path, schema):
    """The row-by-row loader as it stood before the columnar parse: the
    oracle that load_prices must agree with on every input."""
    dates, hours, values = [], [], []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file, expected header") from None
        if tuple(h.strip() for h in header) != schema:
            raise ParseError(1, f"header {header!r} does not match {list(schema)}")
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


def _outcome(load, path):
    """Arrays (dtype and bytes) of the loaded table, or the exception's type
    and message, with every warning emitted on the way (category, text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            t = load(path)
            result = tuple((a.dtype, a.tobytes())
                           for a in (t.dates, t.hours, t.values))
        except Exception as exc:
            result = type(exc), str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def _digits(text, zero):
    return "".join(chr(ord(zero) + int(c)) if "0" <= c <= "9" else c
                   for c in text)


DECORATIONS = [
    lambda f: '"' + f.replace('"', '""') + '"',   # quoted
    lambda f: '"' + f + '\n"',                    # quoted line break
    lambda f: f" {f} ", lambda f: f"\t{f}\t", lambda f: f"{f} ",
    lambda f: f"\xa0{f}", lambda f: "+" + f, lambda f: "0" + f,
    lambda f: f + ".0", lambda f: f[:1] + "_" + f[1:],
    lambda f: _digits(f, "\uff10"),               # fullwidth digits
    lambda f: _digits(f, "\u0660"),               # Arabic-Indic digits
]
ODD_DATES = ["NaT", "", "2024-01", "2024-01-05T00", "2024", "2024-1-5",
             "2024-02-30", "x", '"2,5"', "2024-01-05T13:45", "2024-01-05T00Z",
             "2024-01-05T00+01"]
ODD_HOURS = ["24", "-1", "+6", "07", "7.0", "7.9", "1e1", "1_0", "", "x",
             '"2,5"', "-0", "99999999999999999999"]
ODD_VALUES = ["inf", "-inf", "nan", "NaN", "1e400", "1_000", "", "abc",
              '"2,5"', "0x10", "1e-400", "5e-324", "-0.0", "1e22", "+6",
              "07", "7.0", ".5", "5.", "1e5"]
ODD_LINES = ["", " ", "\t", "   ", "# comment", "#2024-01-05,1,2", ",,", '""',
             "2024-01-05,1", "2024-01-05,1,2,3", "2024-01-05,1,2,"]
HEADERS = [" date , hour,\tprice", '"date","hour","price"', "date,hour",
           "day,hour,price", ""]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def price_csv(draw):
    """CSV text: well-formed records (consecutive keys, plain fields) with
    odd fields, odd lines and decorated fields mixed in at a rate drawn per
    file, from none (a file the columnar parse takes whole) to most."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    rate = draw(st.sampled_from([0, 40, 8, 2]))

    def rarely():  # true once in `rate` draws; never when rate is 0
        return rate > 0 and draw(st.integers(0, rate - 1)) == 0

    lines = [draw(st.sampled_from(HEADERS)) if rarely() else "date,hour,price"]
    for i in range(draw(st.integers(0, 30))):
        if rarely():
            lines.append(draw(st.sampled_from(ODD_LINES)))
        fields = [f"2024-01-{1 + i // 24:02d}", str(i % 24), f"{1000 + 7.25 * i!r}"]
        for k, odd in enumerate((ODD_DATES, ODD_HOURS, ODD_VALUES)):
            if rarely():
                fields[k] = draw(st.sampled_from(odd))
            if rarely():
                fields[k] = draw(st.sampled_from(DECORATIONS))(fields[k])
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(ENDINGS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _assert_loads_as_row_parser(path, data):
    path.write_bytes(data)
    expected = _outcome(lambda p: _reference_load(p, ("date", "hour", "price")),
                        path)
    assert _outcome(load_prices, path) == expected


@given(price_csv())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_prices_matches_row_parser(tmp_path, text):
    _assert_loads_as_row_parser(tmp_path / "p.csv", text.encode("utf-8"))


@pytest.mark.parametrize("text", [
    "date,hour,price\r\n2024-01-05,7,1\r\n2024-01-06,7,2\r\n",
    "date,hour,price\r2024-01-05,7,1\r2024-01-06,7,2",
    'date,hour,price\n"2024-01-05",7,"2.5"\n',
    'date,hour,price\n2024-01-05,7,"2,5"\n',
    "date,hour,price\n 2024-01-05 ,\t7\t, 2.5 \n",
    "date,hour,price\n\n   \n2024-01-05,7,1\n",
    "date,hour,price\n# comment\n2024-01-05,7,1\n",
    "date,hour,price\n2024-01-05,7,1,\n",
    "date,hour,price\n2024-01-05,1_0,1_000\n",
    "date,hour,price\n2024-01-05,\uff17,\u0661\u0662\n",
    "date,hour,price\n2024-01-05,+6,07\n2024-01-06,07,7.0\n",
    "date,hour,price\n2024-01-05,7.0,1\n",
    "date,hour,price\n2024-01-05,7.9,1\n",
    "date,hour,price\n2024-01-05,1e1,1\n",
    "date,hour,price\n2024-01-05T00Z,7,1\n2024-01-05T00+01,8,1\n",
    "date,hour,price\nNaT,7,1\n,8,1\n2024-01,9,1\n2024-01-05T00,10,1\n",
    "date,hour,price\n2024-01-05,7,inf\n",
    "date,hour,price\n2024-01-05,7,nan\n",
    "date,hour,price\n2024-01-05,7,1e400\n",
    "date,hour,price\n2024-01-05,24,1\n",
    "date,hour,price\n2024-01-05,-1,1\n",
    "date,hour,price\n2024-01-05,3,1\n2024-01-05,24,nan\n",
    "",
    # header only, or header and blank lines: an empty table, and no
    # warning (loadtxt warns "input contained no data")
    "date,hour,price",
    "date,hour,price\n",
    "date,hour,price\n\n\r\n\r",
    # invalid UTF-8 past the first read buffer, after a bad line
    pytest.param(b"date,hour,price\n2024-01-05,x,1\n"
                 + b"2024-01-06,1,1\n" * 1000 + b"\xff\n",
                 id="bad-utf8-after-bad-line"),
    pytest.param(b"date,hour,price\n" + b"2024-01-06,1,1\n" * 1000 + b"\xff\n",
                 id="bad-utf8"),
])
def test_load_prices_corpus_matches_row_parser(tmp_path, text):
    _assert_loads_as_row_parser(
        tmp_path / "p.csv",
        text if isinstance(text, bytes) else text.encode("utf-8"))


@pytest.mark.parametrize("hour", ["7.0", "7.9", "1e1"])
def test_hour_numpy_reads_through_float_is_rejected(tmp_path, monkeypatch,
                                                    hour):
    # numpy releases that only deprecate reading an integer field through
    # a float parse these hours as 7, 7 and 10 and emit a DeprecationWarning,
    # which is silent under default filters; the loader must not trust it
    loadtxt = np.loadtxt

    def lenient_loadtxt(fname, dtype, **kwargs):
        text = fname.read()
        try:
            return loadtxt(io.StringIO(text), dtype=dtype, **kwargs)
        except ValueError:
            as_float = np.dtype([(n, "f8" if n == "hour" else dtype[n])
                                 for n in dtype.names])
            rec = loadtxt(io.StringIO(text), dtype=as_float, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning, stacklevel=2)
            return rec.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    p = write(tmp_path / "p.csv",
              f"date,hour,price\n2024-01-04,3,1\n2024-01-05,{hour},1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParseError) as info:
            load_prices(p)
    assert str(info.value) == f"line 3: bad hour '{hour}'"


def _reference_export(table, path, value_name):
    """The per-row writer as it stood before the column-wise export."""
    order = np.lexsort((table.hours, table.dates.view("int64")))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "hour", value_name])
        writer.writerows([str(table.dates[i]), int(table.hours[i]),
                          repr(float(table.values[i]))] for i in order)


def test_export_hourly_bytes_match_row_writer(tmp_path):
    table = HourlyTable(
        np.array(["2024-03-02", "2024-03-01", "2024-03-02", "2024-03-01",
                  "2024-02-28"], dtype="datetime64[D]"),
        np.array([0, 23, 5, 0, 12]),
        np.array([-0.0, 5e-324, 0.1, 1e22, 1.0 / 3.0]))
    export_hourly(table, tmp_path / "new.csv", "price")
    _reference_export(table, tmp_path / "ref.csv", "price")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes().startswith(
        b"date,hour,price\r\n2024-02-28,12,0.3333333333333333\r\n"
        b"2024-03-01,0,1e+22\r\n2024-03-01,23,5e-324\r\n2024-03-02,0,-0.0\r\n")

    # a synthetic table: 40 days of 24 hours, rows in shuffled order
    prices, _, _ = synthesize(SynthSpec(mu=-1.0, phi=0.9, sigma=0.3,
                                        n_days=40, mean_price=50.0, seed=5,
                                        start_date="2023-12-20",
                                        hourly_amp_price=7.5))
    shuffle = np.random.default_rng(1).permutation(len(prices.values))
    table = HourlyTable(prices.dates[shuffle], prices.hours[shuffle],
                        prices.values[shuffle])
    export_hourly(table, tmp_path / "new.csv", "price")
    _reference_export(table, tmp_path / "ref.csv", "price")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len((tmp_path / "new.csv").read_bytes().splitlines()) == 1 + 40 * 24


def test_duplicate_reports_first_in_key_order(tmp_path):
    # two duplicated keys, neither pair adjacent; the one seen first in the
    # file (2024-01-03 hour 5) sorts after the other (2024-01-01 hour 2)
    p = write(tmp_path / "p.csv",
              "date,hour,price\n"
              "2024-01-03,5,1\n"
              "2024-01-01,2,1\n"
              "2024-01-02,0,1\n"
              "2024-01-03,5,2\n"
              "2024-01-04,1,1\n"
              "2024-01-01,2,2\n")
    with pytest.raises(DuplicateRecord) as info:
        load_prices(p)
    assert info.value.date == np.datetime64("2024-01-01")
    assert info.value.hour == 2
    assert str(info.value) == "duplicate record for (2024-01-01, hour 2)"


@pytest.mark.parametrize("date", ["NaT", ""])
def test_missing_date_rejected(tmp_path, date):
    # both read as NaT; the table names the first such record rather than
    # letting select_hour fail later with a ValueError
    p = write(tmp_path / "p.csv",
              "date,hour,price\n"
              "2024-01-01,14,5\n"
              f"{date},14,6\n"
              "2024-01-02,14,7\n"
              f"{date},3,8\n")
    with pytest.raises(MissingDate,
                       match=r"^empty or NaT date in record 1 \(hour 14\)$"):
        load_prices(p)


def test_synthesize_noise_annihilated():
    spec = SynthSpec(mu=-40.0, phi=0.0, sigma=1e-12, n_days=50,
                     mean_price=777.0, seed=1)
    _, _, truth = synthesize(spec)
    assert np.max(np.abs(truth.daily_prices.values - 777.0)) < 1e-6


def test_synthesize_deterministic():
    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.25, n_days=60,
                     mean_price=1000.0, seed=42, hourly_amp_price=10.0)
    a = synthesize(spec)
    b = synthesize(spec)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)
    assert np.array_equal(a[2].h, b[2].h)


def test_synthesize_stationary_variance():
    # long-run AR(1) variance oracle: sigma^2 / (1 - phi^2)
    spec = SynthSpec(mu=-1.0, phi=0.95, sigma=0.25, n_days=2000,
                     mean_price=1000.0, seed=7)
    _, _, truth = synthesize(spec)
    target = 0.25 ** 2 / (1 - 0.95 ** 2)
    assert abs(target - 0.641) < 1e-3
    assert abs(truth.h.var() - target) / target < 0.15


def test_synthesize_h_recursion_exact():
    spec = SynthSpec(mu=-0.5, phi=0.8, sigma=0.3, n_days=4000,
                     mean_price=900.0, seed=11)
    _, _, truth = synthesize(spec)
    h = truth.h
    shocks = h[1:] - spec.mu - spec.phi * (h[:-1] - spec.mu)
    n = len(shocks)
    assert abs(shocks.mean()) < 3 * spec.sigma / np.sqrt(n)
    var_se = spec.sigma ** 2 * np.sqrt(2.0 / n)
    assert abs(shocks.var() - spec.sigma ** 2) < 3 * var_se


def test_synthesize_zero_svx_equals_baseline():
    base = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=80,
                     mean_price=1000.0, seed=5)
    withx = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=80,
                      mean_price=1000.0, seed=5, svx=SvxCoeffs())
    a = synthesize(base)
    b = synthesize(withx)
    assert np.array_equal(a[2].daily_prices.values, b[2].daily_prices.values)
    assert np.array_equal(a[0].values, b[0].values)


def test_synthesize_select_hour_recovers_daily():
    spec = SynthSpec(mu=-1.0, phi=0.9, sigma=0.3, n_days=30, mean_price=1000.0,
                     seed=8, hour=14, hourly_amp_price=100.0)
    prices, temps, truth = synthesize(spec)
    assert np.array_equal(select_hour(prices, 14).values,
                          truth.daily_prices.values)
    assert np.array_equal(select_hour(temps, 14).values,
                          truth.daily_temps.values)


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        SynthSpec(mu=0, phi=1.0, sigma=0.1, n_days=10, mean_price=1, seed=0)
    with pytest.raises(InvalidSpec):
        SynthSpec(mu=0, phi=0.5, sigma=0.0, n_days=10, mean_price=1, seed=0)
    with pytest.raises(InvalidSpec):
        SynthSpec(mu=0, phi=0.5, sigma=0.1, n_days=1, mean_price=1, seed=0)
    for zone in (0, 3):
        with pytest.raises(InvalidSpec):
            SynthSpec(mu=0, phi=0.5, sigma=0.1, n_days=10, mean_price=1,
                      seed=0, zone=zone)
