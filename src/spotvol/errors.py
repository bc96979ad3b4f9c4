"""Exception hierarchy.

Every error raised by this package derives from SpotvolError so callers can
catch the whole family with one except clause. The CLI maps them to exit
code 1 with a structured message.
"""


class SpotvolError(Exception):
    """Base class for all spotvol errors."""


# --- series / calendar ---

class HourOutOfRange(SpotvolError):
    pass


class MissingDay(SpotvolError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"no record for hour on day {date}")


class EmptyTable(SpotvolError):
    pass


class InsufficientData(SpotvolError):
    pass


# --- ingest ---

class ParseError(SpotvolError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DuplicateRecord(SpotvolError):
    def __init__(self, date, hour):
        self.date = date
        self.hour = hour
        super().__init__(f"duplicate record for ({date}, hour {hour})")


class MissingDate(SpotvolError):
    pass


class NonFinite(SpotvolError):
    pass


class InvalidSpec(SpotvolError):
    pass


# --- sampler ---

class InvalidConfig(SpotvolError):
    pass


class NonFiniteLogp(SpotvolError):
    pass


class DivergentChains(SpotvolError):
    def __init__(self, rate):
        self.rate = rate
        super().__init__(f"{rate:.1%} of post-warmup transitions diverged")


class TooFewDraws(SpotvolError):
    pass


# --- models ---

class MisalignedFrames(SpotvolError):
    pass


class ConstantColumn(SpotvolError):
    pass


class MissingStandardizer(SpotvolError):
    pass


# --- predictive ---

class ModeUnsupported(SpotvolError):
    pass


class MissingExogenous(SpotvolError):
    pass


class HorizonZero(SpotvolError):
    pass


# --- stats ---

class SeriesTooShort(SpotvolError):
    pass


class SingularRegression(SpotvolError):
    pass


class LagTooLarge(SpotvolError):
    pass


class EmptySample(SpotvolError):
    pass


class DegenerateData(SpotvolError):
    pass


class RankDeficient(SpotvolError):
    pass


# --- backtest / interpret ---

class LengthMismatch(SpotvolError):
    pass


class InsufficientFutureData(SpotvolError):
    pass


class FeatureNotInModel(SpotvolError):
    pass


# --- cli ---

class IncompatibleFit(SpotvolError):
    pass


class ConfigError(SpotvolError):
    pass
