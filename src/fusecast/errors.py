"""Exception types raised across the package.

Everything derives from :class:`FusecastError` through one of three bases,
each carrying the CLI's exit code and stderr prefix: :class:`ConfigError`
(2), :class:`DataError` (3) and :class:`NumericFailure` (4). Concrete
errors also derive from the builtin exception that fits them. Every error
survives ``pickle``, so it can cross a process boundary."""

import copyreg
import numbers


class FusecastError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # rebuilt from its message and attributes without calling __init__
        # again: the errors that format their message take other arguments
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(FusecastError, ValueError):
    """A config value, or a combination of values, that no run accepts."""
    exit_code, label = 2, "config error"


class InvalidSpec(ConfigError):
    pass


def check_seed(seed) -> None:
    """Raise :class:`InvalidSpec` for a negative integer seed, which numpy's
    generators refuse with a bare ValueError."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")


class InvalidFraction(ConfigError):
    pass


class DimensionMismatch(ConfigError):
    pass


class EmptySpace(ConfigError):
    pass


class DataError(FusecastError):
    """A series, CSV, window set or checkpoint that cannot be used."""
    exit_code, label = 3, "data error"


class MissingFile(DataError, FileNotFoundError):
    pass


class ParseError(DataError, ValueError):
    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NonMonotoneTimestamps(DataError, ValueError):
    def __init__(self, row: int, message: str = "timestamps not strictly increasing"):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NonFiniteValue(DataError, ValueError):
    def __init__(self, row: int, message: str = "non-finite value"):
        super().__init__(f"row {row}: {message}")
        self.row = row


class ZeroVariance(DataError, ValueError):
    pass


class WindowTooLarge(DataError, ValueError):
    pass


class ShapeMismatch(DataError, ValueError):
    pass


class LengthMismatch(DataError, ValueError):
    pass


class EmptyInput(DataError, ValueError):
    pass


class EmptyDataset(DataError, ValueError):
    pass


class MapeUndefined(DataError, ValueError):
    pass


class MsleUndefined(DataError, ValueError):
    pass


class TooFewSamples(DataError, ValueError):
    pass


class ZeroVarianceShapeStats(DataError, ValueError):
    pass


class MalformedAttention(DataError, ValueError):
    pass


class WindowTooLargeForExact(DataError, ValueError):
    pass


class BadCheckpoint(DataError, ValueError):
    pass


class NumericFailure(FusecastError):
    """A computation that did not reach a finite result."""
    exit_code, label = 4, "numeric failure"


class DivergedLoss(NumericFailure, ArithmeticError):
    pass


class SingularKernel(NumericFailure, ArithmeticError):
    pass


class ObjectiveFailure(NumericFailure, RuntimeError):
    """``trials`` holds every trial run before the failure, failed ones
    included, so their causes can still be reported."""

    def __init__(self, trial: int, cause: BaseException, trials: tuple = ()):
        super().__init__(f"objective failed at trial {trial}: {cause!r}")
        self.trial = trial
        self.cause = cause
        self.trials = trials
