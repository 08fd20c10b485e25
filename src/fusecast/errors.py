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


def check_float(value, name: str) -> None:
    """Raise :class:`InvalidSpec` for an integer too large for a float, which
    float arithmetic refuses with a bare OverflowError."""
    try:
        float(value)
    except OverflowError:
        raise InvalidSpec(f"{name} must be a finite float, got an integer of "
                          f"{len(str(abs(value)))} digits") from None


def allocated(what: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a numpy call that allocates ``what``. A size
    numpy refuses outright (ValueError, a length past its largest array)
    raises MemoryError, as a size the host cannot grant does. Pass the numpy
    call alone: a ConfigError is a ValueError too."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise MemoryError(f"{what}: {exc}") from None


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
    """No initial trial of a tuning run gave a finite objective; ``cause`` is
    the last exception an objective raised."""

    def __init__(self, trial: int, cause: BaseException):
        super().__init__(f"objective failed at trial {trial}: {cause!r}")
        self.trial = trial
        self.cause = cause
