"""Exception types raised across the package.

Everything derives from :class:`FusecastError` so callers can catch broadly;
data-shaped problems additionally derive from ValueError for idiomatic use.
"""


class FusecastError(Exception):
    """Base class for all package errors."""


# -- series ------------------------------------------------------------

class MissingFile(FusecastError, FileNotFoundError):
    pass


class ParseError(FusecastError, ValueError):
    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NonMonotoneTimestamps(FusecastError, ValueError):
    def __init__(self, row: int, message: str = "timestamps not strictly increasing"):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NonFiniteValue(FusecastError, ValueError):
    def __init__(self, row: int, message: str = "non-finite value"):
        super().__init__(f"row {row}: {message}")
        self.row = row


class InvalidSpec(FusecastError, ValueError):
    pass


class InvalidFraction(FusecastError, ValueError):
    pass


class ZeroVariance(FusecastError, ValueError):
    pass


class WindowTooLarge(FusecastError, ValueError):
    pass


# -- nn ----------------------------------------------------------------

class ShapeMismatch(FusecastError, ValueError):
    pass


# -- train -------------------------------------------------------------

class LengthMismatch(FusecastError, ValueError):
    pass


class EmptyInput(FusecastError, ValueError):
    pass


class EmptyDataset(FusecastError, ValueError):
    pass


class DivergedLoss(FusecastError, ArithmeticError):
    pass


class MapeUndefined(FusecastError, ValueError):
    pass


class MsleUndefined(FusecastError, ValueError):
    pass


class TooFewSamples(FusecastError, ValueError):
    pass


class ZeroVarianceShapeStats(FusecastError, ValueError):
    pass


# -- bayesopt ----------------------------------------------------------

class DimensionMismatch(FusecastError, ValueError):
    pass


class SingularKernel(FusecastError, ArithmeticError):
    pass


class EmptySpace(FusecastError, ValueError):
    pass


class ObjectiveFailure(FusecastError, RuntimeError):
    """``trials`` holds every trial run before the failure, failed ones
    included, so their causes can still be reported."""

    def __init__(self, trial: int, cause: BaseException, trials: tuple = ()):
        super().__init__(f"objective failed at trial {trial}: {cause!r}")
        self.trial = trial
        self.cause = cause
        self.trials = trials


# -- explain -----------------------------------------------------------

class MalformedAttention(FusecastError, ValueError):
    pass


class WindowTooLargeForExact(FusecastError, ValueError):
    pass


# -- cli / io ----------------------------------------------------------

class BadCheckpoint(FusecastError, ValueError):
    pass


class ConfigError(FusecastError, ValueError):
    pass
