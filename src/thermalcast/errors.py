"""Exception types shared across the package."""


class ThermalcastError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(ThermalcastError, ValueError):
    """An argument is structurally invalid (bad index, bad shape, bad range)."""


class UnphysicalStateError(ThermalcastError, ValueError):
    """A requested state or parameter violates the shot-noise bound."""


class NumericFailureError(ThermalcastError, ArithmeticError):
    """A numerical routine produced an unusable result (non-PD factorization,
    non-positive determinant, failed cross-check)."""


class UndefinedResultError(NumericFailureError):
    """The requested quantity is mathematically undefined for this input."""


class ConfigError(ThermalcastError, ValueError):
    """A sweep configuration could not be parsed or validated.

    ``line`` holds the 1-based line number when the error is tied to a
    specific config line, else 0.
    """

    def __init__(self, message: str, line: int = 0):
        self.line = line
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class UsageError(ThermalcastError, ValueError):
    """Invalid command-line usage or an unusable run request."""

    # the config key a SweepSpec complaint is about, so its line can be named
    key: str | None = None
