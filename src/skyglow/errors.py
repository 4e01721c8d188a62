"""Exception types shared across the package."""


class SkyglowError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(SkyglowError):
    """A header, column set, or matrix column list does not match the contract."""


class RowError(SkyglowError):
    """A single data row failed validation; the message names the row."""


class DuplicateKeyError(SkyglowError):
    """A key that must be unique (record id, country/year pair) repeats."""


class ParseError(SkyglowError):
    """A cell could not be parsed; the message names its location."""


class TimestampError(SkyglowError):
    """A timestamp string is not in an accepted form."""


class EmptyInputError(SkyglowError):
    """An operation that requires data received none."""


class UnknownFieldError(SkyglowError):
    """A field name is not one the operation supports."""


class ParameterError(SkyglowError):
    """An argument is out of its documented range or otherwise invalid."""


class DimensionError(SkyglowError):
    """Array shapes do not line up."""


class InsufficientDataError(SkyglowError):
    """Too few rows to perform the operation."""


class UndefinedCorrelationError(SkyglowError):
    """Correlation is undefined (fewer than two complete pairs or zero variance)."""


class ConfigError(SkyglowError):
    """A run configuration file contains an unknown or malformed entry."""


class DependencyError(SkyglowError):
    """A command prerequisite artifact is missing; the message names the file."""


class LockError(SkyglowError):
    """The output directory is locked by another run."""
