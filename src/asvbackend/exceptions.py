"""Exception hierarchy shared by all modules.

Every error raised on purpose derives from BackendError so callers can
tell failure modes apart. Each class carries the `kind` the CLI prints
(`asvbackend: <kind>: <message>`) and the stable `exit_code` it returns.
"""

import contextlib


@contextlib.contextmanager
def prefixed(prefix: str, *errors):
    """An error of the classes `errors` raised in the block gains `<prefix>: `, keeping its class."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{prefix}: {exc}") from None


class BackendError(Exception):
    """Base class for all errors raised by this package."""
    kind, exit_code = "backend", 10


class FileFormatError(BackendError):
    """Malformed record in a text or binary input file."""
    kind, exit_code = "file-format", 4


class DimensionMismatchError(BackendError):
    """Vectors or matrices with incompatible dimensions."""
    kind, exit_code = "dimension", 5


class DomainError(BackendError):
    """Input outside an operation's mathematical domain (e.g. a zero vector)."""
    kind, exit_code = "domain", 6


class ParameterError(BackendError):
    """Invalid hyperparameter, flag value or structural precondition."""
    kind, exit_code = "parameter", 6


class NumericalError(BackendError):
    """Singular, indefinite or otherwise numerically unusable quantity."""
    kind, exit_code = "numerical", 7


class UnknownIdError(BackendError):
    """A trial references an embedding id that is not available."""
    kind, exit_code = "unknown-id", 8


class RoutingError(BackendError):
    """Trial metadata missing or inconsistent during condition routing."""
    kind, exit_code = "routing", 8


class ConfigError(BackendError):
    """Pipeline or routing configuration incomplete or invalid."""
    kind, exit_code = "config", 8


class NormalizationError(BackendError):
    """Degenerate cohort statistics during score normalization."""
    kind, exit_code = "normalization", 9


class CalibrationFitError(BackendError):
    """Calibration training impossible on the given development trials."""
    kind, exit_code = "calibration", 9


class MetricError(BackendError):
    """Metric undefined for the given score/label set."""
    kind, exit_code = "metric", 9
