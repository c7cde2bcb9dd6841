"""Error types shared across the pipeline.

Each class maps to a process exit code so the CLI can translate failures
uniformly: config 2, data 3, numerical 4, fold worker lost 5.
"""


class RecauditError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 1


class ConfigError(RecauditError):
    """Invalid configuration: bad parameter values, missing paths, bad schemes."""

    exit_code = 2


class DataError(RecauditError):
    """Unreadable or structurally broken input data."""

    exit_code = 3


class NumericalError(RecauditError):
    """Non-finite values or singular systems encountered during training."""

    exit_code = 4


class WorkerError(RecauditError):
    """A fold worker process ended without sending its result, for example
    when a signal such as the out-of-memory killer's SIGKILL ended it."""

    exit_code = 5
