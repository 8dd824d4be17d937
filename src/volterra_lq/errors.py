"""Exception types shared across the package."""

__all__ = ["AssumptionError", "NumericalError", "ConfigError", "KernelFileError"]


class AssumptionError(ValueError):
    """A structural hypothesis on the problem data is violated.

    Raised when coercivity or positivity requirements on the cost weights
    fail, or when an operation is invoked outside its admissible parameter
    range (e.g. a terminal weight with singularity order beta <= 1/2).
    """


class NumericalError(RuntimeError):
    """A linear solve or factorization failed.

    Usually signals an assumption violation upstream (loss of coercivity)
    or severe ill-conditioning rather than a programming error.
    """


class ConfigError(ValueError):
    """A run configuration file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class KernelFileError(ValueError):
    """A kernel file has a foreign header or the wrong length."""
