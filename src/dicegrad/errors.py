"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so new failure
modes should reuse one of the classes below rather than raising bare
exceptions.
"""


class DicegradError(Exception):
    """Base class for all errors raised by this package."""


class SizeError(DicegradError, ValueError):
    """Shape or length mismatch between operands."""


class ValidationError(DicegradError, ValueError):
    """Input violates a documented precondition (non-one-hot labels, ...)."""


class ConfigError(DicegradError, ValueError):
    """Bad configuration value, unknown key, or unparseable config file."""


class FormatError(DicegradError, ValueError):
    """Corrupt or truncated binary file; message carries the byte offset."""


class IoError(DicegradError, OSError):
    """Filesystem problem: missing manifest, unwritable directory, ..."""


class SamplingError(DicegradError, RuntimeError):
    """Patch sampler cannot satisfy its contract (e.g. a label never occurs)."""


class StateError(DicegradError, RuntimeError):
    """Operation invoked with stale or missing runtime state."""


class NumericError(DicegradError, FloatingPointError):
    """Non-finite value encountered where finiteness is guaranteed."""
