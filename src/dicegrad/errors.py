"""Exception types shared across the package: one class per CLI exit code.

`cli.main` decides the process exit code by the class alone:

- `ValidationError`, exit 2: a bad setting or input;
- `IoError`, exit 3: a file that cannot be read or written, or whose
  content is corrupt (raw `OSError`s exit 3 too);
- `NumericError`, exit 4: a non-finite value during training.

A `compare` whose every cell failed re-raises the first failed cell's
error, in (loss, seed) order, so it exits as that cell's `train` would.
A new failure mode raises one of these three classes.
"""


class ValidationError(ValueError):
    """A documented precondition is violated: an unknown key or bad config
    value, operands of mismatched shape, non-one-hot labels, a sampler that
    cannot meet its contract, a backward without its forward's tape."""


class IoError(OSError):
    """Filesystem or file-content problem: a missing manifest, an
    unwritable directory, a corrupt or truncated file (the message carries
    the byte offset)."""


class NumericError(FloatingPointError):
    """Non-finite value encountered where finiteness is guaranteed."""
