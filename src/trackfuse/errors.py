"""Exception hierarchy shared across the package.

SchemaError covers malformed files and records (CLI exit code 2);
NumericError covers failures inside numeric routines (CLI exit code 3);
StageError wraps the failure of one stage of `trackfuse run` (its cause's code).
Plain ValueError is reserved for bad function arguments.
"""


class TrackfuseError(Exception):
    pass


class SchemaError(TrackfuseError):
    """Invalid file content or record: bad dimensions, broken invariants."""


class NumericError(TrackfuseError):
    """Numeric routine cannot proceed (empty selection, non-finite loss)."""


class StageError(TrackfuseError):
    """A pipeline stage failed; the failure that stopped it is ``__cause__``."""
