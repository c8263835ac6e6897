"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: UsageError -> 1, DataError -> 2,
NumericError -> 3.
"""


class PdbpeError(Exception):
    """Base class for all pdbpe-specific failures."""


class DataError(PdbpeError):
    """Malformed or inconsistent input data, schemas, or configuration."""


class UsageError(DataError):
    """Options that do not fit together, such as a metric the task cannot use
    or a missing required flag. Library callers see a DataError."""


class NumericError(PdbpeError):
    """Numeric failure such as a degenerate fit or a non-positive-definite matrix."""
