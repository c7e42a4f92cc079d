"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: 2 usage, 3 data,
4 numeric, 1 for any other package error.
"""


class HmgrlError(Exception):
    """Base class for all package errors."""
    exit_code = 1


class ShapeError(HmgrlError):
    """Operand dimensions do not agree."""
    exit_code = 3


class ParameterError(HmgrlError):
    """A hyperparameter or argument is outside its valid range."""
    exit_code = 2


class ValidationError(HmgrlError):
    """Input data violates a structural invariant (e.g. asymmetric adjacency)."""
    exit_code = 3


class DataError(HmgrlError):
    """A data file is missing or malformed; carries file and line context."""
    exit_code = 3

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}"
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class UnknownDrugError(DataError):
    """A drug id was not found in the drug table."""


class BatchSizeError(HmgrlError):
    """A batch is too small for the requested operation."""
    exit_code = 4


class PartitionError(HmgrlError):
    """A cluster partition is invalid (empty cluster, uncovered node)."""
    exit_code = 3


class NumericError(HmgrlError):
    """A numeric guard tripped (non-finite loss, degenerate batch)."""
    exit_code = 4
