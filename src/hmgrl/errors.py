"""Exception taxonomy shared across the package.

Each class maps to one CLI exit-code category (see cli.EXIT_CODES).
"""


class HmgrlError(Exception):
    """Base class for all package errors."""


class ShapeError(HmgrlError):
    """Operand dimensions do not agree."""


class ParameterError(HmgrlError):
    """A hyperparameter or argument is outside its valid range."""


class ValidationError(HmgrlError):
    """Input data violates a structural invariant (e.g. asymmetric adjacency)."""


class DataError(HmgrlError):
    """A data file is missing or malformed; carries file and line context."""

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


class PartitionError(HmgrlError):
    """A cluster partition is invalid (empty cluster, uncovered node)."""


class NumericError(HmgrlError):
    """A numeric guard tripped (non-finite loss, degenerate batch)."""
