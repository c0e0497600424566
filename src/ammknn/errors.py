"""Exception hierarchy for the ammknn package.

Two broad families matter to callers: ConfigError (bad configuration or
generator spec, CLI exit code 2) and DataError (bad input data or a
violated operation precondition, CLI exit code 3).
"""


class AmmknnError(Exception):
    """Base class for all package errors."""


class ConfigError(AmmknnError):
    """Invalid pipeline configuration."""


class DataError(AmmknnError):
    """Invalid input data or violated operation precondition."""


# --- tabular data -----------------------------------------------------------

class MissingHeader(DataError):
    pass


class UnknownTargetColumn(DataError):
    pass


class NonNumericCell(DataError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"non-numeric cell {value!r} at row {row}, column {column!r}")
        self.row = row
        self.column = column
        self.value = value


class DuplicateColumnName(DataError):
    pass


class UnknownColumn(DataError):
    pass


class NameCollision(DataError):
    pass


class MissingCell(DataError):
    pass


class NonFiniteCell(DataError):
    """A NaN or infinite cell where every value must be a finite number."""


class UnreadableInput(DataError):
    """An input path that is not a readable file of the expected encoding."""


# --- preprocessing ----------------------------------------------------------

class ZeroVarianceColumn(DataError):
    def __init__(self, label: str):
        super().__init__(f"column {label!r} has zero variance")
        self.label = label


class ColumnMismatch(DataError):
    pass


class LengthMismatch(DataError):
    pass


class ConstantInput(DataError):
    pass


# --- knn engine -------------------------------------------------------------

class EmptyTrainingSet(DataError):
    pass


class KTooLarge(DataError):
    pass


class EmptyInput(DataError):
    pass


# --- evaluation -------------------------------------------------------------

class EmptyMatrix(DataError):
    pass


class MalformedReport(DataError):
    pass


# --- synthetic cohorts ------------------------------------------------------

class InvalidSpec(ConfigError):
    pass


class InvalidFraction(ConfigError):
    pass
