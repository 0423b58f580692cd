"""Exception types shared across the library."""


class MonordError(Exception):
    """Base class for library errors."""


class DataError(MonordError):
    """Invalid input data (bad syntax, failed preconditions, invalid values)."""


class ParseError(DataError):
    """Syntax error in a textual input.

    Carries the position (line, column) when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        super().__init__(message + where)


class DimensionMismatch(DataError):
    """Operands live in different ambient dimensions."""


class BudgetExceeded(MonordError):
    """A configured resource budget (recursion frames, search nodes) ran out."""

    def __init__(self, message, spent=None):
        self.spent = spent
        super().__init__(message)
