"""Exception taxonomy shared across the toolkit.

Every error raised by the library derives from ToolkitError so callers
(and the CLI exit-code mapping) can discriminate toolkit failures from
programming errors.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ToolkitError):
    """Problem-file syntax error, carries 1-based line/column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = "" if line is None else f" (line {line}, col {col})"
        super().__init__(f"{message}{loc}")


class VariableIndexError(ParseError):
    """Variable index out of the declared range (x<i> with i > n, etc.)."""


class SemanticsError(ParseError):
    """Structurally valid input violating a model rule (y in upper constraint)."""


class DomainError(ToolkitError):
    """log of a nonpositive value or division by zero during evaluation."""


class BudgetError(ToolkitError):
    """An enumeration bound (kink count, basis count, ...) was exceeded."""


class InfeasibleError(ToolkitError):
    """No feasible lower-level point at the queried x."""


class UnsupportedDimensionError(ToolkitError):
    """Curve tabulation requested for n > 2."""


class DimensionMismatchError(ToolkitError):
    """Set-algebra operands live in different ambient dimensions, or a point
    has the wrong number of coordinates."""


class EmptySetError(ToolkitError):
    """Operation on an empty generator set that cannot propagate emptiness."""


class EvaluationError(ToolkitError):
    """A sampled callable failed for a reason other than infeasibility."""


class NotPolyhedralError(ToolkitError):
    """Normal cone requested for a non-affine constraint system."""


class InfeasiblePointError(ToolkitError):
    """The queried point violates the constraints it must satisfy."""


class EmptyEstimateError(ToolkitError):
    """All multiplier sets required by an estimate were empty."""


class NotApplicableError(ToolkitError):
    """Preconditions of a specialized routine do not hold for this program."""
