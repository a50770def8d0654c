"""Exception hierarchy for the constructible-function calculus.

Each class carries the command line's exit code and stderr label for it:
2 a parse error, 3 a refusal, 4 not integrable, 5 any other engine error."""


class CalcError(Exception):
    """Base class for all engine errors."""

    exit_code = 5
    label = "error"


class FragmentEscape(CalcError):
    """An operation would leave the monomial-log fragment (e.g. a fractional
    power of a polynomial unit, or a log of a sign-indefinite argument)."""

    exit_code = 3
    label = "fragment escape"


class NotNormalized(CalcError):
    """An expression with duplicate term signatures was passed to an
    operation that requires normalized input."""


class UnitCertificateViolated(CalcError):
    """A polynomial unit fails its coefficient-dominance certificate."""


class ZeroTestUnsupported(CalcError):
    """is_zero was asked about an expression carrying opaque atoms (unit
    logs) for which signature independence fails."""


class CellError(CalcError):
    """Base class for cell construction/validation errors."""


class InconsistentOrientation(CellError):
    """A fiber cannot be mapped into (0,1) with the available sign data."""

    exit_code = 3


class UncertifiedCell(CellError):
    """A cell bound or bound order the engine cannot certify: the bound may
    leave (0,1], or the lower bound may not stay below the upper one."""

    exit_code = 3


class NotPrepared(CellError):
    """A cell or expression is not in prepared monomial-unit form."""

    exit_code = 3


class NotAllUndetermined(CalcError):
    """A sliver was requested for a cell with asymptotically determined
    variables (run the coordinate transform first)."""

    exit_code = 3


class NotBounded(CalcError):
    """shrink_for_decay called for an exponent whose affine form is negative
    somewhere on every sub-box."""


class EmptyExpr(CalcError):
    """dominance called on an expression with no terms."""

    exit_code = 3


class NotIntegrable(CalcError):
    """Symbolic integration requested for a non-integrable term."""

    exit_code = 4
    label = "not integrable"


class BoundUnitUnsupported(CalcError):
    """Symbolic bound evaluation requested for a bound with a nontrivial
    unit part (numeric oracle only)."""


class NoDecay(CalcError):
    """decay_rate called although the dominant exponent is not positive."""

    exit_code = 3


class DomainError(CalcError):
    """Numeric evaluation requested outside the cell."""

    exit_code = 3


class SingularityTooStrong(CalcError):
    """Quadrature requested across an endpoint singularity y^r with r <= -1."""


class ParseError(CalcError):
    """Syntax error in the source language, with position information."""

    exit_code = 2
    label = "parse error"

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
