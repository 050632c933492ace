"""Exception types shared across the toolkit."""


class LndError(Exception):
    """Base class for all toolkit errors."""


class VariableMismatchError(LndError):
    """Two polynomials over different variable sets were combined."""


class ExponentOverflowError(LndError):
    """A monomial exponent exceeded the fixed-width limit."""


class ParseError(LndError):
    """Syntax error in a polynomial or session file."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column})" if column is not None else ")")
        elif column is not None:
            where = f" (col {column})"
        super().__init__(message + where)


class BudgetExceededError(LndError):
    """A computation exceeded its pair budget (Groebner runs) or its term
    budget (parser products, nilpotency iterations).

    Signals "computation too large", never a wrong answer.
    """


class DimensionBudgetError(LndError):
    """A linear-algebra computation exceeded its monomial budget."""


class DegenerateInputError(LndError):
    """An input reduced to zero (or was otherwise degenerate) where a
    nonzero element was required; reported distinctly from a plain
    negative answer."""


class SaturatorUnsoundError(LndError):
    """A Rees truncation's containment or multiplicativity check failed.
    Both hold for every saturator, so this reports a wrong computation; a
    saturator that misses the symbolic power passes them."""
