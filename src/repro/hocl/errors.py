"""Exception hierarchy for the HOCL language core.

Every error raised by :mod:`repro.hocl` derives from :class:`HOCLError`, so
callers embedding the interpreter (the GinFlow runtime, the service agents)
can catch a single exception type at their boundary.
"""

from __future__ import annotations


class HOCLError(Exception):
    """Base class for all HOCL-related errors."""


class AtomError(HOCLError):
    """Raised when a value cannot be represented or coerced as an HOCL atom."""


class PatternError(HOCLError):
    """Raised when a pattern is structurally invalid (e.g. two omegas in one
    sub-solution pattern, or a product referencing an unbound variable)."""


class MatchError(HOCLError):
    """Raised when a match is requested in a context where it cannot be
    computed (internal invariant violations of the matcher)."""


class RuleError(HOCLError):
    """Raised when a rule definition is inconsistent (empty left-hand side,
    missing product builder, ...)."""


class ReductionError(HOCLError):
    """Raised when the reduction engine encounters a non-recoverable problem
    while rewriting a solution (e.g. a product builder raising)."""


class DeltaError(HOCLError):
    """Raised when a rewrite delta cannot be applied to the matched atoms
    (e.g. a patch path naming a field tuple the anchor's solution does not
    contain)."""


class ExternalFunctionError(HOCLError):
    """Raised when an external function referenced by a rule is unknown or
    fails during evaluation."""


class ParseError(HOCLError):
    """Raised by the HOCL parser on malformed programs.

    Attributes
    ----------
    line, column:
        Best-effort position of the offending token in the source text.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
