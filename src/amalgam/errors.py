"""Exception types shared across the package."""


class AmalgamError(Exception):
    """Base class for all library errors."""


class CapExceededError(AmalgamError):
    """A construction or enumeration would exceed a configured size cap."""


class BudgetExceededError(AmalgamError):
    """An exhaustive search would exceed its pair budget."""


class HomomorphismError(AmalgamError):
    """A map fails one of the unital ring homomorphism axioms.

    Carries a witness describing the first violated axiom.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class NotAnIdealError(AmalgamError):
    """A member set is not an ideal of the given ring, or a generator index
    lies outside it."""


class NotASubmoduleError(AmalgamError):
    """A submodule generator index lies outside the given module."""


class NotLocalError(AmalgamError):
    """An operation requiring a local ring was applied to a non-local one."""


class MixedRingError(AmalgamError):
    """Elements or ideals of different rings were combined."""


class StructureError(AmalgamError):
    """Operation tables violate a structural axiom (ring or module)."""


class InternalCheckError(AmalgamError):
    """A built-in cross-check failed; indicates a bug, not bad input."""


class EvaluationError(AmalgamError):
    """A parsed expression cannot be built: a tpa argument out of its domain, an
    instance asked of a non-amalgamation, or a hom spec that misfits its target."""


class ParseError(AmalgamError):
    """Expression text could not be parsed.

    line/column are 1-based; expected lists the token kinds that would
    have been accepted at the failure point.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...]):
        super().__init__(f"{message} (line {line}, column {column}; expected: {', '.join(expected)})")
        self.line = line
        self.column = column
        self.expected = expected


class UnknownClauseError(AmalgamError):
    """A clause id names no clause, or a clause that cannot run on one instance."""
