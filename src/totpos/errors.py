"""Exception hierarchy and warning categories shared by every module.

Eliminations are exact on both backends, so SingularityError means exactly
singular; the float zero band of minor-table signs warns, never raises.
"""


class TotposError(Exception):
    """Base class for all library errors."""


class InputError(TotposError):
    """Malformed input: bad shapes, indices out of range, unparsable data."""


class DomainError(TotposError):
    """Well-formed input that lies outside an operation's mathematical domain."""


class SingularityError(DomainError):
    """A matrix required to be invertible is singular."""


class ConvergenceError(TotposError):
    """An iterative method failed to converge within its iteration cap."""


class ConsistencyError(TotposError):
    """An internal cross-check failed beyond tolerance; indicates a bug or
    an input that silently violated a precondition."""


class StrictnessWarning(UserWarning):
    """A strict sign decision on the float backend fell inside the fixed zero
    band of :mod:`totpos.scalars` and was resolved pessimistically."""
