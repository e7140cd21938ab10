"""Shared exception types, grouped by how the command line reports them."""


class CommdynError(Exception):
    """Base class for all package errors."""


class InputParseError(CommdynError):
    """Malformed map, scalar, or config text."""


class BudgetError(CommdynError):
    """A degree cap, iteration budget, or point budget was exhausted."""


class PreconditionError(CommdynError):
    """An operation was called on inputs outside its contract."""


class ConductorCapError(PreconditionError):
    """A field operation would need a cyclotomic conductor above the cap."""


class DegenerateEliminationError(PreconditionError):
    """Resultant elimination met a shared component and returned zero."""


class NoFactorError(PreconditionError):
    """The requested inner factor does not divide the map."""


class NotAPowerError(CommdynError):
    """The queried integer is not an exact power of the derived base."""


class NotInvariantError(CommdynError):
    """A generator image escaped the finite point set it was restricted to."""


class NotStabilizedError(BudgetError):
    """Cumulative graph unions kept growing for the whole iteration budget.

    Carries the last union computed so callers can inspect how far the
    closure got before giving up.
    """

    def __init__(self, message: str, last_union=None):
        super().__init__(message)
        self.last_union = last_union


class CommonIterateFailure(CommdynError):
    """A common-iterate search ended without a verified exponent."""

    reason = "unspecified"


class RittBudgetExhausted(CommonIterateFailure, BudgetError):
    reason = "decomposition sequence did not terminate within the step budget"


class OrderNotFound(CommonIterateFailure):
    reason = "terminal linear-fractional factor has no small finite order"


class VerificationMismatch(CommonIterateFailure):
    reason = "candidate exponent failed the exact equality recheck"


class NoDegreeMatch(CommonIterateFailure):
    reason = "degrees admit no common power"
