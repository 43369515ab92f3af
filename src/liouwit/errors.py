"""Exception types shared across the package.

Each carries its CLI exit code: invalid input (2), verification failure (3),
resource exhaustion (4), internal invariant violation (5).
"""


class LiouwitError(Exception):
    """Base class for package errors."""

    exit_code = 5


class InvalidInputError(LiouwitError, ValueError):
    """A precondition on user-supplied input was violated."""

    exit_code = 2


class ConstraintInfeasibleError(InvalidInputError):
    """A residue-class constraint admits no solution."""


class SearchExhaustedError(LiouwitError):
    """A bounded deterministic search ran out before finding its target."""

    exit_code = 4


class FactorBudgetExceededError(LiouwitError):
    """Factorization gave up after the configured number of iterations."""

    exit_code = 4


class VerificationError(LiouwitError):
    """A certificate failed independent re-verification."""

    exit_code = 3


class InternalInvariantError(LiouwitError):
    """A structural guarantee failed at runtime; indicates a bug."""
