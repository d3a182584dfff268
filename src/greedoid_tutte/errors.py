"""Exception hierarchy shared by the whole package.

Errors fall into three groups that the command line front end maps onto
distinct exit codes: malformed input, violated mathematical preconditions,
and enumeration requests above the configured ground-set bound.
"""


class GreedoidTutteError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GreedoidTutteError):
    """Malformed input file or command line value."""


class PreconditionError(GreedoidTutteError):
    """A documented precondition of an operation was violated."""


class GroundSetTooLargeError(GreedoidTutteError):
    """An exponential enumeration was requested above its bound.

    ``size`` is the number of elements and ``bound`` the bound that was
    exceeded; ``message`` replaces the default text, which speaks of the
    element bound ``max_elements``, where another quantity is bounded.
    """

    def __init__(self, size: int, bound: int, message: str | None = None):
        super().__init__(
            message
            or f"ground set has {size} elements but the enumeration bound is "
            f"{bound}; pass a larger max_elements to override"
        )
        self.size = size
        self.bound = bound


class NotSquareError(PreconditionError):
    """Matrix operation that requires a square matrix."""


class SingularMatrixError(PreconditionError):
    """Row pivoting found the pivot column zero from the pivot row down: the
    trailing block has a zero column, so no column swap could give a pivot."""


class DuplicateNodeError(PreconditionError):
    """Interpolation nodes must be pairwise distinct."""


class DivisionByZeroError(PreconditionError):
    """A substituted denominator vanishes at the requested point."""


class DenominatorVanishesError(PreconditionError):
    """The attachment prediction divides by a Tutte value that is zero here."""


class ElementOutOfRangeError(PreconditionError):
    """Subset refers to elements outside the ground set."""


class ForbiddenPointError(PreconditionError):
    """Evaluation point excluded by the reduction's case analysis."""


class NotOnCurveError(PreconditionError):
    """Point does not satisfy the curve equation required here."""


class NotConnectedError(PreconditionError):
    """Operation requires a connected (unrooted or rooted) graph."""


class NotRootConnectedError(PreconditionError):
    """Operation requires every vertex to be reachable from the root."""


class AttachmentInvariantError(PreconditionError):
    """Candidate attachment function violates its defining conditions."""


class FullRowRankError(PreconditionError):
    """Matrix argument must have linearly independent rows."""


class NotSimpleError(PreconditionError):
    """Graph must be simple and free of isolated vertices."""


class OddVertexCountError(PreconditionError):
    """Perfect matching recovery needs an even number of vertices."""


class NotABasisError(PreconditionError):
    """Column set is not a basis of the matroid."""


class ProbabilityRangeError(PreconditionError):
    """Edge survival probability must lie strictly between 0 and 1."""
