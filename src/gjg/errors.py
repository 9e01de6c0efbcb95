"""Exception types shared across the package."""


class GJGError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidOrder(GJGError):
    """Parameter triple violates v >= k >= i >= 0."""


class DegenerateClass(GJGError):
    """Operation not defined for this parameter class (empty or edgeless graph)."""


class OutOfRange(GJGError):
    """Intersection size or rank outside its valid interval."""


class Unsupported(GJGError):
    """Operation outside its stated domain (e.g. ground set too large)."""


class NoCommonNeighbor(GJGError):
    """Requested a common neighbor for a pair that has none."""


class Disconnected(GJGError):
    """Requested a path between vertices in different components."""


class BudgetExceeded(GJGError):
    """Graph would exceed the configured vertex budget or physical memory."""


class InvalidSet(GJGError):
    """Sequence is not a valid k-subset of the ground set."""
