"""Exception hierarchy shared by the whole engine.

Exit codes of the CLI: UsageError, DomainError, ExactDivisionError -> 2;
ResourceBudgetError -> 3; InternalConsistencyError and failed checks -> 1.
"""


class SpindleError(Exception):
    """Base class for all engine errors."""


class UsageError(SpindleError):
    """Invalid user input (bad type/rank pair, malformed weight, ...)."""


class ResourceBudgetError(SpindleError):
    """A computation would exceed one of the work limits of ``budget``.

    ``what`` names the layer; ``needed`` is the work it needs or, for a
    walk cut short, the work done so far.
    """

    def __init__(self, what, needed, cap):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(f"{what}: {needed} exceeds budget {cap}")


class ExactDivisionError(SpindleError, ArithmeticError):
    """A division that a formula guarantees to be exact was not exact."""


class DomainError(SpindleError):
    """Operation applied outside its mathematical domain (e.g. weight not
    in the root lattice)."""


class InternalConsistencyError(SpindleError):
    """Two routes that must agree disagreed; signals a bug, not bad input."""
