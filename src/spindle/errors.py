"""Exception hierarchy shared by the whole engine.  Each class carries
the exit code the CLI ends with when it reports one of its errors."""


class SpindleError(Exception):
    """Base class for all engine errors."""

    exit_code = 1


class UsageError(SpindleError):
    """Invalid user input: a bad type/rank pair or option, an unknown
    method, or a weight whose length is not the rank, which every
    exported function checks with ``rootsystem.checked_weight``."""

    exit_code = 2


def count_text(n):
    """A work count as the messages show it: in decimal, or as about
    10^k, k = bit length x log10(2), when it has more digits than Python
    converts to text."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{n.bit_length() * 30103 // 100000}"


class ResourceBudgetError(SpindleError):
    """A computation would exceed one of the work limits of ``budget``.

    ``what`` names the layer; ``needed`` is the work it needs or, for a
    walk cut short, the work done so far, as a count or as text that shows
    its counts with ``count_text``.
    """

    exit_code = 3

    def __init__(self, what, needed, cap):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"{what}: {count_text(needed)} exceeds budget {count_text(cap)}")


class ExactDivisionError(SpindleError, ArithmeticError):
    """A division that a formula guarantees to be exact was not exact."""

    exit_code = 2


class DomainError(SpindleError):
    """Operation applied outside its mathematical domain (e.g. a negative
    coordinate of a dominant weight, a weight not in the root lattice)."""

    exit_code = 2


class InternalConsistencyError(SpindleError):
    """Two routes that must agree disagreed; signals a bug, not bad input."""
