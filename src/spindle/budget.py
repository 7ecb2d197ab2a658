"""Work limits in one context variable: ``weyl`` (walk points plus
Kostant table cells or packed words, per q-multiplicity), ``dim`` (one
character, module or box count) and ``matrix`` (one type-A matrix
model).  Each layer compares the work of one call with its limit here,
so a caller sets them once around a computation."""

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ResourceBudgetError

DEFAULTS = {"weyl": 10**7, "dim": 10**6, "matrix": 60}
_limits = ContextVar("spindle_limits", default=DEFAULTS)


@contextmanager
def limits(**values):
    """Override some limits for the block; the others keep their value."""
    if unknown := values.keys() - DEFAULTS.keys():
        raise TypeError(f"unknown limit {', '.join(sorted(unknown))}")
    token = _limits.set({**_limits.get(), **values})
    try:
        yield
    finally:
        _limits.reset(token)


def limit(kind):
    """The current limit on one kind of work."""
    return _limits.get()[kind]


def charge(kind, what, needed, shown=None):
    """Raise ResourceBudgetError(what, shown or needed, cap) if the work
    ``needed`` exceeds cap, the current ``kind`` limit."""
    cap = _limits.get()[kind]
    if needed > cap:
        raise ResourceBudgetError(what, needed if shown is None else shown, cap)
