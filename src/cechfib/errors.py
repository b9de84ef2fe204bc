"""Exception types, the search budget and the integer test shared
across the library."""

from __future__ import annotations

from typing import Any


class ValidationError(ValueError):
    """Structured input data violates a documented invariant.

    ``details`` carries machine-readable context (offending tuples,
    condition numbers, ...) so callers and the CLI can report precise
    diagnostics.
    """

    def __init__(self, message: str, details: Any = None):
        super().__init__(message)
        self.details = details


def _is_integer(v) -> bool:
    """Whether a value is an int and not a bool: what transition values,
    labels and document integers must be."""
    return isinstance(v, int) and not isinstance(v, bool)


DEFAULT_BUDGET = 1_000_000
"""Default cap on the guesses of every exhaustive search."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed its configured budget.

    Raised instead of silently truncating the search, so a caller can
    never mistake "gave up" for "no".
    """

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget
