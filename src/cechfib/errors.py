"""Exception types, the integer and budget tests, and the depth-first
search that every branching search of the library runs under one budget."""

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


def check_budget(budget) -> None:
    """Refuse a search budget that is no non-negative integer (0 is one)."""
    if not _is_integer(budget) or budget < 0:
        raise ValidationError(f"budget must be a non-negative integer, got {budget!r}")


def depth_first(size, advance, choices, assign, trail, retract, budget, exceeded):
    """Search positions ``0 .. size - 1`` in order, yielding at each full
    assignment (the caller reads it off its own state).  ``advance(i)`` is
    the least open position from i on, ``size`` when every later position
    is set, or None when a value forced on the way does not fit: back up.
    An open position tries ``choices(i)`` in order, one guess each;
    ``assign(i, c)`` says whether c holds and records what it sets on
    ``trail``, which ``retract(mark)`` cuts back to ``mark`` entries.  The
    guess past ``budget`` raises BudgetExceededError with the text
    ``exceeded(spent)``.
    """
    frames = []  # one per open position: it, its trail mark, choices left
    guesses = 0
    i = advance(0)
    while True:
        if i == size:
            yield
        elif i is not None:
            frames.append((i, len(trail), iter(choices(i))))
        # back up to the last open position with a choice left, and take it
        while frames:
            i, mark, left = frames[-1]
            retract(mark)
            choice = next(left, left)  # the iterator itself once it is spent
            if choice is left:
                frames.pop()
                continue
            guesses += 1
            if guesses > budget:
                raise BudgetExceededError(exceeded(guesses - 1), budget)
            if assign(i, choice):
                break
        else:
            return
        i = advance(i + 1)
