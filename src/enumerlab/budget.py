"""Enumeration budget: a global guard against accidentally materializing
astronomically large finite sets.

Operations that enumerate 2^k items check the request against one budget:
2^24 items by default, overridable through the ENUMERLAB_BUDGET
environment variable, the only place it is set.
"""

from __future__ import annotations

import os

from .record import _repr_or_hex

DEFAULT_BUDGET = 1 << 24

_ENV_VAR = "ENUMERLAB_BUDGET"


class BudgetError(Exception):
    """Raised when an enumeration would exceed the configured item budget."""

    def __init__(self, requested: int, budget: int):
        self.requested = requested
        self.budget = budget
        super().__init__(
            f"enumeration of {_repr_or_hex(requested)} items exceeds budget of {budget}"
        )


def enumeration_budget() -> int:
    """Current default budget (env override included)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0  # reported below like any other non-positive value
    if value <= 0:
        raise ValueError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def check_budget(requested: int) -> None:
    """Raise BudgetError if `requested` items exceed the current budget."""
    budget = enumeration_budget()
    if requested > budget:
        raise BudgetError(requested, budget)
