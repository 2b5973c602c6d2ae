"""Search budgets for the backtracking decision procedures.

Contractibility, sphere recognition and catalog generation all explore
spaces whose worst case is exponential.  A Budget caps the number of
search nodes a call may expand; exhausting it raises BudgetExceeded,
which is deliberately distinct from a negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_NODE_LIMIT = 5_000_000


class BudgetExceeded(Exception):
    """The configured search budget ran out before a verdict was reached."""


@dataclass
class Budget:
    """Mutable counter shared by all recursive calls of one top-level query."""

    limit: int | None = DEFAULT_NODE_LIMIT
    spent: int = field(default=0)

    def charge(self, amount: int = 1) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceeded(
                f"search budget of {self.limit} nodes exhausted"
            )


def ensure_budget(budget: Budget | None) -> Budget:
    """Return the given budget, or a fresh default one."""
    return budget if budget is not None else Budget()
