"""The alerter: threshold conditions over maintained views.

Section 4: "view materialization could be better employed where a
complete copy of the answer to a query is always needed.  For example,
materialization could support conditions for complex triggers and
alerters, as described in [Bune79]."

An :class:`Alerter` evaluates registered :class:`ThresholdCondition`
objects against a :class:`~repro.engine.database.Database` on demand.
Conditions are **edge-triggered**: an alert fires when a condition goes
from false to true, and the condition re-arms when it falls back.  Each
check queries the watched views, so deferred-maintained views are
refreshed exactly when the alerter looks, and a maintained aggregate
costs about one page per check instead of a base-relation scan.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.database import Database

__all__ = ["Alert", "Alerter", "ThresholdCondition"]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class ThresholdCondition:
    """Fires when an aggregate view's value compares true to a constant.

    Example: ``ThresholdCondition("backlog", "critical_count", ">=", 170)``.
    """

    name: str
    view_name: str
    op: str
    threshold: Any

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unknown comparator {self.op!r}; expected one of "
                             f"{sorted(_COMPARATORS)}")

    def evaluate(self, answer: Any) -> bool:
        """Test the condition against the view's value (``None``: false)."""
        return answer is not None and _COMPARATORS[self.op](answer, self.threshold)

    def describe(self) -> str:
        """One-line summary including the comparison."""
        return f"{self.name}: {self.view_name} {self.op} {self.threshold}"


@dataclass(frozen=True)
class Alert:
    """One firing: which condition, at which check, with what answer."""

    condition: str
    check_number: int
    answer: Any

    def __str__(self) -> str:
        return f"[check {self.check_number}] {self.condition} fired (answer={self.answer!r})"


class Alerter:
    """Evaluates registered conditions against one database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._conditions: dict[str, ThresholdCondition] = {}
        self._holding: set[str] = set()
        self.checks_performed = 0
        self.history: list[Alert] = []

    def register(self, condition: ThresholdCondition) -> None:
        """Add a condition; it starts armed."""
        if condition.name in self._conditions:
            raise ValueError(f"condition {condition.name!r} already registered")
        if condition.view_name not in self.database.views:
            raise KeyError(
                f"condition {condition.name!r} watches unknown view "
                f"{condition.view_name!r}"
            )
        self._conditions[condition.name] = condition

    def check(self) -> list[Alert]:
        """Evaluate every condition once; returns the alerts that fired.

        Conditions watching the same view share one view query.
        """
        self.checks_performed += 1
        answers: dict[str, Any] = {}
        fired: list[Alert] = []
        for name, condition in self._conditions.items():
            if condition.view_name not in answers:
                answers[condition.view_name] = self.database.query_view(
                    condition.view_name
                )
            answer = answers[condition.view_name]
            if not condition.evaluate(answer):
                self._holding.discard(name)  # false: re-arm
            elif name not in self._holding:  # rising edge: fire, disarm
                self._holding.add(name)
                fired.append(Alert(name, self.checks_performed, answer))
        self.history.extend(fired)
        return fired
