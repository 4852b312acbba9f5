"""Parser for the QUEL-flavored view definition language.

Grammar (keywords case-insensitive)::

    definition := "define" "view" NAME "(" targets ")"
                  [ "where" conjunction ]
                  [ "clustered" "on" qualified ]

    targets    := target { "," target }
    target     := qualified                  -- projected field
                | NAME "(" qualified ")"     -- aggregate(field)
    qualified  := NAME "." NAME              -- relation.field

    conjunction := clause { "and" clause }
    clause      := qualified OP literal      -- restriction
                 | qualified "between" literal "and" literal
                 | qualified "=" qualified   -- join term
    OP          := = | != | < | <= | > | >=
    literal     := NUMBER | 'string'

The output is a plain AST (:class:`ParsedView`);
:mod:`quel.builder` turns it into the typed view definitions of
:mod:`repro.views.definition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .lexer import LexError, Token, tokenize

__all__ = [
    "ParseError",
    "QualifiedName",
    "TargetField",
    "TargetAggregate",
    "Restriction",
    "BetweenRestriction",
    "JoinTerm",
    "ParsedView",
    "parse",
]


class ParseError(ValueError):
    """The token stream does not match the grammar."""


@dataclass(frozen=True)
class QualifiedName:
    """``relation.field``."""

    relation: str
    field: str

    def __str__(self) -> str:
        return f"{self.relation}.{self.field}"


@dataclass(frozen=True)
class TargetField:
    """A projected field in the target list."""

    name: QualifiedName


@dataclass(frozen=True)
class TargetAggregate:
    """An aggregate over a field in the target list."""

    function: str
    name: QualifiedName


@dataclass(frozen=True)
class Restriction:
    """``relation.field OP literal``."""

    name: QualifiedName
    op: str
    value: Any


@dataclass(frozen=True)
class BetweenRestriction:
    """``relation.field between lo and hi``."""

    name: QualifiedName
    lo: Any
    hi: Any


@dataclass(frozen=True)
class JoinTerm:
    """``r1.x = r2.y`` with distinct relations."""

    left: QualifiedName
    right: QualifiedName


@dataclass(frozen=True)
class ParsedView:
    """Parsed definition, before semantic checking."""

    name: str
    targets: tuple[TargetField | TargetAggregate, ...]
    restrictions: tuple[Restriction | BetweenRestriction, ...]
    joins: tuple[JoinTerm, ...]
    clustered_on: QualifiedName | None = None

    def relations(self) -> tuple[str, ...]:
        """Relations mentioned anywhere, in first-appearance order."""
        seen: dict[str, None] = {}
        for target in self.targets:
            seen.setdefault(target.name.relation, None)
        for restriction in self.restrictions:
            seen.setdefault(restriction.name.relation, None)
        for join in self.joins:
            seen.setdefault(join.left.relation, None)
            seen.setdefault(join.right.relation, None)
        return tuple(seen)


class _Cursor:
    """Token cursor with grammar-aware helpers."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of definition")
        self.index += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.next()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected keyword {word!r} at offset {token.position}, "
                f"got {token.text!r}"
            )
        return token

    def expect_punct(self, text: str) -> Token:
        token = self.next()
        if token.kind != "punct" or token.text != text:
            raise ParseError(
                f"expected {text!r} at offset {token.position}, got {token.text!r}"
            )
        return token

    def expect_name(self) -> str:
        token = self.next()
        if token.kind != "name":
            raise ParseError(
                f"expected an identifier at offset {token.position}, "
                f"got {token.text!r}"
            )
        return token.text

    def at_punct(self, text: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "punct" and token.text == text

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.is_keyword(word)


def _parse_qualified(cursor: _Cursor) -> QualifiedName:
    relation = cursor.expect_name()
    cursor.expect_punct(".")
    field_name = cursor.expect_name()
    return QualifiedName(relation, field_name)


def _parse_literal(cursor: _Cursor) -> Any:
    token = cursor.next()
    if token.kind == "number":
        value = float(token.text)
        return int(value) if value.is_integer() else value
    if token.kind == "string":
        return token.text
    raise ParseError(
        f"expected a literal at offset {token.position}, got {token.text!r}"
    )


def _parse_target(cursor: _Cursor) -> TargetField | TargetAggregate:
    first = cursor.expect_name()
    if cursor.at_punct("("):
        cursor.expect_punct("(")
        name = _parse_qualified(cursor)
        cursor.expect_punct(")")
        return TargetAggregate(function=first.lower(), name=name)
    cursor.expect_punct(".")
    field_name = cursor.expect_name()
    return TargetField(QualifiedName(first, field_name))


def _parse_clause(cursor: _Cursor):
    left = _parse_qualified(cursor)
    if cursor.at_keyword("between"):
        cursor.expect_keyword("between")
        lo = _parse_literal(cursor)
        cursor.expect_keyword("and")
        hi = _parse_literal(cursor)
        return BetweenRestriction(left, lo, hi)
    op_token = cursor.next()
    if op_token.kind != "op":
        raise ParseError(
            f"expected a comparison at offset {op_token.position}, "
            f"got {op_token.text!r}"
        )
    peeked = cursor.peek()
    if op_token.text == "=" and peeked is not None and peeked.kind == "name":
        right = _parse_qualified(cursor)
        if right.relation == left.relation:
            raise ParseError(
                f"join term {left} = {right} must relate two different relations"
            )
        return JoinTerm(left, right)
    value = _parse_literal(cursor)
    op = "==" if op_token.text == "=" else op_token.text
    return Restriction(left, op, value)


def parse(source: str) -> ParsedView:
    """Parse one ``define view`` statement into a :class:`ParsedView`."""
    try:
        cursor = _Cursor(tokenize(source))
    except LexError as exc:
        raise ParseError(str(exc)) from exc

    cursor.expect_keyword("define")
    cursor.expect_keyword("view")
    view_name = cursor.expect_name()
    cursor.expect_punct("(")
    targets = [_parse_target(cursor)]
    while cursor.at_punct(","):
        cursor.expect_punct(",")
        targets.append(_parse_target(cursor))
    cursor.expect_punct(")")

    restrictions: list[Restriction | BetweenRestriction] = []
    joins: list[JoinTerm] = []
    if cursor.at_keyword("where"):
        cursor.expect_keyword("where")
        while True:
            clause = _parse_clause(cursor)
            if isinstance(clause, JoinTerm):
                joins.append(clause)
            else:
                restrictions.append(clause)
            if cursor.at_keyword("and"):
                cursor.expect_keyword("and")
                continue
            break

    clustered_on = None
    if cursor.at_keyword("clustered"):
        cursor.expect_keyword("clustered")
        cursor.expect_keyword("on")
        clustered_on = _parse_qualified(cursor)

    trailing = cursor.peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected trailing input at offset {trailing.position}: "
            f"{trailing.text!r}"
        )
    return ParsedView(
        name=view_name,
        targets=tuple(targets),
        restrictions=tuple(restrictions),
        joins=tuple(joins),
        clustered_on=clustered_on,
    )
