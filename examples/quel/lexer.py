"""Tokenizer for the QUEL-flavored view definition language.

The paper writes view definitions in INGRES' QUEL style::

    define view V (R1.fields, R2.fields)
        where R1.x = R2.y and C_f

This package accepts exactly that shape (see
:mod:`quel.parser` for the grammar).  The lexer produces a flat
token stream: keywords, identifiers, qualified names, numbers, strings,
comparison operators and punctuation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset({
    "define", "view", "where", "and", "between", "clustered", "on", "as",
})

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<punct>[(),.])
  | (?P<string>'[^']*')
    """,
    re.VERBOSE,
)


class LexError(ValueError):
    """Input contains a character the language does not know."""


@dataclass(frozen=True)
class Token:
    """One lexeme: a kind tag, its text, and where it started."""

    kind: str  # keyword | name | number | op | punct | string
    text: str
    position: int

    def is_keyword(self, word: str) -> bool:
        """True when this token is the given keyword."""
        return self.kind == "keyword" and self.text == word


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens (whitespace dropped).

    Keywords are case-insensitive and normalized to lower case;
    identifiers keep their case.
    """
    tokens: list[Token] = []
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            raise LexError(
                f"unexpected character {source[position]!r} at offset {position}"
            )
        kind = match.lastgroup
        text = match.group()
        if kind != "ws":
            if kind == "name" and text.lower() in KEYWORDS:
                tokens.append(Token("keyword", text.lower(), position))
            elif kind == "number":
                tokens.append(Token("number", text, position))
            elif kind == "string":
                tokens.append(Token("string", text[1:-1], position))
            else:
                tokens.append(Token(kind, text, position))
        position = match.end()
    return tokens
