"""Lexer for the view definition language."""

import pytest

from quel.lexer import LexError, tokenize


class TestTokenize:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("DEFINE View where")
        assert [t.kind for t in tokens] == ["keyword"] * 3
        assert [t.text for t in tokens] == ["define", "view", "where"]

    def test_identifiers_keep_case(self):
        (token,) = tokenize("EmpDept")
        assert token.kind == "name"
        assert token.text == "EmpDept"

    def test_qualified_name_tokens(self):
        tokens = tokenize("r1.a")
        assert [(t.kind, t.text) for t in tokens] == [
            ("name", "r1"), ("punct", "."), ("name", "a"),
        ]

    def test_numbers(self):
        tokens = tokenize("42 -7 3.5")
        assert [t.text for t in tokens] == ["42", "-7", "3.5"]
        assert all(t.kind == "number" for t in tokens)

    def test_operators(self):
        tokens = tokenize("= != < <= > >=")
        assert [t.text for t in tokens] == ["=", "!=", "<", "<=", ">", ">="]
        assert all(t.kind == "op" for t in tokens)

    def test_strings_unquoted(self):
        (token,) = tokenize("'hello world'")
        assert token.kind == "string"
        assert token.text == "hello world"

    def test_positions_recorded(self):
        tokens = tokenize("define view")
        assert tokens[0].position == 0
        assert tokens[1].position == 7

    def test_unknown_character_raises(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("define @")

    def test_empty_input(self):
        assert tokenize("") == []

    def test_is_keyword_helper(self):
        (token,) = tokenize("where")
        assert token.is_keyword("where")
        assert not token.is_keyword("define")
