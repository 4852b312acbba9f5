"""Parser for the view definition language."""

import pytest

from quel.parser import (
    BetweenRestriction,
    JoinTerm,
    ParseError,
    QualifiedName,
    Restriction,
    TargetAggregate,
    TargetField,
    parse,
)


class TestSelectProjectSyntax:
    def test_minimal(self):
        spec = parse("define view v (r.id, r.a)")
        assert spec.name == "v"
        assert spec.targets == (
            TargetField(QualifiedName("r", "id")),
            TargetField(QualifiedName("r", "a")),
        )
        assert spec.restrictions == ()
        assert spec.joins == ()

    def test_between_restriction(self):
        spec = parse("define view v (r.a) where r.a between 0 and 9")
        (restriction,) = spec.restrictions
        assert restriction == BetweenRestriction(QualifiedName("r", "a"), 0, 9)

    def test_comparison_restrictions(self):
        spec = parse("define view v (r.a) where r.a >= 10 and r.b < 5")
        assert spec.restrictions == (
            Restriction(QualifiedName("r", "a"), ">=", 10),
            Restriction(QualifiedName("r", "b"), "<", 5),
        )

    def test_equality_to_literal_is_restriction(self):
        spec = parse("define view v (r.a) where r.dept = 5")
        (restriction,) = spec.restrictions
        assert restriction.op == "=="
        assert restriction.value == 5

    def test_string_literal(self):
        spec = parse("define view v (r.a) where r.name = 'alice'")
        assert spec.restrictions[0].value == "alice"

    def test_float_literal(self):
        spec = parse("define view v (r.a) where r.score > 2.5")
        assert spec.restrictions[0].value == 2.5

    def test_clustered_on(self):
        spec = parse("define view v (r.id, r.a) clustered on r.a")
        assert spec.clustered_on == QualifiedName("r", "a")


class TestJoinSyntax:
    def test_paper_shape(self):
        """The paper's own example: define view V (R1.fields, R2.fields)
        where R1.b = R2.b and R1.a = 5."""
        spec = parse(
            "define view v (r1.a, r1.b, r2.c) where r1.b = r2.b and r1.a = 5"
        )
        assert spec.joins == (
            JoinTerm(QualifiedName("r1", "b"), QualifiedName("r2", "b")),
        )
        (restriction,) = spec.restrictions
        assert restriction.value == 5
        assert spec.relations() == ("r1", "r2")

    def test_same_relation_join_rejected(self):
        with pytest.raises(ParseError, match="two different relations"):
            parse("define view v (r.a) where r.x = r.y")


class TestAggregateSyntax:
    def test_aggregate_target(self):
        spec = parse("define view s (sum(r.v)) where r.a between 0 and 9")
        (target,) = spec.targets
        assert target == TargetAggregate("sum", QualifiedName("r", "v"))

    def test_aggregate_function_lowercased(self):
        spec = parse("define view s (SUM(r.v))")
        assert spec.targets[0].function == "sum"


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "view v (r.a)",                      # missing define
        "define view (r.a)",                 # missing name
        "define view v r.a",                 # missing parens
        "define view v (r.a) where",         # dangling where
        "define view v (r.a) where r.a",     # missing operator
        "define view v (r.a) where r.a between 1",  # incomplete between
        "define view v (r.a) extra",         # trailing tokens
        "define view v (r.a) where r.a = ",  # missing literal
        "define view v ()",                  # empty targets
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_lex_errors_surface_as_parse_errors(self):
        with pytest.raises(ParseError):
            parse("define view v (r.a) where r.a = #")

    def test_error_mentions_offset(self):
        with pytest.raises(ParseError, match="offset"):
            parse("define view v [r.a]")
