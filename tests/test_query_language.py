"""Unit tests for terms, atoms, conjunctive queries, UCQs and the parser."""

import re

import pytest

from repro.errors import EvaluationError, ParseError, QueryError
from repro.query import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    UCQ,
    Variable,
    as_ucq,
    is_constant,
    is_variable,
    make_term,
    parse_query,
    parse_rule,
)
from repro.query.atoms import like_matcher


def reference_like(value, pattern) -> bool:
    """The plain regex translation of SQL LIKE (``%`` any run, ``_`` one char)."""
    regex = re.escape(str(pattern)).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, str(value), re.DOTALL) is not None


LIKE_PATTERNS = [
    "", "%", "%%", "_", "abc", "%abc%", "%abc", "abc%", "a_c", "%a_c%", "%a%c%",
    "a%c", "%.%", "a.c", "%*%", "(a", "%(a)%", "[x]", "%\\%", "%a\nb%", "12", "%2%",
]
LIKE_VALUES = [
    "", "abc", "xabcx", "aXc", "a.c", "abbc", "*", "(a)", "(a", "[x]", "\\",
    "a\nb", "\n", "%", "_", 12, 1.5, None, True, ("a", "c"),
]


class TestTerms:
    def test_make_term_identifier_is_variable(self):
        assert make_term("aid") == Variable("aid")
        assert is_variable(make_term("aid"))

    def test_make_term_value_is_constant(self):
        assert make_term(5) == Constant(5)
        assert is_constant(make_term("hello world"))

    def test_make_term_passes_through(self):
        constant = Constant("x")
        assert make_term(constant) is constant


class TestAtom:
    def test_variables_and_arity(self):
        atom = Atom("R", ["x", Constant("a"), "x"])
        assert atom.arity == 3
        assert atom.variables() == [Variable("x"), Variable("x")]

    def test_substitute_and_ground(self):
        atom = Atom("R", ["x", "y"])
        ground = atom.substitute({Variable("x"): 1, Variable("y"): 2})
        assert ground.is_ground()
        assert ground.ground_row() == (1, 2)

    def test_ground_row_on_non_ground_raises(self):
        with pytest.raises(QueryError):
            Atom("R", ["x"]).ground_row()


class TestComparison:
    def test_numeric_operators(self):
        comparison = Comparison("x", "<", Constant(5))
        assert comparison.evaluate({Variable("x"): 3}) is True
        assert comparison.evaluate({Variable("x"): 7}) is False

    def test_inequality_aliases(self):
        assert Comparison("x", "<>", "y").evaluate({Variable("x"): 1, Variable("y"): 2})
        assert not Comparison("x", "!=", "y").evaluate({Variable("x"): 1, Variable("y"): 1})

    def test_like(self):
        comparison = Comparison("n", "like", Constant("%Madden%"))
        assert comparison.evaluate({Variable("n"): "Samuel Madden"}) is True
        assert comparison.evaluate({Variable("n"): "Dan Suciu"}) is False

    @pytest.mark.parametrize("pattern", LIKE_PATTERNS)
    def test_like_lowering_matches_plain_regex(self, pattern):
        match = like_matcher(pattern)
        comparison = Comparison("n", "like", Constant(pattern))
        test = comparison.pair_test({}, {Variable("n"): 0})
        for value in LIKE_VALUES:
            expected = reference_like(value, pattern)
            assert match(value) is expected, (value, pattern)
            assert comparison.evaluate({Variable("n"): value}) is expected
            assert test((), (value,)) is expected

    def test_like_with_variable_pattern(self):
        comparison = Comparison("n", "like", "p")
        assert comparison.evaluate({Variable("n"): "Madden", Variable("p"): "%add%"})
        test = comparison.pair_test({Variable("p"): 0}, {Variable("n"): 1})
        assert test(("M_dd%",), ("xx", "Madden")) is True
        assert test(("%x",), ("xx", "Madden")) is False

    @pytest.mark.parametrize(
        "text",
        ["x < 5", "x >= 5", "x = 5", "x <> 5", "5 <= x", "5 > x", "x <= y", "x != y"],
    )
    def test_positional_tests_agree_with_evaluate(self, text):
        left, op, right = text.split()
        comparison = Comparison(
            Variable(left) if left.isidentifier() else Constant(int(left)),
            op,
            Variable(right) if right.isidentifier() else Constant(int(right)),
        )
        x, y = Variable("x"), Variable("y")
        row_test = comparison.pair_test({}, {x: 1, y: 0})
        pair_test = comparison.pair_test({y: 2}, {x: 0})
        for x_value in range(3, 8):
            for y_value in (4, 5, 6):
                expected = comparison.evaluate({x: x_value, y: y_value})
                assert row_test((), (y_value, x_value)) is expected
                assert pair_test((None, None, y_value), (x_value,)) is expected

    def test_incomparable_values_raise_typed_error(self):
        comparison = Comparison("x", ">", Constant(3))
        with pytest.raises(EvaluationError, match="cannot compare 'a' > 3"):
            comparison.evaluate({Variable("x"): "a"})
        with pytest.raises(EvaluationError, match="cannot compare 'a' > 3"):
            comparison.pair_test({}, {Variable("x"): 0})((), ("a",))
        reversed_ = Comparison(Constant(3), "<", "x")
        with pytest.raises(EvaluationError, match="cannot compare 3 < 'a'"):
            reversed_.pair_test({}, {Variable("x"): 0})((), ("a",))
        with pytest.raises(EvaluationError, match="cannot compare 3 < 'a'"):
            reversed_.pair_test({Variable("x"): 0}, {})(("a",), ())

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("x", "~~", "y")


class TestConjunctiveQuery:
    def test_boolean_query(self):
        cq = ConjunctiveQuery([], [Atom("R", ["x"])])
        assert cq.is_boolean

    def test_head_must_occur_in_body(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery(["z"], [Atom("R", ["x"])])

    def test_comparison_variables_must_be_bound(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([], [Atom("R", ["x"])], [Comparison("y", "<", Constant(1))])

    def test_needs_at_least_one_atom(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([], [])

    def test_bind_head_produces_boolean_query(self):
        cq = ConjunctiveQuery(["x"], [Atom("R", ["x", "y"])])
        bound = cq.bind_head([7])
        assert bound.is_boolean
        assert bound.atoms[0].terms[0] == Constant(7)

    def test_self_join_detection(self):
        cq = ConjunctiveQuery([], [Atom("R", ["x"]), Atom("R", ["y"])])
        assert cq.has_self_join()

    def test_relations_and_variables(self):
        cq = ConjunctiveQuery(["x"], [Atom("R", ["x"]), Atom("S", ["x", "y"])])
        assert cq.relations() == {"R", "S"}
        assert cq.existential_variables() == {Variable("y")}


class TestUCQ:
    def test_heads_must_match(self):
        q1 = ConjunctiveQuery(["x"], [Atom("R", ["x"])])
        q2 = ConjunctiveQuery(["y"], [Atom("S", ["y"])])
        with pytest.raises(QueryError):
            UCQ([q1, q2])

    def test_union_and_iteration(self):
        q1 = ConjunctiveQuery([], [Atom("R", ["x"])])
        q2 = ConjunctiveQuery([], [Atom("S", ["x"])])
        union = as_ucq(q1).union(q2)
        assert len(union) == 2
        assert union.relations() == {"R", "S"}

    def test_bind_head(self):
        q1 = ConjunctiveQuery(["x"], [Atom("R", ["x"])])
        q2 = ConjunctiveQuery(["x"], [Atom("S", ["x", "y"])])
        bound = UCQ([q1, q2]).bind_head([3])
        assert bound.is_boolean


class TestParser:
    def test_parse_simple_rule(self):
        cq = parse_rule("Q(x) :- R(x, y), S(y)")
        assert cq.name == "Q"
        assert [a.relation for a in cq.atoms] == ["R", "S"]
        assert cq.head == (Variable("x"),)

    def test_parse_constants(self):
        cq = parse_rule("Q() :- R(x, 'Sam Madden'), S(x, 3), T(x, 2.5)")
        assert cq.atoms[0].terms[1] == Constant("Sam Madden")
        assert cq.atoms[1].terms[1] == Constant(3)
        assert cq.atoms[2].terms[1] == Constant(2.5)

    def test_parse_comparisons(self):
        cq = parse_rule("Q(x) :- R(x, y), y > 2004, x <> y")
        assert len(cq.comparisons) == 2
        assert cq.comparisons[0].op == ">"
        assert cq.comparisons[1].op == "<>"

    def test_parse_like(self):
        cq = parse_rule("Q(a) :- Author(a, n), n like '%Madden%'")
        assert cq.comparisons[0].op == "like"

    def test_parse_boolean_head_without_parens(self):
        cq = parse_rule("Q :- R(x)")
        assert cq.is_boolean

    def test_parse_ucq_from_multiline_string(self):
        ucq = parse_query("Q(x) :- R(x)\nQ(x) :- S(x, y)")
        assert len(ucq) == 2

    def test_parse_ucq_mismatched_heads_rejected(self):
        with pytest.raises(ParseError):
            parse_query(["Q(x) :- R(x)", "P(x) :- S(x)"])

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_rule("Q(x) :- R(x")

    def test_parse_example_from_paper(self):
        text = (
            "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), "
            "Author(aid1, n1), n1 like '%Madden%'"
        )
        cq = parse_rule(text)
        assert len(cq.atoms) == 4
        assert len(cq.comparisons) == 1
