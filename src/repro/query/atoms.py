"""Relational atoms and comparison predicates.

A conjunctive query body is a list of positive relational atoms plus
built-in comparison predicates (``<``, ``<=``, ``>``, ``>=``, ``=``, ``!=``)
and a SQL-style ``like`` substring predicate, exactly the fragment used by
the paper's running example (Fig. 2 uses ``n1 like '%Madden%'`` and
``aid2 <> aid3``).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import EvaluationError, QueryError
from repro.query.terms import Constant, Term, Variable, is_variable, make_term

#: A database row or an intermediate tuple, read by position.
_Values = Sequence[Any]

_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def like_matcher(pattern: Any) -> Callable[[Any], bool]:
    """Compile SQL ``value like pattern`` into a one-argument test.

    ``%`` matches any substring (newlines included) and ``_`` any single
    character; both sides compare through ``str``.  The common shapes skip
    the regex engine: ``'%x%'`` with no inner wildcard is a substring test,
    and a pattern with no wildcard at all is string equality.  Any other
    pattern compiles one regex.  :meth:`Comparison.evaluate` and the
    positional tests of :meth:`Comparison.pair_test` share this builder.
    """
    pattern = str(pattern)
    if not _has_wildcard(pattern):
        return lambda value: str(value) == pattern
    inner = pattern[1:-1]
    if len(pattern) >= 2 and pattern[0] == pattern[-1] == "%" and not _has_wildcard(inner):
        return lambda value: inner in str(value)
    regex = re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."), re.DOTALL)
    return lambda value: regex.fullmatch(str(value)) is not None


def _has_wildcard(pattern: str) -> bool:
    return "%" in pattern or "_" in pattern


def _like(value: Any, pattern: Any) -> bool:
    return like_matcher(pattern)(value)


def _incomparable(left: Any, op: str, right: Any) -> EvaluationError:
    return EvaluationError(f"cannot compare {left!r} {op} {right!r}")


@dataclass(frozen=True)
class Atom:
    """A positive relational atom ``R(t1, ..., tk)``."""

    relation: str
    terms: tuple[Term, ...]

    def __init__(self, relation: str, terms: Iterable[Any]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(make_term(t) for t in terms))

    @property
    def arity(self) -> int:
        """Number of terms."""
        return len(self.terms)

    def variables(self) -> list[Variable]:
        """Variables occurring in the atom, in positional order (with duplicates)."""
        return [t for t in self.terms if is_variable(t)]

    def substitute(self, substitution: dict[Variable, Any]) -> "Atom":
        """Replace variables by the values bound in ``substitution``.

        Values are wrapped as constants; unbound variables are left alone.
        """
        new_terms: list[Term] = []
        for term in self.terms:
            if is_variable(term) and term in substitution:
                new_terms.append(Constant(substitution[term]))
            else:
                new_terms.append(term)
        return Atom(self.relation, new_terms)

    def is_ground(self) -> bool:
        """True if the atom contains no variables."""
        return not any(is_variable(t) for t in self.terms)

    def ground_row(self) -> tuple[Any, ...]:
        """The database row denoted by a ground atom."""
        if not self.is_ground():
            raise QueryError(f"atom {self} is not ground")
        return tuple(t.value for t in self.terms)  # type: ignore[union-attr]

    def __repr__(self) -> str:
        args = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({args})"


@dataclass(frozen=True)
class Comparison:
    """A built-in predicate ``left op right`` between terms.

    ``op`` is one of ``= != <> < <= > >= like``.
    """

    left: Term
    op: str
    right: Term

    def __init__(self, left: Any, op: str, right: Any) -> None:
        op = op.strip().lower()
        if op not in _OPERATORS and op != "like":
            raise QueryError(f"unsupported comparison operator {op!r}")
        object.__setattr__(self, "left", make_term(left))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "right", make_term(right))

    def variables(self) -> list[Variable]:
        """Variables occurring in the comparison."""
        return [t for t in (self.left, self.right) if is_variable(t)]

    def _resolve(self, term: Term, substitution: dict[Variable, Any]) -> Any:
        if is_variable(term):
            if term not in substitution:
                raise EvaluationError(
                    f"variable {term!r} in comparison {self} is not bound; comparisons must "
                    "only use variables bound by a relational atom"
                )
            return substitution[term]
        return term.value  # type: ignore[union-attr]

    def _function(self) -> Callable[[Any, Any], bool]:
        return _like if self.op == "like" else _OPERATORS[self.op]

    def evaluate(self, substitution: dict[Variable, Any]) -> bool:
        """Evaluate the comparison under a variable substitution."""
        left = self._resolve(self.left, substitution)
        right = self._resolve(self.right, substitution)
        try:
            return self._function()(left, right)
        except TypeError as exc:
            raise _incomparable(left, self.op, right) from exc

    def pair_test(
        self, slots: Mapping[Variable, int], positions: Mapping[Variable, int]
    ) -> Callable[[_Values, _Values], bool]:
        """Compile into a positional ``test(env, row)``, once per query.

        A variable in ``positions`` is read from the candidate row, any other
        from its slot in ``slots`` of the intermediate tuple ``env``.  A
        comparison whose variables all lie in ``positions`` reads the row
        only, so the query evaluator calls it with an empty ``env`` at the
        scan.  A constant LIKE pattern is compiled here, once.
        """

        def reader(term: Term) -> Callable[[_Values, _Values], Any]:
            if not is_variable(term):
                value = term.value  # type: ignore[union-attr]
                return lambda env, row: value
            if term in positions:
                position = positions[term]  # type: ignore[index]
                return lambda env, row: row[position]
            slot = slots[term]  # type: ignore[index]
            return lambda env, row: env[slot]

        read_left, read_right = reader(self.left), reader(self.right)
        if self.op == "like" and not is_variable(self.right):
            match = like_matcher(self.right.value)  # type: ignore[union-attr]
            return lambda env, row: match(read_left(env, row))
        function, op = self._function(), self.op

        def test(env: _Values, row: _Values) -> bool:
            left, right = read_left(env, row), read_right(env, row)
            try:
                return function(left, right)
            except TypeError as exc:
                raise _incomparable(left, op, right) from exc

        return test

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"
