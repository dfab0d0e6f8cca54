"""Differential test harness: memory vs. sqlite backends must agree exactly.

Each case builds the *same* seeded random tuple-independent instance on both
storage backends (identical insertion order, hence identical probabilistic
variable ids), runs the same seeded random CQ/UCQ workload on each, and
asserts that the two evaluations are indistinguishable:

* identical answer sets,
* identical canonical lineage DNFs (frozensets of int-variable clauses),
* bit-identical answer probabilities (compared via ``struct.pack`` so that
  even a 1-ulp divergence fails the test).

The harness runs ``INSTANCES_PER_RUN * QUERIES_PER_INSTANCE`` (>= 200)
instance/query pairs, which is the acceptance bar for the disk-backed
relational layer: any ordering or typing discrepancy introduced by the sqlite
backend (row order, value affinity, duplicate handling) shows up here as a
probability diff.

Both backends run the same evaluator, so agreement between them cannot
catch a bug in the evaluator itself (its join strategies, pushdown or the
compiled comparison predicates).  Every query is therefore also checked
against :func:`brute_force`, a nested-loop reference that shares nothing
with the evaluator but :meth:`Comparison.evaluate`.
"""

from __future__ import annotations

import itertools
import random
import struct

import pytest

from repro.db import SqliteBackend
from repro.indb import TupleIndependentDatabase, probability_to_weight
from repro.lineage import DNF
from repro.mvindex import (
    IntersectStatistics,
    MVIndex,
    SkipAnalysis,
    cc_mv_intersect,
    mv_intersect,
)
from repro.obdd import VariableOrder, build_obdd
from repro.query import answer_probabilities, as_ucq, evaluate_ucq, parse_query
from repro.query.evaluator import QueryResult
from repro.query.terms import is_variable

INSTANCES_PER_RUN = 20
QUERIES_PER_INSTANCE = 10

#: (name, column types, probabilistic?) — the relational signature every
#: random instance draws from.  ``int`` columns feed comparisons; the ``str``
#: columns exercise sqlite's text storage class and LIKE predicates.
SIGNATURE = (
    ("R", (int,), True),
    ("S", (int, int), True),
    ("T", (int, str), True),
    ("D", (int, int), False),
    ("E", (str,), False),
)

INT_DOMAIN = tuple(range(8))
STR_DOMAIN = ("alpha", "beta", "gamma", "delta", "epsilon")
VARIABLES = ("x", "y", "z", "w")
COMPARISON_OPS = ("<", "<=", ">", ">=", "!=", "<>", "=")
LIKE_PATTERNS = ("'%a%'", "'%ta'", "'b%'", "'_e%'", "'%l_h%'", "'gamma'", "'%p%i%'")


# ------------------------------------------------------------------ instances
def instance_spec(seed: int) -> dict[str, list]:
    """A pure-data description of one random instance (backend-independent)."""
    rng = random.Random(seed)
    spec: dict[str, list] = {}
    for name, types, probabilistic in SIGNATURE:
        rows: list = []
        seen: set = set()
        for _ in range(rng.randint(3, 14)):
            row = tuple(
                rng.choice(INT_DOMAIN) if t is int else rng.choice(STR_DOMAIN)
                for t in types
            )
            if row in seen:
                continue
            seen.add(row)
            if probabilistic:
                rows.append((row, probability_to_weight(rng.uniform(0.05, 0.95))))
            else:
                rows.append(row)
        spec[name] = rows
    return spec


def load_instance(spec: dict[str, list], backend) -> TupleIndependentDatabase:
    """Materialise a spec on a backend, preserving exact insertion order."""
    indb = TupleIndependentDatabase(backend=backend)
    for name, types, probabilistic in SIGNATURE:
        attributes = [f"a{i}" for i in range(len(types))]
        if probabilistic:
            indb.add_probabilistic_table(name, attributes, spec[name])
        else:
            indb.add_deterministic_table(name, attributes, spec[name])
    return indb


# -------------------------------------------------------------------- queries
def _random_body(rng: random.Random) -> "tuple[list, list[str]]":
    """One random CQ body: ``(body parts, variables in first-use order)``.

    Parts are ``("atom", name, [terms])`` or ``("cmp", left, op, right)``;
    variable terms are bare names from VARIABLES, constants are rendered text.
    """
    atom_count = rng.randint(1, 3)
    parts: list = []
    var_types: dict[str, set] = {}
    order: list[str] = []
    atom_vars: list[list[str]] = []
    for _ in range(atom_count):
        name, types, _ = SIGNATURE[rng.randrange(len(SIGNATURE))]
        terms = []
        for column_type in types:
            if rng.random() < 0.15:
                if column_type is int:
                    terms.append(str(rng.choice(INT_DOMAIN)))
                else:
                    terms.append(f"'{rng.choice(STR_DOMAIN)}'")
            else:
                variable = rng.choice(VARIABLES)
                terms.append(variable)
                var_types.setdefault(variable, set()).add(column_type)
                if variable not in order:
                    order.append(variable)
        parts.append(("atom", name, terms))
        atom_vars.append([t for t in terms if t in VARIABLES])

    for _ in range(2):
        if rng.random() < 0.5:
            parts.append(_random_comparison(rng, var_types, atom_vars))
    return [part for part in parts if part is not None], order


def _random_comparison(
    rng: random.Random, var_types: "dict[str, set]", atom_vars: "list[list[str]]"
) -> "tuple | None":
    """``("cmp", left, op, right)`` over type-consistent operands, or None.

    Shapes: ``var op const``, ``const op var``, ``var op var`` between
    variables of two different atoms, and ``var like pattern`` on a ``str``
    variable.  Operands never mix an ``int`` and a ``str`` variable.
    """
    typed = {t: [v for v in var_types if var_types[v] == {t}] for t in (int, str)}
    shape = rng.choice(("var-const", "const-var", "var-var", "like"))
    if shape == "like":
        if not typed[str]:
            return None
        return ("cmp", rng.choice(typed[str]), "like", rng.choice(LIKE_PATTERNS))
    if shape == "var-var":
        pairs = [
            (left, right)
            for first, second in itertools.permutations(range(len(atom_vars)), 2)
            for left in atom_vars[first]
            for right in atom_vars[second]
            if left != right and var_types[left] == var_types[right]
            and len(var_types[left]) == 1
        ]
        if not pairs:
            return None
        left, right = rng.choice(pairs)
        return ("cmp", left, rng.choice(COMPARISON_OPS), right)
    if not typed[int]:
        return None
    variable = rng.choice(typed[int])
    constant = str(rng.choice(INT_DOMAIN))
    op = rng.choice(COMPARISON_OPS)
    if shape == "const-var":
        return ("cmp", constant, op, variable)
    return ("cmp", variable, op, constant)


def _render(parts: list, head_vars: "list[str]", rename: "dict[str, str]") -> str:
    """Render one disjunct, applying a variable renaming to body and head."""

    def var(v: str) -> str:
        return rename.get(v, v)

    pieces = []
    for part in parts:
        if part[0] == "atom":
            _, name, terms = part
            rendered = [var(t) if t in VARIABLES else t for t in terms]
            pieces.append(f"{name}({', '.join(rendered)})")
        else:
            _, left, op, right = part
            operands = [var(t) if t in VARIABLES else t for t in (left, right)]
            pieces.append(f"{operands[0]} {op} {operands[1]}")
    head = f"Q({', '.join(var(v) for v in head_vars)})" if head_vars else "Q"
    return f"{head} :- {', '.join(pieces)}"


def random_query(rng: random.Random) -> str:
    """A random CQ, or (35% of the time) a two-disjunct UCQ."""
    parts, order = _random_body(rng)
    arity = rng.randint(0, min(2, len(order)))
    head_vars = order[:arity]
    text = _render(parts, head_vars, {})
    if rng.random() < 0.35:
        other_parts, other_order = _random_body(rng)
        while len(other_order) < arity:
            other_parts, other_order = _random_body(rng)
        # Alpha-rename the second disjunct so its head variables carry the
        # same names as the first's (a UCQ invariant of the parser).
        rename = dict(zip(other_order[:arity], head_vars))
        spare_src = [v for v in VARIABLES if v not in rename]
        spare_dst = [v for v in VARIABLES if v not in rename.values()]
        rename.update(zip(spare_src, spare_dst))
        text = f"{text}\n{_render(other_parts, other_order[:arity], rename)}"
    return text


# ------------------------------------------------------------------ reference
def brute_force(query, indb) -> QueryResult:
    """Reference evaluation: nested loops over every atom's rows.

    Each combination of rows binds the atoms' variables in one substitution
    dict; the combination derives an answer when the bindings agree, the
    atoms' constants match, and every comparison holds under
    :meth:`Comparison.evaluate`.  No join order, pushdown or compiled
    predicate is involved.
    """
    ucq = as_ucq(query)
    result = QueryResult(ucq.head)
    for cq in ucq.disjuncts:
        tables = [indb.database.table(atom.relation).rows() for atom in cq.atoms]
        for rows in itertools.product(*tables):
            substitution: dict = {}
            if not all(_bind(atom, row, substitution) for atom, row in zip(cq.atoms, rows)):
                continue
            if not all(c.evaluate(substitution) for c in cq.comparisons):
                continue
            variables = (indb.variable_for(a.relation, row) for a, row in zip(cq.atoms, rows))
            clause = frozenset(v for v in variables if v is not None)
            result.add_derivation(tuple(substitution[v] for v in cq.head), clause)
    return result


def _bind(atom, row, substitution: dict) -> bool:
    """Extend ``substitution`` with ``atom`` matched to ``row``; False on a clash."""
    for term, value in zip(atom.terms, row):
        if not is_variable(term):
            if term.value != value:
                return False
        elif substitution.setdefault(term, value) != value:
            return False
    return True


# ----------------------------------------------------------------- comparison
def canonical_dnfs(result) -> dict:
    """Answer -> canonical lineage clause set (absorption-normalised)."""
    return {answer: dnf.clauses for answer, dnf in result.lineages().items()}


def bits(probabilities: dict) -> dict:
    """Probabilities as raw IEEE-754 bytes: equality here is bit-identity."""
    return {
        answer: struct.pack("<d", value) for answer, value in probabilities.items()
    }


def run_differential_case(seed: int, build_budget: "int | None" = None) -> int:
    """One instance, QUERIES_PER_INSTANCE queries, both backends. Returns #pairs."""
    spec = instance_spec(seed)
    memory_indb = load_instance(spec, backend="memory")
    sqlite_indb = load_instance(spec, backend=SqliteBackend())
    try:
        assert memory_indb.probabilities() == sqlite_indb.probabilities()
        query_rng = random.Random(10_000 + seed)
        pairs = 0
        for _ in range(QUERIES_PER_INSTANCE):
            query = parse_query(random_query(query_rng))
            reference = evaluate_ucq(
                query, memory_indb.database, memory_indb, build_budget=build_budget
            )
            candidate = evaluate_ucq(
                query, sqlite_indb.database, sqlite_indb, build_budget=build_budget
            )
            assert set(reference.answers()) == set(candidate.answers())
            assert canonical_dnfs(reference) == canonical_dnfs(candidate)
            assert canonical_dnfs(reference) == canonical_dnfs(
                brute_force(query, memory_indb)
            )
            reference_probs = answer_probabilities(
                reference, memory_indb.probabilities()
            )
            candidate_probs = answer_probabilities(
                candidate, sqlite_indb.probabilities()
            )
            assert bits(reference_probs) == bits(candidate_probs)
            pairs += 1
        return pairs
    finally:
        sqlite_indb.database.close()


class TestDifferentialBackends:
    @pytest.mark.parametrize("seed", range(INSTANCES_PER_RUN))
    def test_seeded_instance_agrees_across_backends(self, seed):
        assert run_differential_case(seed) == QUERIES_PER_INSTANCE

    def test_run_covers_acceptance_bar(self):
        assert INSTANCES_PER_RUN * QUERIES_PER_INSTANCE >= 200

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_grace_partition_path_agrees(self, seed):
        # A tiny build budget forces the hash join into its grace-partitioned
        # spill path on every atom; answers must still be bit-identical.
        assert run_differential_case(seed, build_budget=2) == QUERIES_PER_INSTANCE


class TestWorkloadIsNonTrivial:
    """Guard against the generator degenerating into all-empty results."""

    def test_some_queries_have_answers_and_probabilistic_lineage(self):
        answered = 0
        probabilistic = 0
        for seed in range(INSTANCES_PER_RUN):
            spec = instance_spec(seed)
            indb = load_instance(spec, backend="memory")
            query_rng = random.Random(10_000 + seed)
            for _ in range(QUERIES_PER_INSTANCE):
                query = parse_query(random_query(query_rng))
                result = evaluate_ucq(query, indb.database, indb)
                if len(result):
                    answered += 1
                    if any(
                        any(clause for clause in dnf.clauses)
                        for dnf in result.lineages().values()
                    ):
                        probabilistic += 1
        # Loose floors: the exact counts are seed-dependent, but a healthy
        # generator answers a large fraction and exercises real lineage.
        assert answered >= 50
        assert probabilistic >= 30


# ------------------------------------------------------- intersection counters
def random_index(indb: TupleIndependentDatabase, seed: int) -> MVIndex:
    """A seeded MV-index over an instance's tuple variables.

    ``W`` joins random pairs and triples of variables into components; the
    order is a seeded shuffle, so touched components interleave in some
    instances and the explicit-conjunction fallback runs too.
    """
    rng = random.Random(20_000 + seed)
    probabilities = indb.probabilities()
    variables = sorted(probabilities)
    clauses = [rng.sample(variables, rng.randint(1, 3)) for _ in range(len(variables) // 3)]
    shuffled = list(variables)
    rng.shuffle(shuffled)
    return MVIndex(DNF(clauses), probabilities, VariableOrder(shuffled))


class TestIntersectionCounters:
    """Both intersection paths report the same work for the same lineage.

    ``QueryResult`` and the benchmark ledger report these counters, and the
    query-OBDD size is read off the compile's fresh manager, so it must equal
    the reachable size of an independent compile of the same lineage.
    """

    @pytest.mark.parametrize("seed", range(INSTANCES_PER_RUN))
    def test_cc_and_pointer_paths_report_identical_statistics(self, seed):
        indb = load_instance(instance_spec(seed), backend="memory")
        index = random_index(indb, seed)
        probabilities = indb.probabilities()
        skip = SkipAnalysis(frozenset(index.components), 0, 0, 0.0)
        query_rng = random.Random(10_000 + seed)
        for _ in range(QUERIES_PER_INSTANCE):
            query = parse_query(random_query(query_rng))
            result = evaluate_ucq(query, indb.database, indb)
            for lineage in result.lineages().values():
                compiled = build_obdd(lineage, index.order.extend(sorted(lineage.variables())))
                for analysis in (None, skip):
                    counters = []
                    for algorithm in (cc_mv_intersect, mv_intersect):
                        statistics = IntersectStatistics()
                        algorithm(index, lineage, probabilities, statistics, skip=analysis)
                        counters.append(statistics)
                    assert counters[0] == counters[1], lineage
                    assert counters[0].query_obdd_nodes == compiled.manager.size(compiled.root)
