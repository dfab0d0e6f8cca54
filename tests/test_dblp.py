"""Tests for the synthetic DBLP workload generator and the Fig. 1 MVDB."""

import math

import pytest

from repro.core.engine import MVQueryEngine
from repro.dblp import (
    DblpConfig,
    advisor_of_student,
    affiliation_of_author,
    build_mvdb,
    build_probabilistic_tables,
    build_sweep_mvdb,
    generate_dblp,
    madden_query,
    restrict_to_aid,
    students_of_advisor,
)

SMALL = DblpConfig(group_count=4, seed=7)


@pytest.fixture(scope="module")
def small_data():
    return generate_dblp(SMALL)


@pytest.fixture(scope="module")
def small_workload(small_data):
    return build_mvdb(SMALL, data=small_data)


class TestGenerator:
    def test_schema_matches_figure1(self, small_data):
        names = set(small_data.database.relation_names())
        assert {"Author", "Wrote", "Pub", "HomePage", "FirstPub", "DBLPAffiliation"} <= names

    def test_deterministic_given_seed(self):
        first = generate_dblp(SMALL)
        second = generate_dblp(SMALL)
        assert first.database.size_report() == second.database.size_report()
        assert sorted(first.database.rows("Wrote")) == sorted(second.database.rows("Wrote"))

    def test_group_structure(self, small_data):
        assert len(small_data.advisors) == SMALL.group_count
        assert all(group < SMALL.group_count for __, group in small_data.students)

    def test_first_pub_is_minimum_year(self, small_data):
        pub_year = {pid: year for pid, __, year in small_data.database.rows("Pub")}
        years_of = {}
        for aid, pid in small_data.database.rows("Wrote"):
            years_of.setdefault(aid, []).append(pub_year[pid])
        for aid, year in small_data.database.rows("FirstPub"):
            assert year == min(years_of[aid])

    def test_advisor_first_pub_precedes_students(self, small_data):
        first_pub = dict(small_data.database.rows("FirstPub"))
        for student_aid, group in small_data.students:
            advisor_aid = small_data.advisors[group]
            assert first_pub[advisor_aid] <= first_pub[student_aid]

    def test_restrict_to_aid(self, small_data):
        max_aid = small_data.advisors[1]
        restricted = restrict_to_aid(small_data, max_aid)
        assert all(aid <= max_aid for aid, __ in restricted.database.rows("Author"))
        assert all(aid <= max_aid for aid, __ in restricted.database.rows("Wrote"))
        assert len(restricted.advisors) <= 2

    def test_scaling_is_monotone(self):
        small = generate_dblp(DblpConfig(group_count=2, seed=1))
        large = generate_dblp(DblpConfig(group_count=6, seed=1))
        assert large.database.total_rows() > small.database.total_rows()


class TestProbabilisticTables:
    def test_student_weight_formula(self, small_data):
        tables = build_probabilistic_tables(small_data)
        first_pub = dict(small_data.database.rows("FirstPub"))
        for (aid, year), weight in list(tables.student.items())[:50]:
            expected = math.exp(1.0 - 0.15 * (year - first_pub[aid]))
            assert weight == pytest.approx(expected)
            assert first_pub[aid] - 1 <= year <= first_pub[aid] + 5

    def test_advisor_weight_formula(self, small_data):
        tables = build_probabilistic_tables(small_data)
        assert tables.advisor, "expected at least one advisor candidate"
        for (aid1, aid2), weight in tables.advisor.items():
            count = tables.student_copub_count[(aid1, aid2)]
            assert count > SMALL.advisor_min_papers
            assert weight == pytest.approx(math.exp(0.25 * count))

    def test_true_advisors_are_candidates(self, small_data):
        tables = build_probabilistic_tables(small_data)
        pairs = set(tables.advisor)
        hits = sum(
            (student_aid, small_data.advisors[group]) in pairs
            for student_aid, group in small_data.students
        )
        assert hits >= len(small_data.students) // 2

    def test_affiliation_weights(self, small_data):
        tables = build_probabilistic_tables(small_data)
        for (aid, inst), weight in tables.affiliation.items():
            assert weight > 1.0
            assert inst.endswith(".edu")


class TestWorkloadMvdb:
    def test_views_present(self, small_workload):
        assert [view.name for view in small_workload.mvdb.views] == ["V1", "V2", "V3"]

    def test_size_report_covers_probabilistic_tables(self, small_workload):
        report = small_workload.size_report()
        for name in ("Student", "Advisor", "V1", "V2"):
            assert name in report

    def test_v1_weights_use_copub_counts(self, small_workload):
        view = small_workload.mvdb.views[0]
        tuples = small_workload.mvdb.view_tuples(view)
        assert tuples
        counts = small_workload.tables.student_copub_count
        for row, weight, __ in tuples[:20]:
            assert weight == pytest.approx(counts.get(row, 0) / 2.0)

    def test_v2_is_denial(self, small_workload):
        assert small_workload.mvdb.views[1].is_denial

    def test_alchemy_configuration_excludes_v3(self, small_data):
        workload = build_mvdb(SMALL, data=small_data, include_views=("V1", "V2"),
                              include_affiliation=False)
        assert [view.name for view in workload.mvdb.views] == ["V1", "V2"]
        assert "Affiliation" not in workload.mvdb.database.relation_names()

    def test_sweep_mvdb_smaller_than_full(self, small_data):
        full = build_mvdb(SMALL, data=small_data, include_views=("V1", "V2"))
        cutoff = sorted(aid for aid, __ in small_data.database.rows("Author"))[
            len(small_data.database.rows("Author")) // 2
        ]
        sweep = build_sweep_mvdb(small_data, cutoff)
        assert sweep.mvdb.possible_tuple_count() < full.mvdb.possible_tuple_count()


class TestWorkloadQueries:
    def test_students_of_advisor_query_returns_group_members(self, small_workload):
        engine = MVQueryEngine(small_workload.mvdb)
        data = small_workload.data
        advisor_aid = data.advisors[0]
        answers = engine.query(students_of_advisor("Advisor 0"))
        assert answers, "expected at least one student answer"
        group_students = {aid for aid, group in data.students if group == 0}
        assert {answer[0] for answer in answers} & group_students
        assert all(0.0 <= probability <= 1.0 for probability in answers.values())
        assert advisor_aid not in {answer[0] for answer in answers}

    def test_advisor_of_student_query(self, small_workload):
        engine = MVQueryEngine(small_workload.mvdb)
        data = small_workload.data
        answers = engine.query(advisor_of_student("Student 0-0"))
        assert answers
        assert data.advisors[0] in {answer[0] for answer in answers}

    def test_affiliation_query(self, small_workload):
        engine = MVQueryEngine(small_workload.mvdb)
        answers = engine.query(affiliation_of_author("Student 0-0"))
        # The student recently co-published with the (affiliated) advisor, so the
        # group institution must be among the probable affiliations.
        assert any(answer[0] == "inst0.edu" for answer in answers)

    def test_madden_style_query_matches_students_query(self, small_workload):
        engine = MVQueryEngine(small_workload.mvdb)
        via_madden = engine.query(madden_query("Advisor 1"))
        via_students = engine.query(students_of_advisor("Advisor 1"))
        assert set(via_madden) == set(via_students)
        for answer, probability in via_madden.items():
            assert probability == pytest.approx(via_students[answer])

    def test_methods_agree_on_workload_query(self, small_workload):
        engine = MVQueryEngine(small_workload.mvdb)
        query = students_of_advisor("Advisor 2")
        by_index = engine.query(query, method="mvindex")
        by_mv = engine.query(query, method="mvindex-mv")
        by_obdd = engine.query(query, method="obdd")
        assert set(by_index) == set(by_obdd) == set(by_mv)
        for answer in by_index:
            assert by_index[answer] == pytest.approx(by_obdd[answer], abs=1e-9)
            assert by_index[answer] == pytest.approx(by_mv[answer], abs=1e-9)

    @pytest.mark.parametrize("name", ["O'Brien", 'The "Ace" Advisor'])
    @pytest.mark.parametrize(
        "builder",
        [students_of_advisor, advisor_of_student, affiliation_of_author, madden_query],
    )
    def test_builders_quote_names_with_quotes(self, small_workload, builder, name):
        query = builder(name)
        (comparison,) = query.disjuncts[0].comparisons
        assert comparison.op == "like"
        assert comparison.right.value == f"%{name}%"
        # No author carries the name, so the query parses, runs and is empty.
        assert MVQueryEngine(small_workload.mvdb).query(query) == {}
