"""JoinQuery model tests: predicate split, attribute sets, validation."""

import pytest

from repro.data.sensors import standard_catalog
from repro.errors import BindingError, QueryError
from repro.query.expressions import Column, Compare, Literal
from repro.query.parser import parse_query
from repro.query.query import JoinQuery, Once, SamplePeriod, SelectItem


def test_selection_vs_join_predicate_split():
    query = parse_query(
        "SELECT A.temp FROM s A, s B "
        "WHERE A.temp > 20 AND B.hum < 50 AND A.temp - B.temp > 1 ONCE"
    )
    assert len(query.selection_predicates("A")) == 1
    assert len(query.selection_predicates("B")) == 1
    assert len(query.join_predicates) == 1
    assert len(query.conjuncts) == 3


def test_where_clause_is_split_once(monkeypatch):
    """Construction splits the WHERE clause; the accessors hand out copies
    and never walk a predicate tree again."""
    from repro.query import expressions

    query = parse_query(
        "SELECT A.temp FROM s A, s B "
        "WHERE A.temp > 20 AND A.temp - B.temp > 1 AND distance(A.x, A.y, B.x, B.y) > 9 ONCE"
    )

    def walked(self):
        raise AssertionError("columns() walked after construction")

    for cls in vars(expressions).values():
        if isinstance(cls, type) and "columns" in vars(cls):
            monkeypatch.setattr(cls, "columns", walked)
    assert len(query.selection_predicates("A")) == 1
    assert query.selection_predicates("B") == []
    assert len(query.join_predicates) == 2
    assert query.join_attributes("A") == query.join_attributes("B") == ["temp", "x", "y"]
    query.selection_predicates("A").clear()
    query.join_predicates.clear()
    query.join_attributes("A").clear()
    assert len(query.selection_predicates("A")) == 1
    assert len(query.join_predicates) == 2
    assert query.join_attributes("A") == ["temp", "x", "y"]


def test_join_attributes_exclude_selection_only_attrs():
    query = parse_query(
        "SELECT A.light FROM s A, s B WHERE A.hum > 30 AND A.temp - B.temp > 1 ONCE"
    )
    assert query.join_attributes("A") == ["temp"]
    # hum appears only in a selection predicate: local, never shipped.
    assert query.full_tuple_attributes("A") == ["light", "temp"]


def test_full_tuple_union_select_and_join():
    query = parse_query(
        "SELECT A.hum, B.pres FROM s A, s B WHERE A.temp - B.temp > 1 ONCE"
    )
    assert query.full_tuple_attributes("A") == ["hum", "temp"]
    assert query.full_tuple_attributes("B") == ["pres", "temp"]


def test_empty_select_rejected():
    with pytest.raises(QueryError):
        JoinQuery([], [("s", "A")], None)


def test_duplicate_alias_rejected():
    item = SelectItem(Column("A", "temp"))
    with pytest.raises(QueryError, match="duplicate"):
        JoinQuery([item], [("s", "A"), ("t", "A")], None)


def test_mixed_aggregates_rejected():
    from repro.query.expressions import Aggregate

    items = [
        SelectItem(Column("A", "temp")),
        SelectItem(Aggregate("MIN", Column("A", "temp"))),
    ]
    with pytest.raises(QueryError, match="GROUP BY"):
        JoinQuery(items, [("s", "A")], None)


def test_unknown_alias_in_select_rejected():
    item = SelectItem(Column("Z", "temp"))
    with pytest.raises(BindingError):
        JoinQuery([item], [("s", "A")], None)


def test_require_join_conditions():
    single = parse_query("SELECT temp FROM sensors ONCE")
    with pytest.raises(QueryError, match="at least two"):
        single.require_join()
    cross = JoinQuery(
        [SelectItem(Column("A", "temp"))],
        [("s", "A"), ("s", "B")],
        Compare(">", Column("A", "temp"), Literal(1.0)),
    )
    with pytest.raises(QueryError, match="cross"):
        cross.require_join()


def test_relation_of():
    query = parse_query("SELECT A.temp FROM left A, right B WHERE A.temp > B.temp ONCE")
    assert query.relation_of("A") == "left"
    assert query.relation_of("B") == "right"
    assert not query.is_self_join
    with pytest.raises(BindingError):
        query.relation_of("C")


def test_validate_attributes_against_catalog():
    query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp > B.temp ONCE")
    query.validate_attributes(standard_catalog())  # fine
    bad = parse_query("SELECT A.windspeed FROM s A, s B WHERE A.temp > B.temp ONCE")
    with pytest.raises(BindingError):
        bad.validate_attributes(standard_catalog())


def test_mode_rendering():
    assert Once().sql() == "ONCE"
    assert SamplePeriod(2.5).sql() == "SAMPLE PERIOD 2.5"
    with pytest.raises(QueryError):
        SamplePeriod(0)


def test_three_way_join_attributes():
    query = parse_query(
        "SELECT A.temp FROM s A, s B, s C "
        "WHERE A.temp - B.temp > 1 AND B.hum - C.hum > 2 ONCE"
    )
    assert query.aliases == ["A", "B", "C"]
    assert query.join_attributes("B") == ["hum", "temp"]
    assert query.join_attributes("C") == ["hum"]


def test_sql_rendering_includes_all_clauses():
    query = parse_query(
        "SELECT A.temp FROM s A, s B WHERE A.temp > B.temp SAMPLE PERIOD 10"
    )
    sql = query.sql()
    assert "SELECT" in sql and "FROM s A, s B" in sql
    assert "WHERE" in sql and "SAMPLE PERIOD 10" in sql
