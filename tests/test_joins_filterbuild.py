"""Join-filter construction tests."""

import itertools
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import zcurve
from repro.data.sensors import standard_catalog
from repro.joins.base import TupleFormat, node_tuple
from repro.joins.filterbuild import build_join_filter
from repro.query.evaluate import Row, evaluate_join
from repro.query.expressions import (
    Abs,
    Add,
    And,
    Column,
    Compare,
    Distance,
    Div,
    Literal,
    Mul,
    Neg,
    Not,
    Or,
    Sub,
)
from repro.query.intervals import Interval
from repro.query.parser import parse_query
from repro.query.query import JoinQuery


@pytest.fixture()
def setup(small_world, tail_query):
    query = tail_query(1.5)
    fmt = TupleFormat(query, small_world)
    points = set()
    rows = []
    for node_id in small_world.network.sensor_node_ids:
        record, flags = node_tuple(fmt, node_id)
        if record is None:
            continue
        join_values = {k: record.values[k] for k in fmt.join_attributes}
        points.add((flags, fmt.quantizer.encode(join_values)))
        rows.append(Row(node_id, dict(record.values)))
    return query, fmt, frozenset(points), rows


def test_filter_is_subset_of_points(setup):
    query, fmt, points, rows = setup
    join_filter = build_join_filter(fmt, points)
    zs = {z for _, z in points}
    assert all(z in zs for _, z in join_filter)


def test_filter_has_no_false_negatives(setup):
    """Every node that actually joins must find its point in the filter
    with the right role flag (the exactness guarantee's key lemma)."""
    query, fmt, points, rows = setup
    join_filter = build_join_filter(fmt, points)
    filter_flags = {}
    for flags, z in join_filter:
        filter_flags[z] = filter_flags.get(z, 0) | flags
    exact = evaluate_join(query, {"A": rows, "B": rows})
    rows_by_id = {row.node_id: row for row in rows}
    for alias in ("A", "B"):
        bit = fmt.alias_bit(alias)
        for node_id in exact.contributing_nodes(alias):
            row = rows_by_id[node_id]
            z = fmt.quantizer.encode({k: row.values[k] for k in fmt.join_attributes})
            assert filter_flags.get(z, 0) & bit, (alias, node_id)


def test_roles_survive_independently():
    """In Q1-style conditions a hot node joins as A but not as B."""
    from repro.data.sensors import standard_catalog
    from repro.data.relations import SensorWorld

    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B WHERE A.temp - B.temp > 5 ONCE"
    )

    class FakeWorld:
        pass

    # Minimal synthetic setup: three temperature cells far apart.
    # Use the real TupleFormat against a tiny fake world via standard catalog.
    import types

    world = types.SimpleNamespace(catalog=standard_catalog(100.0), network=None)
    fmt = TupleFormat.__new__(TupleFormat)
    fmt.query = query
    fmt.world = world
    fmt.bytes_per_attribute = 2
    fmt.aliases = ["A", "B"]
    fmt.join_attributes = ["temp"]
    fmt.full_attributes = ["hum", "temp"]
    from repro.codec.quantize import Quantizer

    fmt.quantizer = Quantizer.for_attributes(world.catalog, ["temp"])
    from repro.codec.quadtree import QuadtreeCodec

    fmt.codec = QuadtreeCodec.for_quantizer(fmt.quantizer, 2)

    cold = (0b11, fmt.quantizer.encode({"temp": 10.0}))
    hot = (0b11, fmt.quantizer.encode({"temp": 25.0}))
    join_filter = build_join_filter(fmt, [cold, hot])
    by_z = {z: flags for flags, z in join_filter}
    # hot joins only as A (hot - cold > 5); cold joins only as B.
    assert by_z[hot[1]] == 0b10
    assert by_z[cold[1]] == 0b01


def test_empty_points_empty_filter(setup):
    _, fmt, _, _ = setup
    assert build_join_filter(fmt, []) == frozenset()


def test_unselective_condition_keeps_everything(small_world):
    query = parse_query(
        "SELECT A.hum, B.hum FROM sensors A, sensors B WHERE A.temp - B.temp > -9999 ONCE"
    )
    fmt = TupleFormat(query, small_world)
    points = set()
    for node_id in small_world.network.sensor_node_ids:
        record, flags = node_tuple(fmt, node_id)
        join_values = {k: record.values[k] for k in fmt.join_attributes}
        points.add((flags, fmt.quantizer.encode(join_values)))
    join_filter = build_join_filter(fmt, frozenset(points))
    assert {z for _, z in join_filter} == {z for _, z in points}


def test_share_group_member_filter_on_the_group_format(setup, small_world, tail_query):
    """A member of a broker share group gets the filter its own format
    would give, built on the group's format."""
    _, fmt, points, _ = setup
    member = tail_query(4.0)
    own = build_join_filter(TupleFormat(member, small_world), points)
    assert build_join_filter(fmt, points, member) == own
    assert own != build_join_filter(fmt, points)


# -- hypothesis: the array filter against a brute force over scalar intervals --

CATALOG = standard_catalog(100.0)
ATTRIBUTES = ("temp", "x", "y")
LITERALS = (-5.0, 0.0, 0.5, 2.0, 10.0, 50.0)
COMPARISONS = Compare.OPS


@st.composite
def numeric(draw, aliases, attrs, depth):
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 3)) == 0:
            return Literal(draw(st.sampled_from(LITERALS)))
        return Column(draw(st.sampled_from(aliases)), draw(st.sampled_from(attrs)))
    op = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "abs", "distance"]))
    if op == "neg":
        return Neg(draw(numeric(aliases, attrs, depth - 1)))
    if op == "abs":
        return Abs(draw(numeric(aliases, attrs, depth - 1)))
    if op == "distance":
        return Distance(*(draw(numeric(aliases, attrs, 0)) for _ in range(4)))
    left = draw(numeric(aliases, attrs, depth - 1))
    right = draw(numeric(aliases, attrs, depth - 1))
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[op](left, right)


@st.composite
def predicate(draw, aliases, attrs, depth=2):
    kind = draw(st.sampled_from(["compare", "not", "and", "or"] if depth else ["compare"]))
    if kind == "compare":
        return Compare(
            draw(st.sampled_from(COMPARISONS)),
            draw(numeric(aliases, attrs, 2)),
            draw(numeric(aliases, attrs, 2)),
        )
    if kind == "not":
        return Not(draw(predicate(aliases, attrs, depth - 1)))
    parts = [draw(predicate(aliases, attrs, depth - 1)) for _ in range(2)]
    return And(*parts) if kind == "and" else Or(*parts)


def brute_force_filter(fmt, points, query):
    """The filter by definition (§IV-A): a point keeps an alias's flag when
    some combination of points playing the other aliases possibly satisfies
    every join predicate, each cell read through ``bounds_of``."""
    flags_by_z = {}
    for flags, z in points:
        flags_by_z[z] = flags_by_z.get(z, 0) | flags
    intervals = {}
    for z in flags_by_z:
        cells = fmt.quantizer.decode_cells(z)
        intervals[z] = {
            dim.name: Interval(*map(float, dim.bounds_of(cells[dim.name])))
            for dim in fmt.quantizer.dimensions
        }
    players = {
        alias: [z for z, flags in flags_by_z.items() if flags & fmt.alias_bit(alias)]
        for alias in fmt.aliases
    }
    kept = set()
    for combo in itertools.product(*(players[alias] for alias in fmt.aliases)):
        env = {
            (alias, name): interval
            for alias, z in zip(fmt.aliases, combo)
            for name, interval in intervals[z].items()
        }
        if all(conjunct.tribool(env).possible for conjunct in query.join_predicates):
            kept.update(zip(fmt.aliases, combo))
    survivors = {}
    for alias, z in kept:
        survivors[z] = survivors.get(z, 0) | fmt.alias_bit(alias)
    return frozenset((flags, z) for z, flags in survivors.items())


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_filter_equals_brute_force(data):
    aliases = data.draw(st.sampled_from([("A", "B"), ("A", "B", "C")]), label="aliases")
    attrs = data.draw(
        st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3, unique=True),
        label="attributes",
    )
    # The first conjuncts link consecutive aliases, so the query is a join.
    links = [
        Compare(
            data.draw(st.sampled_from(("<", "<=", ">", ">=", "!="))),
            Sub(Column(left, attrs[0]), Column(right, attrs[0])),
            Literal(data.draw(st.sampled_from(LITERALS))),
        )
        for left, right in zip(aliases, aliases[1:])
    ]
    where = And(*links, data.draw(predicate(list(aliases), attrs), label="predicate"))
    query = JoinQuery(
        parse_query("SELECT A.temp FROM sensors A, sensors B ONCE").select,
        [("sensors", alias) for alias in aliases],
        where,
    )
    fmt = TupleFormat(query, types.SimpleNamespace(catalog=CATALOG))
    dims = fmt.quantizer.dimensions

    def cell(dim):
        # Boundary cells, and neighbouring interior cells whose bounds tie.
        middle = dim.size // 2
        clustered = [0, 1, 2, middle, middle + 1, dim.size - 2, dim.size - 1]
        return st.one_of(st.sampled_from(clustered), st.integers(0, dim.size - 1))

    point = st.tuples(
        st.integers(1, (1 << len(aliases)) - 1),
        st.tuples(*(cell(dim) for dim in dims)).map(
            lambda cells: zcurve.interleave(cells, fmt.quantizer.bits_per_dim)
        ),
    )
    points = data.draw(st.lists(point, min_size=3, max_size=10), label="points")
    assert build_join_filter(fmt, points) == brute_force_filter(fmt, points, query)
