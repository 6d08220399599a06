"""Join evaluation tests: exact vs brute force, aggregates, conservativeness."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, QueryError
from repro.query import evaluate as evaluate_module
from repro.query.evaluate import (
    JoinResult,
    Row,
    _expand_exact,
    _reference_expand_exact,
    _reference_semijoin_two_way,
    conservative_semijoin,
    evaluate_join,
)
from repro.query.parser import parse_query


def make_rows(values, attr="temp", extra=None):
    rows = []
    for index, value in enumerate(values, start=1):
        data = {attr: float(value)}
        if extra:
            data.update({k: v[index - 1] for k, v in extra.items()})
        rows.append(Row(index, data))
    return rows


class TestExactJoin:
    def test_simple_theta_join_matches_brute_force(self):
        query = parse_query(
            "SELECT A.temp, B.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE"
        )
        rows = make_rows([1.0, 3.0, 6.0, 10.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        brute = [
            (a.node_id, b.node_id)
            for a, b in itertools.product(rows, rows)
            if a.values["temp"] - b.values["temp"] > 2
        ]
        assert sorted(result.combinations) == sorted(brute)
        assert result.row_count == len(brute)

    def test_select_values_computed(self):
        query = parse_query(
            "SELECT A.temp - B.temp AS diff FROM s A, s B WHERE A.temp - B.temp > 2 ONCE"
        )
        rows = make_rows([1.0, 5.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.rows == [{"diff": 4.0}]

    def test_empty_relation_empty_result(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp > B.temp ONCE")
        result = evaluate_join(query, {"A": [], "B": make_rows([1.0])})
        assert result.match_count == 0 and result.rows == []
        assert result.all_contributing_nodes() == set()

    def test_contributing_nodes_per_alias(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE")
        rows = make_rows([0.0, 5.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.contributing_nodes("A") == {2}
        assert result.contributing_nodes("B") == {1}
        assert result.all_contributing_nodes() == {1, 2}
        with pytest.raises(QueryError):
            result.contributing_nodes("Z")

    def test_aggregate_min_distance(self):
        query = parse_query(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM s A, s B "
            "WHERE A.temp - B.temp > 1 ONCE"
        )
        rows = [
            Row(1, {"temp": 10.0, "x": 0.0, "y": 0.0}),
            Row(2, {"temp": 5.0, "x": 3.0, "y": 4.0}),
            Row(3, {"temp": 5.0, "x": 6.0, "y": 8.0}),
        ]
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.row_count == 1
        assert list(result.rows[0].values()) == [pytest.approx(5.0)]

    def test_aggregate_over_empty_result_is_empty(self):
        query = parse_query("SELECT MIN(A.temp) FROM s A, s B WHERE A.temp - B.temp > 99 ONCE")
        rows = make_rows([1.0, 2.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.rows == []

    def test_count_star_over_empty_result_is_zero(self):
        query = parse_query("SELECT COUNT(*) FROM s A, s B WHERE A.temp - B.temp > 99 ONCE")
        rows = make_rows([1.0, 2.0])
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.rows == [{"COUNT(*)": 0.0}]

    def test_three_way_join(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B, s C "
            "WHERE A.temp - B.temp > 1 AND B.temp - C.temp > 1 ONCE"
        )
        rows = make_rows([1.0, 3.0, 5.0])
        result = evaluate_join(query, {"A": rows, "B": rows, "C": rows})
        assert sorted(result.combinations) == [(3, 2, 1)]

    def test_signature_is_order_independent(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp != B.temp ONCE")
        rows = make_rows([1.0, 2.0])
        a = evaluate_join(query, {"A": rows, "B": rows})
        b = evaluate_join(query, {"A": list(reversed(rows)), "B": rows})
        assert a.signature() == b.signature()

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=0, max_size=8),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_matches_brute_force_random(self, temps, threshold):
        query = parse_query(
            f"SELECT A.temp FROM s A, s B WHERE |A.temp - B.temp| < {threshold} ONCE"
        )
        rows = make_rows(temps)
        result = evaluate_join(query, {"A": rows, "B": rows})
        brute = sorted(
            (a.node_id, b.node_id)
            for a, b in itertools.product(rows, rows)
            if abs(a.values["temp"] - b.values["temp"]) < threshold
        )
        assert sorted(result.combinations) == brute


class TestConservativeSemijoin:
    @staticmethod
    def cells_for(*value_lists, width=0.5):
        """One temp cell of ``width`` around each value, the lists' cells one
        after another: the shared bounds and each list's cell indices."""
        values = np.array([v for values in value_lists for v in values], dtype=float)
        bounds = {"temp": (values - width / 2, values + width / 2)}
        starts = np.cumsum([0] + [len(values) for values in value_lists])
        return bounds, [np.arange(start, start + len(v)) for start, v in zip(starts, value_lists)]

    def test_survivors_cover_exact_joiners(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE")
        bounds, (rows,) = self.cells_for([0.0, 1.0, 3.5, 9.0])
        survivors = conservative_semijoin(query, bounds, {"A": rows, "B": rows})
        # Exact joiners: A index 3 (9.0) joins B 0,1,2; A index 2 (3.5) joins B 0,1.
        assert {2, 3} <= set(survivors["A"].tolist())
        assert {0, 1} <= set(survivors["B"].tolist())

    def test_definitely_disjoint_pairs_pruned(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE |A.temp - B.temp| < 1 ONCE")
        bounds, (rows_a, rows_b) = self.cells_for([0.0], [50.0])
        survivors = conservative_semijoin(query, bounds, {"A": rows_a, "B": rows_b})
        assert survivors["A"].tolist() == [] and survivors["B"].tolist() == []

    def test_empty_side_empty_everything(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp > B.temp ONCE")
        bounds, (rows,) = self.cells_for([1.0])
        survivors = conservative_semijoin(query, bounds, {"A": rows, "B": []})
        assert {alias: cells.tolist() for alias, cells in survivors.items()} == {
            "A": [],
            "B": [],
        }

    def test_single_relation_rejected(self):
        query = parse_query("SELECT temp FROM sensors ONCE")
        with pytest.raises(QueryError):
            conservative_semijoin(query, {}, {"sensors": []})

    def test_three_way_semijoin(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B, s C "
            "WHERE A.temp - B.temp > 2 AND B.temp - C.temp > 2 ONCE"
        )
        bounds, (rows,) = self.cells_for([0.0, 3.0, 6.0], width=0.1)
        survivors = conservative_semijoin(query, bounds, {"A": rows, "B": rows, "C": rows})
        assert survivors["A"].tolist() == [2]
        assert survivors["B"].tolist() == [1]
        assert survivors["C"].tolist() == [0]

    def test_three_way_needs_no_combination_budget(self):
        """180 cells per alias under a predicate that holds everywhere:
        all 180**3 (5.8M) combinations possibly join, and every cell
        survives without any of them being built."""
        query = parse_query(
            "SELECT A.temp FROM s A, s B, s C "
            "WHERE A.temp - B.temp < 100 AND B.temp - C.temp < 100 ONCE"
        )
        bounds, (rows,) = self.cells_for(np.linspace(-10.0, 10.0, 180))
        survivors = conservative_semijoin(query, bounds, {"A": rows, "B": rows, "C": rows})
        for alias in query.aliases:
            assert survivors[alias].tolist() == rows.tolist(), alias

    def test_survivors_index_the_shared_cells(self):
        """Survivors are the sorted subset of each alias's cell indices."""
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp - B.temp > 2 ONCE")
        bounds, _ = self.cells_for([9.0, 0.0, 5.0, 1.0])
        survivors = conservative_semijoin(
            query, bounds, {"A": np.array([0, 2]), "B": np.array([1, 3])}
        )
        assert survivors["A"].tolist() == [0, 2]
        assert survivors["B"].tolist() == [1, 3]

    def test_unbounded_product_keeps_the_pair(self):
        """An unbounded quotient times a factor whose bound is exactly 0:
        the product is unbounded, not NaN, so the pair survives."""
        query = parse_query(
            "SELECT A.temp FROM s A, s B "
            "WHERE (A.temp - B.temp) * (A.hum / (A.hum - B.hum)) > 3 ONCE"
        )
        bounds = {
            "temp": (np.array([20.0, 19.5]), np.array([20.5, 20.0])),
            "hum": (np.array([10.0, 10.0]), np.array([10.5, 10.5])),
        }
        survivors = conservative_semijoin(query, bounds, {"A": [0], "B": [1]})
        # A = (20.4, 10.3) and B = (19.6, 10.1) lie in the cells and join.
        exact = (20.4 - 19.6) * (10.3 / (10.3 - 10.1))
        assert exact > 3
        assert survivors["A"].tolist() == [0] and survivors["B"].tolist() == [1]

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=6),
        st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=5, allow_nan=False),
        st.floats(min_value=0.05, max_value=2),
    )
    def test_no_false_negatives_random(self, temps_a, temps_b, threshold, width):
        """Invariant 4 of DESIGN.md: conservative semijoin never prunes a
        cell that contains an actually-joining value."""
        query = parse_query(
            f"SELECT A.temp FROM s A, s B WHERE |A.temp - B.temp| < {threshold} ONCE"
        )
        rows_a, rows_b = make_rows(temps_a), make_rows(temps_b)
        exact = evaluate_join(query, {"A": rows_a, "B": rows_b})
        bounds, (cells_a, cells_b) = self.cells_for(temps_a, temps_b, width=width)
        survivors = conservative_semijoin(query, bounds, {"A": cells_a, "B": cells_b})
        for node_id in exact.contributing_nodes("A"):
            assert cells_a[node_id - 1] in survivors["A"]
        for node_id in exact.contributing_nodes("B"):
            assert cells_b[node_id - 1] in survivors["B"]


@pytest.mark.parametrize(
    "select, expected",
    [
        ("SUM(1)", 6.0),  # the match count
        ("SUM(2)", 12.0),
        ("AVG(2)", 2.0),
        ("MIN(2)", 2.0),
        ("MAX(2)", 2.0),
        ("COUNT(2)", 6.0),
    ],
)
def test_aggregate_of_a_constant_covers_every_match(select, expected):
    query = parse_query(f"SELECT {select} FROM s A, s B WHERE A.temp - B.temp > 1 ONCE")
    rows = make_rows([1.0, 2.0, 3.0, 4.0, 5.0])
    result = evaluate_join(query, {"A": rows, "B": rows})
    assert result.match_count == 6
    assert result.rows == [{select: expected}]


# ---------------------------------------------------------------------------
# Blockwise binder against its pinned reference twin
# ---------------------------------------------------------------------------

#: Few distinct values, shared by the relations and the literals, so ties
#: and pairs exactly on a comparison boundary are common.
POOL = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)
ATTRS = ("temp", "hum")
COMPARISONS = ("<", "<=", ">", ">=", "=", "!=")


def _expressions(aliases):
    columns = st.sampled_from([f"{alias}.{attr}" for alias in aliases for attr in ATTRS])
    literals = st.sampled_from(POOL).map(repr)
    leaves = st.one_of(columns, columns, literals)

    def extend(children):
        binary = st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda parts: f"({parts[0]} {parts[1]} {parts[2]})"
        )
        return st.one_of(
            binary,
            children.map(lambda e: f"|{e}|"),
            children.map(lambda e: f"-{e}"),
            st.lists(children, min_size=4, max_size=4).map(
                lambda parts: f"distance({', '.join(parts)})"
            ),
        )

    return st.recursive(leaves, extend, max_leaves=5)


@st.composite
def _conjunct(draw, aliases):
    first, second = draw(st.permutations(aliases))[:2]
    a = f"{first}.{draw(st.sampled_from(ATTRS))}"
    b = f"{second}.{draw(st.sampled_from(ATTRS))}"
    # A core over both aliases keeps the conjunct a join predicate.
    core = draw(
        st.sampled_from(
            [
                f"{a} - {b}",
                f"|{a} - {b}|",
                f"{a} + {b}",
                f"{a} * {b}",
                f"{a} / {b}",
                f"distance({first}.temp, {first}.hum, {second}.temp, {second}.hum)",
            ]
        )
    )
    expressions = _expressions(aliases)
    bound = draw(st.one_of(st.sampled_from(POOL).map(repr), expressions))
    predicate = f"{core} {draw(st.sampled_from(COMPARISONS))} {bound}"
    other = f"{draw(expressions)} {draw(st.sampled_from(COMPARISONS))} {draw(expressions)}"
    shape = draw(st.sampled_from(["plain", "plain", "or", "and", "not"]))
    if shape == "or":
        return f"({predicate} OR {other})"
    if shape == "and":
        return f"({predicate} AND {other})"
    if shape == "not":
        return f"NOT ({predicate})"
    return predicate


@st.composite
def join_cases(draw):
    """A random 2- or 3-way query plus its relations, in the parser's dialect.

    Relations hold up to six rows with values from :data:`POOL`, and one in
    six is empty.  Node ids are arbitrary, possibly repeated, integers.
    """
    aliases = ["A", "B", "C"][: draw(st.integers(2, 3))]
    conjuncts = draw(st.lists(_conjunct(aliases), min_size=1, max_size=3))
    if draw(st.booleans()):
        funcs = st.lists(
            st.sampled_from(["SUM", "AVG", "MIN", "MAX", "COUNT"]),
            min_size=1,
            max_size=2,
            unique=True,
        )
        select = ", ".join(f"{func}({draw(_expressions(aliases))})" for func in draw(funcs))
    else:
        select = ", ".join(
            f"{draw(_expressions(aliases))} AS out{i}" for i in range(draw(st.integers(1, 2)))
        )
    relations = ", ".join(f"s {alias}" for alias in aliases)
    query = parse_query(f"SELECT {select} FROM {relations} WHERE {' AND '.join(conjuncts)} ONCE")
    values = st.sampled_from(POOL)
    node_ids = st.integers(-(2**40), 2**40)
    tuples = {
        alias: [
            Row(draw(node_ids), {attr: draw(values) for attr in ATTRS})
            for _ in range(draw(st.sampled_from([2, 3, 4, 5, 6, 0])))
        ]
        for alias in aliases
    }
    return query, tuples


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _outcome(call):
    try:
        return call()
    except EvaluationError:
        return EvaluationError


@pytest.mark.parametrize("block_elements", [1, 7, evaluate_module._BLOCK_ELEMENTS])
@settings(deadline=None, max_examples=100)
@given(case=join_cases())
def test_blockwise_binder_equals_reference(block_elements, case):
    """One-row blocks, multi-block steps and the default block size all give
    the reference's index array, and ``evaluate_join`` on top of either
    gives bitwise-equal combinations, SELECT columns and aggregates."""
    query, tuples = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_BLOCK_ELEMENTS", block_elements)
        got_combos = _outcome(lambda: _expand_exact(query, query.aliases, tuples))
        got = _outcome(lambda: evaluate_join(query, tuples))
        patch.setattr(evaluate_module, "_expand_exact", _reference_expand_exact)
        want = _outcome(lambda: evaluate_join(query, tuples))
    want_combos = _outcome(lambda: _reference_expand_exact(query, query.aliases, tuples))
    if want_combos is EvaluationError or got_combos is EvaluationError:
        assert got_combos is want_combos
    else:
        assert _same_bits(got_combos, want_combos)
    if want is EvaluationError or got is EvaluationError:
        assert got is want
        return
    assert got.combinations == want.combinations
    assert _same_bits(got._node_combos, want._node_combos)
    assert list(got._row_columns) == list(want._row_columns)
    for label, column in want._row_columns.items():
        assert _same_bits(got._row_columns[label], column), label
    node_combos = got._node_combos
    for position, alias in enumerate(query.aliases):
        expected = set(np.unique(node_combos[:, position]).tolist())
        assert got.contributing_nodes(alias) == expected
    assert got.all_contributing_nodes() == set(np.unique(node_combos).tolist())


#: Two-way join predicates over temp, x and y: paper-600's 3/5-ratio one,
#: both sides of ``distance``, every comparison, NOT, OR and arithmetic.
SEMIJOIN_PREDICATES = (
    "A.temp - B.temp > 20 AND distance(A.x, A.y, B.x, B.y) > 100",
    "A.temp - B.temp > 2 AND distance(A.x, A.y, B.x, B.y) < 80",
    "|A.temp - B.temp| <= 1.5",
    "NOT (A.temp - B.temp <= 3) AND (|A.x - B.x| < 20 OR NOT (distance(A.x, A.y, B.x, B.y) <= 80))",
    "A.temp = B.temp OR A.x != B.x",
    "-(A.x) + B.y >= A.temp * B.temp / (B.y - A.y)",
)

#: Three-way join predicates: generality's chain, conjuncts that fire at
#: the second step, at the third or at both, one over all three aliases
#: (nothing fires at the second step), and one that leaves C unconstrained.
THREE_WAY_PREDICATES = (
    "A.temp - B.temp > 2 AND B.temp - C.temp > 2",
    "A.temp - B.temp > 20 AND distance(A.x, A.y, C.x, C.y) > 100",
    "|A.temp - B.temp| <= 1.5 AND |B.x - C.x| < 20 AND A.y + B.y >= C.y",
    "NOT (A.temp - B.temp <= 3) AND (C.x - A.x > 10 OR distance(B.x, B.y, C.x, C.y) <= 80)",
    "A.temp = B.temp OR A.x != C.x",
    "A.temp - B.temp > 2",
    "-(A.x) + B.y >= C.temp * A.temp / (B.y - C.y)",
)


@st.composite
def semijoin_cases(draw, aliases=("A", "B"), max_rows=300):
    """A predicate over ``aliases``, shared cells over temp, x and y, and
    0-``max_rows`` rows per alias into them.  Rows are drawn with
    replacement from at most 40 cells, so they repeat; cell bounds sit on a
    0.1 grid, so they tie, and some are widened to the quantizer's boundary
    sentinel."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = draw(st.integers(1, 40))
    bounds = {}
    for attr, scale in (("temp", 10.0), ("x", 100.0), ("y", 100.0)):
        lo = np.round(rng.uniform(-scale, scale, cells), 1)
        hi = lo + rng.choice([0.0, 0.5, 1.0], cells)
        lo[rng.random(cells) < 0.1] = -1e30
        hi[rng.random(cells) < 0.1] = 1e30
        bounds[attr] = (lo, hi)
    rows = {
        alias: rng.integers(0, cells, draw(st.integers(0, max_rows))).astype(np.intp)
        for alias in aliases
    }
    predicates = SEMIJOIN_PREDICATES if len(aliases) == 2 else THREE_WAY_PREDICATES
    return draw(st.sampled_from(predicates)), bounds, rows


@pytest.mark.parametrize("block_elements", [1, 7, 1000])
@settings(deadline=None, max_examples=60)
@given(case=semijoin_cases())
def test_blockwise_semijoin_equals_reference(block_elements, case):
    """One-row blocks, ragged last blocks and multi-row blocks all keep the
    unblocked reference's survivors, array for array."""
    where, bounds, rows = case
    query = parse_query(f"SELECT A.temp FROM s A, s B WHERE {where} ONCE")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_SEMIJOIN_BLOCK_ELEMENTS", block_elements)
        got = conservative_semijoin(query, bounds, rows)
    want = _reference_semijoin_two_way(query, bounds, rows)
    for alias in query.aliases:
        assert _same_bits(got[alias], want[alias]), alias


def _brute_force_semijoin(query, bounds, rows):
    """Every cell combination at once: alias k's cells lie along axis k of
    one mask, and a row survives iff its slice of the mask has a hit."""
    aliases = query.aliases
    env = {}
    for position, alias in enumerate(aliases):
        shape = [1] * len(aliases)
        shape[position] = -1
        for attr, (lo, hi) in bounds.items():
            env[(alias, attr)] = (lo[rows[alias]].reshape(shape), hi[rows[alias]].reshape(shape))
    possible = np.ones([len(rows[alias]) for alias in aliases], dtype=bool)
    for conjunct in query.join_predicates:
        possible &= conjunct.possible(env)
    axes = range(len(aliases))
    return {
        alias: rows[alias][possible.any(axis=tuple(a for a in axes if a != position))]
        for position, alias in enumerate(aliases)
    }


@pytest.mark.parametrize("block_elements", [1, 7, 1000])
@settings(deadline=None, max_examples=40)
@given(case=semijoin_cases(("A", "B", "C"), max_rows=25))
def test_three_way_semijoin_equals_brute_force(block_elements, case):
    """Three aliases in one-row, ragged and multi-row blocks keep exactly
    the rows that some cell combination possibly joins, repeats included."""
    where, bounds, rows = case
    query = parse_query(f"SELECT A.temp FROM s A, s B, s C WHERE {where} ONCE")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_SEMIJOIN_BLOCK_ELEMENTS", block_elements)
        got = conservative_semijoin(query, bounds, rows)
    want = _brute_force_semijoin(query, bounds, rows)
    for alias in query.aliases:
        assert _same_bits(got[alias], want[alias]), alias


class TestBinderEdges:
    def test_zero_denominator_raises_on_both_paths(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp / B.temp > 1 ONCE")
        rows = make_rows([1.0, 0.0, 2.0])
        for expand in (_expand_exact, _reference_expand_exact):
            with pytest.raises(EvaluationError, match="division by zero"):
                expand(query, query.aliases, {"A": rows, "B": rows})

    def test_constant_zero_denominator_raises_after_an_empty_step(self):
        query = parse_query(
            "SELECT A.temp FROM s A, s B, s C "
            "WHERE A.temp - B.temp > 99 AND C.temp / 0 > A.temp ONCE"
        )
        rows = make_rows([1.0, 2.0])
        for expand in (_expand_exact, _reference_expand_exact):
            with pytest.raises(EvaluationError, match="division by zero"):
                expand(query, query.aliases, {"A": rows, "B": rows, "C": rows})

    def test_rows_come_out_in_nested_loop_order(self, monkeypatch):
        monkeypatch.setattr(evaluate_module, "_BLOCK_ELEMENTS", 5)
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp >= B.temp ONCE")
        rows = make_rows([3.0, 1.0, 2.0])
        combos = _expand_exact(query, query.aliases, {"A": rows, "B": rows})
        assert combos.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1], [2, 1], [2, 2]]

    def test_contributing_nodes_ignore_node_id_magnitude(self):
        query = parse_query("SELECT A.temp FROM s A, s B WHERE A.temp > B.temp ONCE")
        rows = [Row(-(2**62), {"temp": 1.0}), Row(2**62, {"temp": 2.0}), Row(7, {"temp": 0.0})]
        result = evaluate_join(query, {"A": rows, "B": rows})
        assert result.contributing_nodes("A") == {-(2**62), 2**62}
        assert result.contributing_nodes("B") == {-(2**62), 7}
        assert result.all_contributing_nodes() == {-(2**62), 2**62, 7}

    def test_from_lists_keeps_combinations_and_contributors(self):
        result = JoinResult.from_lists(("A", "B"), [{"x": 1.0}, {"x": 2.0}], [(5, 7), (5, 9)])
        assert result.match_count == 2
        assert result.combinations == [(5, 7), (5, 9)]
        assert result.contributing_nodes("A") == {5}
        assert result.all_contributing_nodes() == {5, 7, 9}
        empty = JoinResult.from_lists(("A", "B"), [], [])
        assert empty.match_count == 0
        assert empty.combinations == []
        assert empty.all_contributing_nodes() == set()


def test_evaluate_join_memory_ceiling():
    """tracemalloc regression gate: a large join never builds the cross product.

    A 3000-row self-join at ``A.temp - B.temp > 10`` has 337,351 matches out
    of 9M pairs.  Binding in blocks peaked at ~41 MiB; materialising the
    cross product first peaked at ~352 MiB, so the ceiling catches a return
    to it with room to spare.
    """
    import tracemalloc

    temps = np.random.default_rng(0).normal(15.0, 4.0, 3000)
    rows = [Row(index, {"temp": float(t)}) for index, t in enumerate(temps, start=1)]
    query = parse_query("SELECT A.temp, B.temp FROM s A, s B WHERE A.temp - B.temp > 10 ONCE")
    tracemalloc.start()
    try:
        result = evaluate_join(query, {"A": rows, "B": rows})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.match_count == 337_351
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB (ceiling 100 MiB)"


def test_conservative_semijoin_memory_ceiling():
    """tracemalloc regression gate: a three-alias filter holds only the
    partial combinations of its first two aliases.

    200 temp cells on generality's chain at ``> 5``: 14,552 cell pairs
    pass the first conjunct, and 2.9M triples would follow from them.
    Reducing the last step in blocks peaked at ~1 MiB; building every
    triple first peaked at ~183 MiB.
    """
    import tracemalloc

    values = np.random.default_rng(0).uniform(0.0, 30.0, 200)
    bounds = {"temp": (values - 0.25, values + 0.25)}
    rows = np.arange(200)
    query = parse_query(
        "SELECT A.temp FROM s A, s B, s C "
        "WHERE A.temp - B.temp > 5 AND B.temp - C.temp > 5 ONCE"
    )
    tracemalloc.start()
    try:
        survivors = conservative_semijoin(query, bounds, {"A": rows, "B": rows, "C": rows})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(survivors[alias]) for alias in query.aliases] == [144, 125, 127]
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.0f} MiB (ceiling 16 MiB)"
