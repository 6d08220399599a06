"""Expression AST tests: the three evaluation modes must agree."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import EvaluationError, QueryError
from repro.query.expressions import (
    Abs,
    Add,
    Aggregate,
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
from repro.query.intervals import Interval, TriBool

A_TEMP = Column("A", "temp")
B_TEMP = Column("B", "temp")


def scalar_env(**kwargs):
    return {("A", "temp"): kwargs.get("a", 0.0), ("B", "temp"): kwargs.get("b", 0.0)}


def test_column_evaluation_and_errors():
    assert A_TEMP.evaluate(scalar_env(a=3.5)) == 3.5
    with pytest.raises(EvaluationError):
        A_TEMP.evaluate({})
    assert A_TEMP.columns() == {("A", "temp")}
    assert A_TEMP.sql() == "A.temp"


def test_literal_modes():
    lit = Literal(2.5)
    assert lit.evaluate({}) == 2.5
    assert lit.bounds({}) == Interval.point(2.5)
    lo, hi = lit.bounds_arrays({})
    assert lo == hi == np.asarray(2.5)
    assert Literal(3).sql() == "3"


def test_arithmetic_sql_rendering():
    expr = Add(Mul(A_TEMP, Literal(2)), Neg(B_TEMP))
    assert expr.sql() == "((A.temp * 2) + -(B.temp))"


def test_abs_bounds_array_cases():
    env = {("A", "temp"): (np.array([1.0, -3.0, -2.0]), np.array([2.0, -1.0, 5.0]))}
    lo, hi = Abs(A_TEMP).bounds_arrays(env)
    assert lo.tolist() == [1.0, 1.0, 0.0]
    assert hi.tolist() == [2.0, 3.0, 5.0]


def test_div_by_zero_raises_exact():
    expr = Div(Literal(1), Sub(A_TEMP, A_TEMP))
    with pytest.raises(EvaluationError):
        expr.evaluate(scalar_env(a=5.0))


def test_div_bounds_across_zero_unbounded():
    env = {("A", "temp"): (np.array([-1.0]), np.array([1.0]))}
    lo, hi = Div(Literal(1), A_TEMP).bounds_arrays(env)
    assert lo[0] == -np.inf and hi[0] == np.inf


def test_distance_evaluates_hypot():
    expr = Distance(Column("A", "x"), Column("A", "y"), Column("B", "x"), Column("B", "y"))
    env = {("A", "x"): 0.0, ("A", "y"): 0.0, ("B", "x"): 3.0, ("B", "y"): 4.0}
    assert expr.evaluate(env) == pytest.approx(5.0)
    assert expr.sql() == "distance(A.x, A.y, B.x, B.y)"


def test_distance_lower_bound_survives_overflowing_squares():
    """A gap above ~1.3e154 squares to inf.  The lower bound stays the
    nearest distance in both evaluators instead of inf, which would prune
    the corner (3e167, 0.5) to (0.5, 0.5), 3e167 < 1e200 apart."""
    cells = {
        ("A", "x"): (3e167, 3.1e167),
        ("A", "y"): (0.0, 1.0),
        ("B", "x"): (0.0, 1.0),
        ("B", "y"): (0.0, 1.0),
    }
    distance = Distance(Column("A", "x"), Column("A", "y"), Column("B", "x"), Column("B", "y"))
    near = Compare("<", distance, Literal(1e200))

    intervals = {ref: Interval(lo, hi) for ref, (lo, hi) in cells.items()}
    assert distance.bounds(intervals) == Interval(3e167, math.inf)
    assert near.tribool(intervals).possible

    env = {ref: (np.array([lo]), np.array([hi])) for ref, (lo, hi) in cells.items()}
    with np.errstate(over="ignore"):  # the upper bound overflows, soundly
        assert distance.lower_arrays(env).tolist() == [3e167]
        assert near.possible(env).tolist() == [True]


def test_compare_all_operators():
    env = scalar_env(a=1.0, b=2.0)
    assert Compare("<", A_TEMP, B_TEMP).evaluate(env)
    assert Compare("<=", A_TEMP, B_TEMP).evaluate(env)
    assert not Compare(">", A_TEMP, B_TEMP).evaluate(env)
    assert not Compare(">=", A_TEMP, B_TEMP).evaluate(env)
    assert not Compare("=", A_TEMP, B_TEMP).evaluate(env)
    assert Compare("!=", A_TEMP, B_TEMP).evaluate(env)
    with pytest.raises(QueryError):
        Compare("~", A_TEMP, B_TEMP)


def test_boolean_connectives():
    t = Compare("<", Literal(1), Literal(2))
    f = Compare(">", Literal(1), Literal(2))
    assert And(t, t).evaluate({})
    assert not And(t, f).evaluate({})
    assert Or(f, t).evaluate({})
    assert Not(f).evaluate({})
    with pytest.raises(QueryError):
        And(t)
    with pytest.raises(QueryError):
        Or(f)


def test_tribool_matches_possible():
    """Scalar interval evaluation and the vectorised mask must agree, and
    the mask of the negation is the complement of definitely-true."""
    predicate = And(
        Compare("<", Sub(A_TEMP, B_TEMP), Literal(1.0)),
        Compare(">", Add(A_TEMP, B_TEMP), Literal(0.0)),
    )
    cases = [
        (Interval(0, 0.5), Interval(0, 0.5)),
        (Interval(5, 6), Interval(0, 1)),
        (Interval(-10, 10), Interval(-10, 10)),
        (Interval.point(1), Interval.point(1)),
    ]
    for A, B in cases:
        scalar = predicate.tribool({("A", "temp"): A, ("B", "temp"): B})
        env = {
            ("A", "temp"): (np.array([A.lo]), np.array([A.hi])),
            ("B", "temp"): (np.array([B.lo]), np.array([B.hi])),
        }
        assert predicate.possible(env)[0] == scalar.possible
        assert Not(predicate).possible(env)[0] == (not scalar.definite)


def test_not_pushes_the_negation_onto_comparisons():
    predicate = Not(Compare("<", A_TEMP, Literal(0.0)))
    env = {("A", "temp"): (np.array([-1.0, 1.0, -1.0]), np.array([1.0, 2.0, -0.5]))}
    # Interval [-1,1]: maybe; [1,2]: definitely not < 0 -> NOT is TRUE;
    # [-1,-0.5]: definitely < 0 -> NOT is FALSE.
    assert predicate.possible(env).tolist() == [True, True, False]
    # NOT NOT is the comparison itself: possible unless definitely >= 0.
    assert Not(predicate).possible(env).tolist() == [True, False, True]


def test_negated_forms():
    lt = Compare("<", A_TEMP, B_TEMP)
    eq = Compare("=", A_TEMP, B_TEMP)
    assert [Compare(op, A_TEMP, B_TEMP).negated().op for op in Compare.OPS] == [
        ">=", ">", "<=", "<", "!=", "=",
    ]
    assert And(lt, eq).negated() == Or(lt.negated(), eq.negated())
    assert Or(lt, eq).negated() == And(lt.negated(), eq.negated())
    assert Not(lt).negated() is lt


@pytest.mark.parametrize(
    "zero, unbounded",
    [((0.0, 1.0), (-math.inf, math.inf)), ((0.0, 0.0), (-math.inf, math.inf)),
     ((-1.0, 0.0), (2.0, math.inf))],
)
def test_zero_times_unbounded_is_never_nan(zero, unbounded):
    """0 * +-inf counts as 0 in both evaluators, so the bounds stay sound."""
    product = Mul(A_TEMP, B_TEMP)
    scalar = product.bounds({("A", "temp"): Interval(*zero), ("B", "temp"): Interval(*unbounded)})
    env = {
        ("A", "temp"): (np.array([zero[0]]), np.array([zero[1]])),
        ("B", "temp"): (np.array([unbounded[0]]), np.array([unbounded[1]])),
    }
    lo, hi = product.bounds_arrays(env)
    assert (lo[0], hi[0]) == (scalar.lo, scalar.hi)
    assert not (math.isnan(scalar.lo) or math.isnan(scalar.hi))
    corners = [a * b for a in zero for b in unbounded if not (a == 0 and math.isinf(b))]
    assert scalar.lo == min(corners + [0.0]) and scalar.hi == max(corners + [0.0])


def test_quotient_over_an_unbounded_denominator():
    """1 / [4, inf] is [0, 0.25]; times [-inf, 3] it stays a bound, not NaN."""
    quotient = Div(A_TEMP, B_TEMP)
    env = {
        ("A", "temp"): (np.array([-np.inf]), np.array([3.0])),
        ("B", "temp"): (np.array([4.0]), np.array([np.inf])),
    }
    lo, hi = quotient.bounds_arrays(env)
    scalar = quotient.bounds(
        {("A", "temp"): Interval(-math.inf, 3.0), ("B", "temp"): Interval(4.0, math.inf)}
    )
    assert (lo[0], hi[0]) == (scalar.lo, scalar.hi) == (-math.inf, 0.75)


@pytest.mark.parametrize(
    "numerator,denominator,expected",
    [((2.2250738585e-313,) * 2, (2.2250738585e-313,) * 2, (1.0, 1.0)),
     ((-math.inf, 1e-320), (1e-320, math.inf), (-math.inf, 1.0))],
)
def test_quotient_over_a_subnormal_denominator(numerator, denominator, expected):
    """1 / 2.2e-313 overflows to inf.  The quotient bound divides the corners
    instead of multiplying by inf, so b / b stays [1, 1] in both evaluators."""
    quotient = Div(A_TEMP, B_TEMP)
    scalar = quotient.bounds(
        {("A", "temp"): Interval(*numerator), ("B", "temp"): Interval(*denominator)}
    )
    env = {
        ("A", "temp"): (np.array([numerator[0]]), np.array([numerator[1]])),
        ("B", "temp"): (np.array([denominator[0]]), np.array([denominator[1]])),
    }
    lo, hi = quotient.bounds_arrays(env)
    assert (lo[0], hi[0]) == (scalar.lo, scalar.hi) == expected


# -- hypothesis: random expression trees, all modes agree -------------------


@st.composite
def numeric_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["A", "B", "lit"]))
        if leaf == "lit":
            return Literal(draw(st.floats(min_value=-100, max_value=100, allow_nan=False)))
        return Column(leaf, "temp")
    op = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "abs", "distance"]))
    if op == "neg":
        return Neg(draw(numeric_expr(depth=depth + 1)))
    if op == "abs":
        return Abs(draw(numeric_expr(depth=depth + 1)))
    if op == "distance":
        return Distance(*(draw(numeric_expr(depth=depth + 1)) for _ in range(4)))
    left = draw(numeric_expr(depth=depth + 1))
    right = draw(numeric_expr(depth=depth + 1))
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[op](left, right)


def _subexpressions(expr):
    """``expr`` and every numeric node below it."""
    yield expr
    if isinstance(expr, (Neg, Abs)):
        children = [expr.operand]
    elif isinstance(expr, Distance):
        children = [expr.x1, expr.y1, expr.x2, expr.y2]
    elif isinstance(expr, (Add, Sub, Mul, Div)):
        children = [expr.left, expr.right]
    else:
        children = []
    for child in children:
        yield from _subexpressions(child)


@given(
    numeric_expr(),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0, max_value=5),
)
def test_modes_agree_and_bounds_contain(expr, a, b, wa, wb):
    scalar = {("A", "temp"): a, ("B", "temp"): b}
    try:
        exact = expr.evaluate(scalar)
    except EvaluationError:
        assume(False)  # an exact zero denominator
    # A near-zero denominator makes values whose squares overflow to inf.
    assume(all(abs(part.evaluate(scalar)) < 1e100 for part in _subexpressions(expr)))

    # Vectorised exact evaluation agrees with scalar evaluation.
    arrays = {("A", "temp"): np.array([a]), ("B", "temp"): np.array([b])}
    vector = np.broadcast_to(expr.values(arrays), (1,))
    assert vector[0] == pytest.approx(exact, rel=1e-9, abs=1e-9)

    # Interval bounds (scalar and vectorised) contain the exact value.
    intervals = {
        ("A", "temp"): Interval(a - wa, a + wa),
        ("B", "temp"): Interval(b - wb, b + wb),
    }
    bounds = expr.bounds(intervals)
    slack = 1e-7 + 1e-9 * max(abs(bounds.lo), abs(bounds.hi))
    assert bounds.lo - slack <= exact <= bounds.hi + slack

    env = {
        ("A", "temp"): (np.array([a - wa]), np.array([a + wa])),
        ("B", "temp"): (np.array([b - wb]), np.array([b + wb])),
    }
    lo, hi = expr.bounds_arrays(env)
    # The one-sided evaluators give the two arrays bit for bit.
    assert np.array_equal(expr.lower_arrays(env), lo)
    assert np.array_equal(expr.upper_arrays(env), hi)
    lo = np.broadcast_to(lo, (1,))
    hi = np.broadcast_to(hi, (1,))
    assert lo[0] == pytest.approx(bounds.lo, rel=1e-9, abs=1e-9)
    assert hi[0] == pytest.approx(bounds.hi, rel=1e-9, abs=1e-9)


def test_aggregate_apply():
    agg = Aggregate("MIN", A_TEMP)
    assert agg.apply([3.0, 1.0, 2.0], 3) == 1.0
    assert Aggregate("MAX", A_TEMP).apply([3.0, 1.0], 2) == 3.0
    assert Aggregate("AVG", A_TEMP).apply([1.0, 3.0], 2) == 2.0
    assert Aggregate("SUM", A_TEMP).apply([1.0, 3.0], 2) == 4.0
    assert Aggregate("COUNT", None).apply([], 7) == 7.0


def test_aggregate_validation():
    with pytest.raises(QueryError):
        Aggregate("MEDIAN", A_TEMP)
    with pytest.raises(QueryError):
        Aggregate("MIN", None)
    with pytest.raises(EvaluationError):
        Aggregate("MIN", A_TEMP).apply([], 0)
    assert Aggregate("COUNT", None).sql() == "COUNT(*)"


def test_expression_equality_and_hash():
    assert Add(A_TEMP, Literal(1)) == Add(Column("A", "temp"), Literal(1))
    assert hash(Add(A_TEMP, Literal(1))) == hash(Add(Column("A", "temp"), Literal(1)))
    assert Add(A_TEMP, Literal(1)) != Add(A_TEMP, Literal(2))
