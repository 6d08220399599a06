"""Expression AST with three evaluation modes.

The problem statement (§III) allows "join conditions that are arbitrary
expressions over the join attributes" — theta-joins, similarity joins,
distance predicates.  Every expression node therefore supports three
evaluators, all used by the system:

``evaluate(env)``
    Exact scalar evaluation over one tuple combination; ``env`` maps
    ``(alias, attribute)`` to a float.  Used in tests and for readability.
``values(env)``
    Exact *vectorised* evaluation; ``env`` maps columns to numpy arrays (all
    of one broadcastable shape).  The base station uses this to join
    thousands of tuples in bulk.
``bounds(env)`` / ``possible(env)``
    Conservative evaluation over quantization cells.  Numeric nodes map
    interval environments to intervals (scalar: :class:`Interval`, the
    reference; vectorised: ``bounds_arrays``, ``(lo, hi)`` array pairs);
    predicate nodes return a :class:`TriBool` (scalar) or one boolean mask
    ``possible`` (vectorised), the filter-construction criterion: a cell
    pair is pruned only when the predicate cannot hold anywhere inside the
    cells.  ``NOT`` asks for the ``possible`` of its operand's
    :meth:`Predicate.negated` form, NOT pushed onto the comparisons.  Both
    modes take ``0 * ±inf`` as 0, so bounds are never NaN.

The invariant connecting the modes (checked by property tests): for any
environment of point intervals, ``bounds`` degenerates to ``evaluate``, and
for any environment of true intervals, the exact result of any contained
point env lies within ``bounds`` / is consistent with ``possible``.
"""

from __future__ import annotations

import math
import operator
from typing import List, Mapping, Sequence, Set, Tuple

import numpy as np

from ..errors import EvaluationError, QueryError
from .intervals import Interval, TriBool

__all__ = [
    "Expression",
    "Column",
    "Literal",
    "Neg",
    "Abs",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Distance",
    "Predicate",
    "Compare",
    "And",
    "Or",
    "Not",
    "Aggregate",
    "ColumnRef",
    "ScalarEnv",
    "ArrayEnv",
    "IntervalEnv",
    "BoundsEnv",
]

#: A column is identified by (relation alias, attribute name).
ColumnRef = Tuple[str, str]
ScalarEnv = Mapping[ColumnRef, float]
ArrayEnv = Mapping[ColumnRef, np.ndarray]
IntervalEnv = Mapping[ColumnRef, Interval]
#: Vectorised interval environment: column -> (lo array, hi array).
BoundsEnv = Mapping[ColumnRef, Tuple[np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# Numeric expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class of numeric expression nodes."""

    def evaluate(self, env: ScalarEnv) -> float:
        """Exact scalar value under ``env``."""
        raise NotImplementedError

    def values(self, env: ArrayEnv) -> np.ndarray:
        """Exact vectorised values under an array environment."""
        raise NotImplementedError

    def bounds(self, env: IntervalEnv) -> Interval:
        """Conservative interval under an interval environment."""
        raise NotImplementedError

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised conservative (lo, hi) arrays."""
        raise NotImplementedError

    def lower_arrays(self, env: BoundsEnv) -> np.ndarray:
        """The ``lo`` array of :meth:`bounds_arrays`, bit for bit.  Nodes
        that can compute one side alone override this and
        :meth:`upper_arrays`, so a one-sided comparison skips the other."""
        return self.bounds_arrays(env)[0]

    def upper_arrays(self, env: BoundsEnv) -> np.ndarray:
        """The ``hi`` array of :meth:`bounds_arrays`, bit for bit."""
        return self.bounds_arrays(env)[1]

    def columns(self) -> Set[ColumnRef]:
        """Every (alias, attribute) the expression references."""
        raise NotImplementedError

    def sql(self) -> str:
        """Round-trippable SQL-dialect rendering."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.sql()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expression) and self.sql() == other.sql()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.sql()))


class Column(Expression):
    """A reference like ``A.temp``."""

    def __init__(self, alias: str, name: str):
        if not alias or not name:
            raise QueryError("column alias and name must be non-empty")
        self.alias = alias
        self.name = name

    @property
    def ref(self) -> ColumnRef:
        """The (alias, attribute) pair."""
        return (self.alias, self.name)

    def evaluate(self, env: ScalarEnv) -> float:
        try:
            return env[self.ref]
        except KeyError:
            raise EvaluationError(f"no value bound for column {self.sql()}") from None

    def values(self, env: ArrayEnv) -> np.ndarray:
        try:
            return env[self.ref]
        except KeyError:
            raise EvaluationError(f"no values bound for column {self.sql()}") from None

    def bounds(self, env: IntervalEnv) -> Interval:
        try:
            return env[self.ref]
        except KeyError:
            raise EvaluationError(f"no interval bound for column {self.sql()}") from None

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        try:
            return env[self.ref]
        except KeyError:
            raise EvaluationError(f"no bounds bound for column {self.sql()}") from None

    def columns(self) -> Set[ColumnRef]:
        return {self.ref}

    def sql(self) -> str:
        return f"{self.alias}.{self.name}"


class Literal(Expression):
    """A numeric constant."""

    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, env: ScalarEnv) -> float:
        return self.value

    def values(self, env: ArrayEnv) -> np.ndarray:
        return np.asarray(self.value)

    def bounds(self, env: IntervalEnv) -> Interval:
        return Interval.point(self.value)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        value = np.asarray(self.value)
        return value, value

    def columns(self) -> Set[ColumnRef]:
        return set()

    def sql(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


class Neg(Expression):
    """Unary minus."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def evaluate(self, env: ScalarEnv) -> float:
        return -self.operand.evaluate(env)

    def values(self, env: ArrayEnv) -> np.ndarray:
        return -self.operand.values(env)

    def bounds(self, env: IntervalEnv) -> Interval:
        return -self.operand.bounds(env)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.operand.bounds_arrays(env)
        return -hi, -lo

    def lower_arrays(self, env: BoundsEnv) -> np.ndarray:
        return -self.operand.upper_arrays(env)

    def upper_arrays(self, env: BoundsEnv) -> np.ndarray:
        return -self.operand.lower_arrays(env)

    def columns(self) -> Set[ColumnRef]:
        return self.operand.columns()

    def sql(self) -> str:
        return f"-({self.operand.sql()})"


class Abs(Expression):
    """Absolute value; both ``ABS(e)`` and the paper's ``|e|`` parse here."""

    def __init__(self, operand: Expression):
        self.operand = operand

    def evaluate(self, env: ScalarEnv) -> float:
        return abs(self.operand.evaluate(env))

    def values(self, env: ArrayEnv) -> np.ndarray:
        return np.abs(self.operand.values(env))

    def bounds(self, env: IntervalEnv) -> Interval:
        return self.operand.bounds(env).abs()

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.operand.bounds_arrays(env)
        new_lo = np.where(lo >= 0, lo, np.where(hi <= 0, -hi, 0.0))
        new_hi = np.maximum(np.abs(lo), np.abs(hi))
        return new_lo, new_hi

    def columns(self) -> Set[ColumnRef]:
        return self.operand.columns()

    def sql(self) -> str:
        return f"ABS({self.operand.sql()})"


class _Binary(Expression):
    """Shared plumbing for binary arithmetic nodes."""

    symbol = "?"

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def columns(self) -> Set[ColumnRef]:
        return self.left.columns() | self.right.columns()

    def sql(self) -> str:
        return f"({self.left.sql()} {self.symbol} {self.right.sql()})"


class Add(_Binary):
    """Addition."""

    symbol = "+"

    def evaluate(self, env: ScalarEnv) -> float:
        return self.left.evaluate(env) + self.right.evaluate(env)

    def values(self, env: ArrayEnv) -> np.ndarray:
        return self.left.values(env) + self.right.values(env)

    def bounds(self, env: IntervalEnv) -> Interval:
        return self.left.bounds(env) + self.right.bounds(env)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        llo, lhi = self.left.bounds_arrays(env)
        rlo, rhi = self.right.bounds_arrays(env)
        return llo + rlo, lhi + rhi

    def lower_arrays(self, env: BoundsEnv) -> np.ndarray:
        return self.left.lower_arrays(env) + self.right.lower_arrays(env)

    def upper_arrays(self, env: BoundsEnv) -> np.ndarray:
        return self.left.upper_arrays(env) + self.right.upper_arrays(env)


class Sub(_Binary):
    """Subtraction."""

    symbol = "-"

    def evaluate(self, env: ScalarEnv) -> float:
        return self.left.evaluate(env) - self.right.evaluate(env)

    def values(self, env: ArrayEnv) -> np.ndarray:
        return self.left.values(env) - self.right.values(env)

    def bounds(self, env: IntervalEnv) -> Interval:
        return self.left.bounds(env) - self.right.bounds(env)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        llo, lhi = self.left.bounds_arrays(env)
        rlo, rhi = self.right.bounds_arrays(env)
        return llo - rhi, lhi - rlo

    def lower_arrays(self, env: BoundsEnv) -> np.ndarray:
        return self.left.lower_arrays(env) - self.right.upper_arrays(env)

    def upper_arrays(self, env: BoundsEnv) -> np.ndarray:
        return self.left.upper_arrays(env) - self.right.lower_arrays(env)


def _product_bounds(
    llo: np.ndarray, lhi: np.ndarray, rlo: np.ndarray, rhi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``[llo, lhi] * [rlo, rhi]``, with ``0 * ±inf`` taken as 0: an unbounded
    factor stands for finite values, and a NaN would prune the pair."""
    with np.errstate(invalid="ignore"):
        candidates = np.stack(
            np.broadcast_arrays(llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
        )
    candidates[np.isnan(candidates)] = 0.0
    return candidates.min(axis=0), candidates.max(axis=0)


class Mul(_Binary):
    """Multiplication."""

    symbol = "*"

    def evaluate(self, env: ScalarEnv) -> float:
        return self.left.evaluate(env) * self.right.evaluate(env)

    def values(self, env: ArrayEnv) -> np.ndarray:
        return self.left.values(env) * self.right.values(env)

    def bounds(self, env: IntervalEnv) -> Interval:
        return self.left.bounds(env) * self.right.bounds(env)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        llo, lhi = self.left.bounds_arrays(env)
        rlo, rhi = self.right.bounds_arrays(env)
        return _product_bounds(llo, lhi, rlo, rhi)


class Div(_Binary):
    """Division; interval bounds blow up to +-inf across zero denominators."""

    symbol = "/"

    def evaluate(self, env: ScalarEnv) -> float:
        denominator = self.right.evaluate(env)
        if denominator == 0:
            raise EvaluationError(f"division by zero in {self.sql()}")
        return self.left.evaluate(env) / denominator

    def values(self, env: ArrayEnv) -> np.ndarray:
        denominator = self.right.values(env)
        if np.any(denominator == 0):
            raise EvaluationError(f"division by zero in {self.sql()}")
        return self.left.values(env) / denominator

    def bounds(self, env: IntervalEnv) -> Interval:
        return self.left.bounds(env) / self.right.bounds(env)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        llo, lhi = self.left.bounds_arrays(env)
        rlo, rhi = self.right.bounds_arrays(env)
        spans_zero = (rlo <= 0) & (rhi >= 0)
        # Where the denominator avoids zero: reciprocal then multiply.
        with np.errstate(divide="ignore", over="ignore"):
            inv_lo = np.where(spans_zero, 1.0, 1.0 / np.where(spans_zero, 1.0, rhi))
            inv_hi = np.where(spans_zero, 1.0, 1.0 / np.where(spans_zero, 1.0, rlo))
        lo, hi = _product_bounds(llo, lhi, inv_lo, inv_hi)
        overflow = np.isinf(inv_lo) | np.isinf(inv_hi)
        if overflow.any():
            # A subnormal denominator's reciprocal overflows, and inf times
            # the numerator bounds no finite quotient: divide the corners.
            # ``±inf / ±inf`` is 0, the limit over an unbounded denominator.
            with np.errstate(all="ignore"):
                quotients = np.stack(
                    np.broadcast_arrays(llo / rlo, llo / rhi, lhi / rlo, lhi / rhi)
                )
            quotients[np.isnan(quotients)] = 0.0
            lo = np.where(overflow, quotients.min(axis=0), lo)
            hi = np.where(overflow, quotients.max(axis=0), hi)
        return np.where(spans_zero, -np.inf, lo), np.where(spans_zero, np.inf, hi)


class Distance(Expression):
    """``distance(x1, y1, x2, y2)`` — Euclidean distance (queries Q1/Q2)."""

    def __init__(self, x1: Expression, y1: Expression, x2: Expression, y2: Expression):
        self.x1, self.y1, self.x2, self.y2 = x1, y1, x2, y2

    def _parts(self) -> Sequence[Expression]:
        return (self.x1, self.y1, self.x2, self.y2)

    def evaluate(self, env: ScalarEnv) -> float:
        dx = self.x1.evaluate(env) - self.x2.evaluate(env)
        dy = self.y1.evaluate(env) - self.y2.evaluate(env)
        return math.hypot(dx, dy)

    def values(self, env: ArrayEnv) -> np.ndarray:
        dx = self.x1.values(env) - self.x2.values(env)
        dy = self.y1.values(env) - self.y2.values(env)
        return np.hypot(dx, dy)

    def bounds(self, env: IntervalEnv) -> Interval:
        return Interval.distance(
            self.x1.bounds(env), self.y1.bounds(env), self.x2.bounds(env), self.y2.bounds(env)
        )

    def _axis_gaps(self, env: BoundsEnv) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per axis, ``(dlo, -dhi)``: how far the first point's range lies
        above the second's (``a.lo - b.hi``) and below it (``b.lo - a.hi``).

        The nearest gap is ``max(dlo, -dhi, 0)`` and the farthest
        ``max(-dlo, dhi)``, which is ``-min(dlo, -dhi)``.
        """
        return [
            (a.lower_arrays(env) - b.upper_arrays(env), b.lower_arrays(env) - a.upper_arrays(env))
            for a, b in ((self.x1, self.x2), (self.y1, self.y2))
        ]

    @staticmethod
    def _lower(gaps: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        # fmax skips a NaN gap (inf - inf): an axis whose gaps are both NaN
        # counts as overlapping.
        (above_x, below_x), (above_y, below_y) = gaps
        near_x = np.fmax(np.fmax(above_x, below_x), 0.0)
        near_y = np.fmax(np.fmax(above_y, below_y), 0.0)
        lower = np.sqrt(near_x * near_x + near_y * near_y)
        # Squares of gaps above ~1.3e154 overflow; inf would lie above the
        # exact distance and prune a joining pair.  hypot does not overflow.
        overflow = np.isinf(lower)
        if overflow.any():
            lower = np.where(overflow, np.hypot(near_x, near_y), lower)
        return lower

    @staticmethod
    def _upper(gaps: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        (above_x, below_x), (above_y, below_y) = gaps
        far_x = np.minimum(above_x, below_x)
        far_y = np.minimum(above_y, below_y)
        return np.sqrt(far_x * far_x + far_y * far_y)

    def bounds_arrays(self, env: BoundsEnv) -> Tuple[np.ndarray, np.ndarray]:
        gaps = self._axis_gaps(env)
        return self._lower(gaps), self._upper(gaps)

    def lower_arrays(self, env: BoundsEnv) -> np.ndarray:
        return self._lower(self._axis_gaps(env))

    def upper_arrays(self, env: BoundsEnv) -> np.ndarray:
        return self._upper(self._axis_gaps(env))

    def columns(self) -> Set[ColumnRef]:
        result: Set[ColumnRef] = set()
        for part in self._parts():
            result |= part.columns()
        return result

    def sql(self) -> str:
        inner = ", ".join(part.sql() for part in self._parts())
        return f"distance({inner})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Base class of boolean nodes."""

    def evaluate(self, env: ScalarEnv) -> bool:
        """Exact truth value under a scalar environment."""
        raise NotImplementedError

    def values(self, env: ArrayEnv) -> np.ndarray:
        """Exact vectorised truth values (bool array)."""
        raise NotImplementedError

    def tribool(self, env: IntervalEnv) -> TriBool:
        """Three-valued outcome under an interval environment."""
        raise NotImplementedError

    def possible(self, env: BoundsEnv) -> np.ndarray:
        """Vectorised mask: may the predicate hold somewhere in the cells?"""
        raise NotImplementedError

    def negated(self) -> "Predicate":
        """The negation, NOT pushed down onto the comparisons."""
        raise NotImplementedError

    def columns(self) -> Set[ColumnRef]:
        """Every column referenced."""
        raise NotImplementedError

    def sql(self) -> str:
        """Round-trippable rendering."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.sql()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and self.sql() == other.sql()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.sql()))


class Compare(Predicate):
    """A comparison ``left OP right`` with OP in <, <=, >, >=, =, !=."""

    OPS = ("<", "<=", ">", ">=", "=", "!=")
    #: Each operator as a function of two floats or two arrays, and as the
    #: :class:`Interval` method giving its :class:`TriBool`.
    _FUNCTIONS = {
        "<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "=": operator.eq, "!=": operator.ne,
    }
    _INTERVAL_METHODS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "=": "eq", "!=": "ne"}
    #: The complement of each operator: ``NOT (a < b)`` is ``a >= b``.
    NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self.OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env: ScalarEnv) -> bool:
        return self._FUNCTIONS[self.op](self.left.evaluate(env), self.right.evaluate(env))

    def values(self, env: ArrayEnv) -> np.ndarray:
        return self._FUNCTIONS[self.op](self.left.values(env), self.right.values(env))

    def tribool(self, env: IntervalEnv) -> TriBool:
        lhs = self.left.bounds(env)
        return getattr(lhs, self._INTERVAL_METHODS[self.op])(self.right.bounds(env))

    def possible(self, env: BoundsEnv) -> np.ndarray:
        # An order comparison reads one side of each operand's bounds.
        op = self.op
        if op in ("<", "<="):
            return self._FUNCTIONS[op](self.left.lower_arrays(env), self.right.upper_arrays(env))
        if op in (">", ">="):
            return self._FUNCTIONS[op](self.left.upper_arrays(env), self.right.lower_arrays(env))
        llo, lhi = self.left.bounds_arrays(env)
        rlo, rhi = self.right.bounds_arrays(env)
        if op == "=":
            return (llo <= rhi) & (rlo <= lhi)
        return ~((llo == lhi) & (rlo == rhi) & (llo == rlo))

    def negated(self) -> Predicate:
        return Compare(self.NEGATED[self.op], self.left, self.right)

    def columns(self) -> Set[ColumnRef]:
        return self.left.columns() | self.right.columns()

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


class And(Predicate):
    """Conjunction of two or more predicates."""

    def __init__(self, *parts: Predicate):
        if len(parts) < 2:
            raise QueryError("And needs at least two operands")
        self.parts = tuple(parts)

    def evaluate(self, env: ScalarEnv) -> bool:
        return all(part.evaluate(env) for part in self.parts)

    def values(self, env: ArrayEnv) -> np.ndarray:
        result = self.parts[0].values(env)
        for part in self.parts[1:]:
            result = result & part.values(env)
        return result

    def tribool(self, env: IntervalEnv) -> TriBool:
        result = self.parts[0].tribool(env)
        for part in self.parts[1:]:
            result = result & part.tribool(env)
        return result

    def possible(self, env: BoundsEnv) -> np.ndarray:
        result = self.parts[0].possible(env)
        for part in self.parts[1:]:
            result = result & part.possible(env)
        return result

    def negated(self) -> Predicate:
        return Or(*(part.negated() for part in self.parts))

    def columns(self) -> Set[ColumnRef]:
        result: Set[ColumnRef] = set()
        for part in self.parts:
            result |= part.columns()
        return result

    def sql(self) -> str:
        return " AND ".join(
            f"({part.sql()})" if isinstance(part, Or) else part.sql() for part in self.parts
        )


class Or(Predicate):
    """Disjunction of two or more predicates."""

    def __init__(self, *parts: Predicate):
        if len(parts) < 2:
            raise QueryError("Or needs at least two operands")
        self.parts = tuple(parts)

    def evaluate(self, env: ScalarEnv) -> bool:
        return any(part.evaluate(env) for part in self.parts)

    def values(self, env: ArrayEnv) -> np.ndarray:
        result = self.parts[0].values(env)
        for part in self.parts[1:]:
            result = result | part.values(env)
        return result

    def tribool(self, env: IntervalEnv) -> TriBool:
        result = self.parts[0].tribool(env)
        for part in self.parts[1:]:
            result = result | part.tribool(env)
        return result

    def possible(self, env: BoundsEnv) -> np.ndarray:
        result = self.parts[0].possible(env)
        for part in self.parts[1:]:
            result = result | part.possible(env)
        return result

    def negated(self) -> Predicate:
        return And(*(part.negated() for part in self.parts))

    def columns(self) -> Set[ColumnRef]:
        result: Set[ColumnRef] = set()
        for part in self.parts:
            result |= part.columns()
        return result

    def sql(self) -> str:
        return " OR ".join(part.sql() for part in self.parts)


class Not(Predicate):
    """Logical negation."""

    def __init__(self, operand: Predicate):
        self.operand = operand

    def evaluate(self, env: ScalarEnv) -> bool:
        return not self.operand.evaluate(env)

    def values(self, env: ArrayEnv) -> np.ndarray:
        return ~self.operand.values(env)

    def tribool(self, env: IntervalEnv) -> TriBool:
        return self.operand.tribool(env).negate()

    def possible(self, env: BoundsEnv) -> np.ndarray:
        return self.operand.negated().possible(env)

    def negated(self) -> Predicate:
        return self.operand

    def columns(self) -> Set[ColumnRef]:
        return self.operand.columns()

    def sql(self) -> str:
        return f"NOT ({self.operand.sql()})"


# ---------------------------------------------------------------------------
# Aggregates (SELECT list only)
# ---------------------------------------------------------------------------


class Aggregate:
    """An aggregate over the join result, e.g. ``MIN(distance(...))`` (Q1).

    Aggregates never appear inside WHERE; they reduce the final result rows
    at the base station.  ``COUNT`` accepts ``*`` (operand ``None``).
    """

    FUNCS = ("MIN", "MAX", "AVG", "SUM", "COUNT")

    def __init__(self, func: str, operand: Expression | None):
        func = func.upper()
        if func not in self.FUNCS:
            raise QueryError(f"unknown aggregate function {func!r}")
        if operand is None and func != "COUNT":
            raise QueryError(f"{func} requires an operand ({func}(*) is not valid)")
        self.func = func
        self.operand = operand

    def apply(self, per_row_values: np.ndarray | Sequence[float], row_count: int) -> float:
        """Reduce the per-row expression values of the join result."""
        if self.func == "COUNT":
            return float(row_count)
        data = np.asarray(per_row_values, dtype=float)
        if data.size == 0:
            raise EvaluationError(f"{self.func} over an empty join result")
        if self.func == "MIN":
            return float(data.min())
        if self.func == "MAX":
            return float(data.max())
        if self.func == "AVG":
            return float(data.mean())
        return float(data.sum())

    def columns(self) -> Set[ColumnRef]:
        """Columns referenced by the operand (empty for COUNT(*))."""
        return self.operand.columns() if self.operand is not None else set()

    def sql(self) -> str:
        """Round-trippable rendering."""
        inner = "*" if self.operand is None else self.operand.sql()
        return f"{self.func}({inner})"

    def __repr__(self) -> str:
        return f"<Aggregate {self.sql()}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Aggregate) and self.sql() == other.sql()

    def __hash__(self) -> int:
        return hash(("Aggregate", self.sql()))
