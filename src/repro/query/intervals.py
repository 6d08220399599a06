"""Closed-interval arithmetic with three-valued predicate outcomes.

Why this exists: SENS-Join's pre-computation joins *quantized*
join-attribute tuples.  A quantized value stands for an interval of raw
values (one quantization cell), so the pre-computation join must be
*conservative*: a pair of cells may only be dropped when **no** pair of raw
values inside them can satisfy the join condition (§V-B, footnote 2: "As we
reduce the resolution, we need to adjust the join of the pre-computation not
to miss a joining tuple").

Evaluating an arbitrary theta-condition over cells is classic interval
arithmetic: numeric expressions map intervals to intervals, and comparisons
yield a :class:`TriBool` — ``TRUE`` (holds for every value combination),
``FALSE`` (holds for none; safe to prune) or ``MAYBE``.  The filter keeps
everything not ``FALSE``.

The scalar :class:`Interval` here is the readable reference implementation;
the vectorised twin used on large point sets lives in the expression AST
(:meth:`repro.query.expressions.Expression.bounds`), and a hypothesis test
checks they agree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..errors import EvaluationError

__all__ = ["Interval", "TriBool"]


class TriBool(enum.Enum):
    """Three-valued logic for predicates over intervals."""

    FALSE = 0
    TRUE = 1
    MAYBE = 2

    def __and__(self, other: "TriBool") -> "TriBool":
        if self is TriBool.FALSE or other is TriBool.FALSE:
            return TriBool.FALSE
        if self is TriBool.TRUE and other is TriBool.TRUE:
            return TriBool.TRUE
        return TriBool.MAYBE

    def __or__(self, other: "TriBool") -> "TriBool":
        if self is TriBool.TRUE or other is TriBool.TRUE:
            return TriBool.TRUE
        if self is TriBool.FALSE and other is TriBool.FALSE:
            return TriBool.FALSE
        return TriBool.MAYBE

    def negate(self) -> "TriBool":
        """Logical NOT (MAYBE stays MAYBE)."""
        if self is TriBool.TRUE:
            return TriBool.FALSE
        if self is TriBool.FALSE:
            return TriBool.TRUE
        return TriBool.MAYBE

    @property
    def possible(self) -> bool:
        """True unless definitely FALSE (the pruning criterion)."""
        return self is not TriBool.FALSE

    @property
    def definite(self) -> bool:
        """True only when TRUE for every value combination."""
        return self is TriBool.TRUE

    @staticmethod
    def of(value: bool) -> "TriBool":
        """Lift an exact boolean."""
        return TriBool.TRUE if value else TriBool.FALSE


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi] of reals.

    Degenerate intervals (lo == hi) represent exact values, so exact scalar
    evaluation is the special case ``Interval.point(v)`` — a property the
    tests exploit.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise EvaluationError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise EvaluationError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(value: float) -> "Interval":
        """The degenerate interval containing exactly ``value``."""
        return Interval(value, value)

    @property
    def is_point(self) -> bool:
        """True for degenerate (exact-value) intervals."""
        return self.lo == self.hi

    @property
    def width(self) -> float:
        """hi - lo."""
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies in the interval."""
        return self.lo <= value <= self.hi

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        # 0 * +-inf is 0: an unbounded factor stands for finite values.
        products = [
            0.0 if math.isnan(product) else product
            for product in (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
        ]
        return Interval(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.contains(0.0):
            # Dividing by an interval spanning zero: bounds blow up.  The
            # conservative answer is the whole real line, which keeps the
            # evaluation sound (everything stays MAYBE downstream).
            return Interval(-math.inf, math.inf)
        reciprocals = Interval(1.0 / other.hi, 1.0 / other.lo)
        if math.isinf(reciprocals.lo) or math.isinf(reciprocals.hi):
            # A subnormal denominator's reciprocal overflows, and inf times
            # the numerator bounds no finite quotient: divide the corners.
            # ``±inf / ±inf`` is 0, the limit over an unbounded denominator.
            quotients = [
                0.0 if math.isnan(quotient) else quotient
                for quotient in (
                    self.lo / other.lo,
                    self.lo / other.hi,
                    self.hi / other.lo,
                    self.hi / other.hi,
                )
            ]
            return Interval(min(quotients), max(quotients))
        return self * reciprocals

    def abs(self) -> "Interval":
        """|x| over the interval."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def sqrt(self) -> "Interval":
        """sqrt(x); negative parts clamp to zero (sound for distance use)."""
        lo = math.sqrt(max(self.lo, 0.0))
        hi = math.sqrt(max(self.hi, 0.0))
        return Interval(lo, hi)

    def square(self) -> "Interval":
        """x^2 (tighter than self * self when the interval spans zero)."""
        return self.abs() * self.abs()

    def min_with(self, other: "Interval") -> "Interval":
        """Elementwise min of the two ranges."""
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        """Elementwise max of the two ranges."""
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- comparisons (TriBool) --------------------------------------------------

    def lt(self, other: "Interval") -> TriBool:
        """self < other, three-valued."""
        if self.hi < other.lo:
            return TriBool.TRUE
        if self.lo >= other.hi:
            return TriBool.FALSE
        return TriBool.MAYBE

    def le(self, other: "Interval") -> TriBool:
        """self <= other, three-valued."""
        if self.hi <= other.lo:
            return TriBool.TRUE
        if self.lo > other.hi:
            return TriBool.FALSE
        return TriBool.MAYBE

    def gt(self, other: "Interval") -> TriBool:
        """self > other, three-valued."""
        return other.lt(self)

    def ge(self, other: "Interval") -> TriBool:
        """self >= other, three-valued."""
        return other.le(self)

    def eq(self, other: "Interval") -> TriBool:
        """self == other, three-valued."""
        if self.is_point and other.is_point and self.lo == other.lo:
            return TriBool.TRUE
        if self.hi < other.lo or other.hi < self.lo:
            return TriBool.FALSE
        return TriBool.MAYBE

    def ne(self, other: "Interval") -> TriBool:
        """self != other, three-valued."""
        return self.eq(other).negate()

    @staticmethod
    def distance(x1: "Interval", y1: "Interval", x2: "Interval", y2: "Interval") -> "Interval":
        """Euclidean distance over interval coordinates.

        Where the squared nearest gaps overflow, the lower bound is their
        ``hypot``: inf would lie above the exact distance.
        """
        dx, dy = (x1 - x2).abs(), (y1 - y2).abs()
        result = (dx.square() + dy.square()).sqrt()
        if math.isinf(result.lo):
            return Interval(math.hypot(dx.lo, dy.lo), result.hi)
        return result
