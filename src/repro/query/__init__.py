"""Query layer: SQL dialect, expression AST, interval logic, join evaluation."""

from .evaluate import JoinResult, Row, conservative_semijoin, evaluate_join
from .expressions import (
    Abs,
    Add,
    Aggregate,
    And,
    Column,
    Compare,
    Distance,
    Div,
    Expression,
    Literal,
    Mul,
    Neg,
    Not,
    Or,
    Predicate,
    Sub,
)
from .intervals import Interval, TriBool
from .parser import parse_query, tokenize
from .query import JoinQuery, Once, SamplePeriod, SelectItem

__all__ = [
    "Abs",
    "Add",
    "Aggregate",
    "And",
    "Column",
    "Compare",
    "Distance",
    "Div",
    "Expression",
    "Interval",
    "JoinQuery",
    "JoinResult",
    "Literal",
    "Mul",
    "Neg",
    "Not",
    "Once",
    "Or",
    "Predicate",
    "Row",
    "SamplePeriod",
    "SelectItem",
    "Sub",
    "TriBool",
    "conservative_semijoin",
    "evaluate_join",
    "parse_query",
    "tokenize",
]
