"""Query model: the bound form of a SENS-Join-processable query.

The problem statement (§III) fixes the query shape::

    SELECT R1.attrs, ..., Rn.attrs
    FROM Relation_1 R1, ..., Relation_n Rn
    WHERE preds(R1) AND ... AND preds(Rn)
      AND join-exprs(R1.join-attrs, ..., Rn.join-attrs)
    {SAMPLE PERIOD x | ONCE}

:class:`JoinQuery` holds the parsed form and derives the structure every
component downstream needs:

* the WHERE conjunction split into **selection predicates** (reference one
  alias — evaluated locally at each node, §IV-A line 8f) and **join
  predicates** (reference two or more aliases);
* the **join attributes** per alias (Definition 1: a join-attribute tuple is
  the projection of a tuple onto the join attributes);
* the **full-tuple attributes** per alias: join attributes plus whatever the
  SELECT list needs — this is what a node ships in the final phase, and its
  size vs. the join-attribute size is the paper's central
  "ratio join attributes / attributes overall" parameter (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..data.sensors import SensorCatalog
from ..errors import BindingError, QueryError
from .expressions import Aggregate, And, Column, ColumnRef, Expression, Predicate

__all__ = ["JoinQuery", "SelectItem", "Once", "SamplePeriod", "QueryMode"]


@dataclass(frozen=True)
class Once:
    """Snapshot execution: one result from the current network state."""

    def sql(self) -> str:
        """Render the clause."""
        return "ONCE"


@dataclass(frozen=True)
class SamplePeriod:
    """Continuous execution: an independent result every ``seconds``."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise QueryError(f"SAMPLE PERIOD must be positive, got {self.seconds}")

    def sql(self) -> str:
        """Render the clause."""
        return f"SAMPLE PERIOD {self.seconds:g}"


QueryMode = Union[Once, SamplePeriod]


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry: a plain expression or an aggregate."""

    payload: Union[Expression, Aggregate]
    label: Optional[str] = None

    @property
    def is_aggregate(self) -> bool:
        """True for aggregate entries (Q1's ``MIN(distance(...))``)."""
        return isinstance(self.payload, Aggregate)

    @property
    def name(self) -> str:
        """Output column name (explicit label or the rendered expression)."""
        return self.label if self.label is not None else self.payload.sql()

    def sql(self) -> str:
        """Render the entry."""
        if self.label is not None:
            return f"{self.payload.sql()} AS {self.label}"
        return self.payload.sql()


def _flatten_conjuncts(predicate: Predicate) -> List[Predicate]:
    """Split a predicate tree at top-level ANDs."""
    if isinstance(predicate, And):
        result: List[Predicate] = []
        for part in predicate.parts:
            result.extend(_flatten_conjuncts(part))
        return result
    return [predicate]


def _aliases_of(columns: Set[ColumnRef]) -> Set[str]:
    return {alias for alias, _ in columns}


class JoinQuery:
    """A validated join query over sensor relations.

    Parameters
    ----------
    select:
        SELECT-list entries; either all aggregates or none (no GROUP BY in
        the dialect, matching the paper's queries).
    relations:
        ``(relation_name, alias)`` pairs from the FROM clause.  A self-join
        lists the same relation under two aliases (Q1/Q2).
    where:
        The full WHERE predicate, or None.
    mode:
        :class:`Once` or :class:`SamplePeriod`.
    """

    def __init__(
        self,
        select: Sequence[SelectItem],
        relations: Sequence[Tuple[str, str]],
        where: Optional[Predicate],
        mode: QueryMode = Once(),
    ):
        if not select:
            raise QueryError("SELECT list must not be empty")
        if len(relations) < 1:
            raise QueryError("FROM clause must name at least one relation")
        aliases = [alias for _, alias in relations]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases in FROM clause: {aliases}")
        aggregate_flags = {item.is_aggregate for item in select}
        if aggregate_flags == {True, False}:
            raise QueryError(
                "mixing aggregate and plain SELECT entries requires GROUP BY, "
                "which the dialect does not support"
            )
        names = [item.name for item in select]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise QueryError(
                f"duplicate SELECT output name(s) {duplicates}; "
                "label colliding expressions with AS"
            )
        self.select: Tuple[SelectItem, ...] = tuple(select)
        self.relations: Tuple[Tuple[str, str], ...] = tuple(relations)
        self.where = where
        self.mode = mode
        self._conjuncts = _flatten_conjuncts(where) if where is not None else []
        self._check_alias_references()
        # The §IV-A split, made once: conjuncts over one alias are its
        # selections, conjuncts over two or more are join predicates.
        self._selections: Dict[str, List[Predicate]] = {alias: [] for alias in aliases}
        self._join_predicates: List[Predicate] = []
        join_attributes: Dict[str, Set[str]] = {alias: set() for alias in aliases}
        for conjunct in self._conjuncts:
            columns = conjunct.columns()
            referenced = _aliases_of(columns)
            if len(referenced) == 1:
                self._selections[referenced.pop()].append(conjunct)
            elif len(referenced) >= 2:
                self._join_predicates.append(conjunct)
                for alias, attribute in columns:
                    join_attributes[alias].add(attribute)
        self._join_attributes: Dict[str, List[str]] = {
            alias: sorted(attributes) for alias, attributes in join_attributes.items()
        }

    # -- validation ------------------------------------------------------------

    def _check_alias_references(self) -> None:
        known = set(self.aliases)
        referenced: Set[ColumnRef] = set()
        for item in self.select:
            referenced |= item.payload.columns()
        if self.where is not None:
            referenced |= self.where.columns()
        unknown = _aliases_of(referenced) - known
        if unknown:
            raise BindingError(
                f"unknown alias(es) {sorted(unknown)}; FROM clause defines {sorted(known)}"
            )

    def validate_attributes(self, catalog: SensorCatalog) -> None:
        """Check every referenced attribute against a sensor catalogue."""
        referenced: Set[ColumnRef] = set()
        for item in self.select:
            referenced |= item.payload.columns()
        if self.where is not None:
            referenced |= self.where.columns()
        for _, attribute in referenced:
            if attribute not in catalog:
                raise BindingError(
                    f"unknown attribute {attribute!r}; catalogue has {catalog.names}"
                )

    # -- basic properties ---------------------------------------------------------

    @property
    def aliases(self) -> List[str]:
        """Aliases in FROM-clause order."""
        return [alias for _, alias in self.relations]

    def relation_of(self, alias: str) -> str:
        """The relation name bound to ``alias``."""
        for name, candidate in self.relations:
            if candidate == alias:
                return name
        raise BindingError(f"unknown alias {alias!r}")

    @property
    def is_self_join(self) -> bool:
        """True when the same relation appears under several aliases."""
        names = [name for name, _ in self.relations]
        return len(set(names)) < len(names)

    @property
    def is_aggregate(self) -> bool:
        """True when the SELECT list aggregates the join result."""
        return bool(self.select) and self.select[0].is_aggregate

    # -- predicate split (§IV-A) -----------------------------------------------

    @property
    def conjuncts(self) -> List[Predicate]:
        """Top-level AND-split of the WHERE clause."""
        return list(self._conjuncts)

    def selection_predicates(self, alias: str) -> List[Predicate]:
        """Conjuncts that only reference ``alias`` (evaluated at the node)."""
        return list(self._selections.get(alias, ()))

    @property
    def join_predicates(self) -> List[Predicate]:
        """Conjuncts that reference two or more aliases."""
        return list(self._join_predicates)

    def require_join(self) -> None:
        """Raise unless this is a genuine join (≥2 relations + join exprs)."""
        if len(self.relations) < 2:
            raise QueryError("a join query needs at least two relations in FROM")
        if not self.join_predicates:
            raise QueryError(
                "no join predicate connects the relations (cross products "
                "are not supported by the join methods)"
            )

    # -- attribute sets -----------------------------------------------------------

    def join_attributes(self, alias: str) -> List[str]:
        """Attributes of ``alias`` appearing in join predicates (Def. 1)."""
        return list(self._join_attributes.get(alias, ()))

    def select_attributes(self, alias: str) -> List[str]:
        """Attributes of ``alias`` the SELECT list needs."""
        attributes: Set[str] = set()
        for item in self.select:
            for ref_alias, attribute in item.payload.columns():
                if ref_alias == alias:
                    attributes.add(attribute)
        return sorted(attributes)

    def full_tuple_attributes(self, alias: str) -> List[str]:
        """What a node must ship for the final result: select ∪ join attrs.

        Selection-predicate-only attributes are *not* included: they are
        evaluated locally and never leave the node.
        """
        return sorted(set(self.select_attributes(alias)) | set(self.join_attributes(alias)))

    def join_attribute_ratio(self, alias: str) -> float:
        """The paper's central parameter: |join attrs| / |full tuple attrs|."""
        full = self.full_tuple_attributes(alias)
        if not full:
            return 0.0
        return len(self.join_attributes(alias)) / len(full)

    # -- rendering ---------------------------------------------------------------

    def sql(self) -> str:
        """Round-trippable SQL rendering."""
        select_clause = ", ".join(item.sql() for item in self.select)
        from_clause = ", ".join(f"{name} {alias}" for name, alias in self.relations)
        parts = [f"SELECT {select_clause}", f"FROM {from_clause}"]
        if self.where is not None:
            parts.append(f"WHERE {self.where.sql()}")
        parts.append(self.mode.sql())
        return "\n".join(parts)

    def __repr__(self) -> str:
        return f"<JoinQuery {self.sql()!r}>"
