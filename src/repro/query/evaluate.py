"""Join evaluation at the base station.

Two evaluators live here, both driven by the same query AST:

:func:`evaluate_join`
    **Exact** n-way join over full tuples (raw sensor values).  Used for the
    final result computation of both SENS-Join and the external join, by
    every baseline, by the lossless oracle and by threshold calibration.

:func:`conservative_semijoin`
    **Conservative** n-way semi-join over quantization-cell intervals.  Used
    to build the join filter (§IV-A step 1a): a point survives iff it
    participates in at least one combination that *possibly* satisfies all
    join predicates (interval semantics — see :mod:`repro.query.intervals`).
    It reads the cells as per-attribute ``(lo, hi)`` arrays and returns,
    per alias, the surviving cells as an index array: exactly the N-way
    semi-join reduction [10] of the quantized relations.

Both run one nested-loop binder, :func:`_bind`, in one of two modes.  It
binds one alias at a time, in FROM order, and each join conjunct fires at
the first step where every alias it references is bound (early pruning,
:func:`_conjunct_schedule`).  A step tests blocks of the surviving partial
combinations against all of the new alias's rows at once through numpy
broadcasting, so it never materialises the cross product.  The exact join
masks pairs with :meth:`Predicate.values` in blocks of at most
:data:`_BLOCK_ELEMENTS` pairs, which bounds a step's working memory whatever
the relation sizes.  The filter masks them with :meth:`Predicate.possible`
in cache-sized blocks of :data:`_SEMIJOIN_BLOCK_ELEMENTS`, and its last step
only marks which partial combinations and which rows take part in a pair,
so a two-alias filter builds no pair at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import QueryError
from .expressions import Aggregate, ColumnRef, Expression, Predicate
from .query import JoinQuery

__all__ = ["Row", "JoinResult", "evaluate_join", "conservative_semijoin"]


@dataclass(frozen=True)
class Row:
    """One relation tuple: its source node and its attribute values."""

    node_id: int
    values: Mapping[str, float]


class JoinResult:
    """Outcome of an exact join evaluation.

    ``rows`` holds the SELECT output (one dict per result row; for aggregate
    queries exactly one row).  ``combinations`` holds, for every result row
    of the underlying join (pre-aggregation), the tuple of contributing node
    ids in FROM-clause alias order — this is the canonical value the
    equivalence tests compare across join algorithms.

    Internally both are backed by numpy arrays and materialised lazily:
    large results (the external join at low selectivity can produce millions
    of matches) stay cheap unless someone actually iterates them.
    """

    def __init__(
        self,
        aliases: Tuple[str, ...],
        alias_node_ids: Sequence[np.ndarray],
        matches: np.ndarray,
        row_columns: "Dict[str, np.ndarray]",
    ):
        self.aliases = tuple(aliases)
        # Per alias, the node id of each of its input rows.
        self._alias_node_ids = tuple(np.asarray(ids, dtype=int) for ids in alias_node_ids)
        # (match_count, n_aliases) int array of row indices into those ids.
        self._matches = np.asarray(matches, dtype=int).reshape(-1, len(aliases))
        # SELECT output as column arrays, all of equal length.
        self._row_columns = row_columns
        self._rows_cache: Optional[List[Dict[str, float]]] = None
        self._combos_cache: Optional[List[Tuple[int, ...]]] = None

    @property
    def _node_combos(self) -> np.ndarray:
        """(match_count, n_aliases) int array of contributing node ids."""
        return np.column_stack(
            [node_ids[self._matches[:, p]] for p, node_ids in enumerate(self._alias_node_ids)]
        )

    @classmethod
    def from_lists(
        cls,
        aliases: Tuple[str, ...],
        rows: List[Dict[str, float]],
        combinations: List[Tuple[int, ...]],
    ) -> "JoinResult":
        """Build from plain Python lists (test convenience)."""
        combo_array = np.array(combinations, dtype=int).reshape(-1, len(aliases))
        labels = list(rows[0]) if rows else []
        columns = {
            label: np.array([row[label] for row in rows], dtype=float) for label in labels
        }
        match_rows = np.arange(combo_array.shape[0])
        return cls(
            aliases,
            combo_array.T,
            np.repeat(match_rows[:, None], len(aliases), axis=1),
            columns,
        )

    @property
    def rows(self) -> List[Dict[str, float]]:
        """The SELECT output rows (materialised on first access)."""
        if self._rows_cache is None:
            labels = list(self._row_columns)
            count = len(next(iter(self._row_columns.values()))) if labels else 0
            self._rows_cache = [
                {label: float(self._row_columns[label][i]) for label in labels}
                for i in range(count)
            ]
        return self._rows_cache

    @property
    def combinations(self) -> List[Tuple[int, ...]]:
        """Contributing node-id tuples (materialised on first access)."""
        if self._combos_cache is None:
            self._combos_cache = [tuple(int(v) for v in row) for row in self._node_combos]
        return self._combos_cache

    @property
    def row_count(self) -> int:
        """Number of SELECT output rows."""
        if not self._row_columns:
            return 0
        return len(next(iter(self._row_columns.values())))

    @property
    def match_count(self) -> int:
        """Number of joining tuple combinations (pre-aggregation)."""
        return int(self._matches.shape[0])

    def contributing_nodes(self, alias: str) -> Set[int]:
        """Node ids whose tuple (under ``alias``) joins at least once."""
        try:
            position = self.aliases.index(alias)
        except ValueError:
            raise QueryError(f"unknown alias {alias!r}") from None
        return set(self._contributors(position))

    def all_contributing_nodes(self) -> Set[int]:
        """Node ids contributing under any alias."""
        return set().union(*map(self._contributors, range(len(self.aliases))))

    def _contributors(self, position: int) -> List[int]:
        """Node ids joining under the alias at ``position``, maybe repeated.

        The joining input rows are marked in a mask sized by the alias's
        input, so node-id values never index it.
        """
        node_ids = self._alias_node_ids[position]
        joined = np.zeros(len(node_ids), dtype=bool)
        joined[self._matches[:, position]] = True
        return node_ids[joined].tolist()

    def signature(self, digits: int = 9) -> tuple:
        """Order-independent fingerprint for cross-algorithm comparison.

        Two algorithms computed the same result iff the signatures match:
        the multiset of contributing node-id combinations plus the multiset
        of (rounded) output rows.
        """
        combos = tuple(sorted(self.combinations))
        rows = tuple(
            sorted(
                tuple(sorted((key, round(value, digits)) for key, value in row.items()))
                for row in self.rows
            )
        )
        return (combos, rows)

    def result_set(self, digits: int = 9) -> frozenset:
        """The result as a comparable set, for differential testing.

        Non-aggregate queries emit one output row per joining combination,
        so elements are ``(node_combo, canonical_row)`` pairs — equality
        means two engines found the same matches *and* computed the same
        values for them, and a partial (faulted) result's set is a subset
        of the oracle's.  Aggregate queries collapse to a single row, so
        combinations and (rounded) rows are keyed separately instead.
        """

        def canonical(row: Mapping[str, float]) -> Tuple[Tuple[str, float], ...]:
            return tuple(sorted((key, round(value, digits)) for key, value in row.items()))

        rows = self.rows
        if len(rows) == self.match_count:
            return frozenset(zip(self.combinations, (canonical(row) for row in rows)))
        elements: set = {("combo", combo) for combo in self.combinations}
        elements |= {("row", canonical(row)) for row in rows}
        return frozenset(elements)


# ---------------------------------------------------------------------------
# Incremental combination expansion (shared by exact and conservative modes)
# ---------------------------------------------------------------------------


def _conjunct_schedule(
    query: JoinQuery, aliases: Sequence[str]
) -> List[Tuple[int, Predicate]]:
    """For each join conjunct, the 1-based binding step where it can fire.

    A conjunct fires at the first step where every alias it references has
    been bound (aliases are bound in FROM order).
    """
    schedule: List[Tuple[int, Predicate]] = []
    for conjunct in query.join_predicates:
        referenced = {alias for alias, _ in conjunct.columns()}
        step = max(aliases.index(alias) for alias in referenced) + 1
        schedule.append((step, conjunct))
    return schedule


def _bind(
    query: JoinQuery,
    aliases: Sequence[str],
    counts: Sequence[int],
    columns: Mapping[ColumnRef, np.ndarray],
    test: str,
    block_elements: int,
    reduce_last: bool = False,
) -> np.ndarray | List[np.ndarray]:
    """Bind ``aliases`` in FROM order and keep the combinations that pass.

    Alias k has ``counts[k]`` rows.  ``columns`` holds every join column
    with its rows along the last axis: values of shape ``(n,)`` for
    ``test="values"``, or stacked cell bounds of shape ``(2, n)`` for
    ``test="possible"``, where the two rows unpack as ``(lo, hi)``.
    ``test`` names the :class:`Predicate` method that masks pairs.

    Binding alias k with n rows splits the P partial combinations that
    survive steps 1..k-1 into blocks of at most ``block_elements // n``
    rows.  Each bound column is gathered over the partial combinations once
    per step and sliced to ``(rows, 1)`` per block, and each column of
    alias k is viewed as ``(1, n)`` (both behind the ``(lo, hi)`` axis, if
    any), so every conjunct that fires at step k masks the block's
    ``(rows, n)`` pairs by broadcasting.  The row-major flat indices of the
    ANDed mask are partial-major and tuple-minor, so one ``divmod`` by n
    reads off the surviving pairs in nested-loop order.  A step that fires
    no conjunct pairs every partial combination with every row.

    Returns the ``(M, len(aliases))`` int array of passing combinations, as
    row indices in nested-loop order: by the first alias's index, then the
    second's, and so on.  With ``reduce_last`` the last step builds no
    pairs.  It ORs each block's ``any(axis=1)`` into a mask of the partial
    combinations that pair with some row and its ``any(axis=0)`` into a mask
    of the rows that pair with some partial combination, and the result is,
    per alias, the mask of its rows that occur in a passing combination.
    """
    schedule = _conjunct_schedule(query, aliases)
    combos = np.zeros((1, 0), dtype=int)  # one empty combination
    for step, (alias, count) in enumerate(zip(aliases, counts), start=1):
        if count == 0:
            if reduce_last:
                return [np.zeros(n, dtype=bool) for n in counts]
            return np.zeros((0, len(aliases)), dtype=int)
        conjuncts = [conjunct for fire_step, conjunct in schedule if fire_step == step]
        reduce = reduce_last and step == len(aliases)
        partial = combos.shape[0]
        refs = {ref for conjunct in conjuncts for ref in conjunct.columns()}
        masks = [getattr(conjunct, test) for conjunct in conjuncts]
        if partial == 0:
            # Like the reference, still evaluate the step over no pairs,
            # where only a constant zero denominator raises.
            for mask_of in masks:
                mask_of({ref: columns[ref][..., :0] for ref in refs})
        env: Dict[ColumnRef, np.ndarray] = {}
        gathered: Dict[ColumnRef, np.ndarray] = {}
        for ref in refs:
            if ref[0] == alias:
                env[ref] = columns[ref][..., None, :]
            else:
                gathered[ref] = np.take(columns[ref], combos[:, aliases.index(ref[0])], axis=-1)
        block_rows = max(1, block_elements // count)
        hits = [np.zeros(0, dtype=np.intp)]
        partial_hit = np.zeros(partial, dtype=bool)
        row_hit = np.zeros(count, dtype=bool)
        for start in range(0, partial, block_rows):
            stop = min(start + block_rows, partial)
            for ref, column in gathered.items():
                env[ref] = column[..., start:stop, None]
            mask = np.ones((stop - start, count), dtype=bool)
            for mask_of in masks:
                mask &= mask_of(env)
            if reduce:
                partial_hit[start:stop] = mask.any(axis=1)
                row_hit |= mask.any(axis=0)
            else:
                hits.append(np.flatnonzero(mask) + start * count)
        if reduce:
            keep = [np.zeros(n, dtype=bool) for n in counts[:-1]]
            for position, kept in enumerate(keep):
                kept[combos[partial_hit, position]] = True
            return keep + [row_hit]
        partial_index, tuple_index = np.divmod(np.concatenate(hits), count)
        bound = np.empty((len(partial_index), step), dtype=int)
        bound[:, :-1] = combos[partial_index]
        bound[:, -1] = tuple_index
        combos = bound
    return combos


def evaluate_join(
    query: JoinQuery,
    tuples_by_alias: Mapping[str, Sequence[Row]],
) -> JoinResult:
    """Exact n-way join; see the module docstring.

    Parameters
    ----------
    query:
        The bound query; must have at least one relation.
    tuples_by_alias:
        The candidate tuples per alias (full tuples — every attribute the
        query references must be present), already selected: the nodes
        apply each alias's selection predicates before they send a tuple
        (:func:`repro.joins.base.node_tuple`), so only the join conjuncts
        are evaluated here.
    """
    aliases = query.aliases
    working = {alias: list(tuples_by_alias.get(alias, ())) for alias in aliases}

    combos = _expand_exact(query, aliases, working)
    match_count = combos.shape[0]
    node_ids = [np.array([row.node_id for row in working[alias]], dtype=int) for alias in aliases]

    # SELECT evaluation over the surviving combinations, vectorised.
    env: Dict[ColumnRef, np.ndarray] = {}
    for position, alias in enumerate(aliases):
        rows = working[alias]
        for attr in query.select_attributes(alias):
            column = np.array([row.values[attr] for row in rows], dtype=float)
            env[(alias, attr)] = column[combos[:, position]]

    out_columns: Dict[str, np.ndarray] = {}
    if query.is_aggregate:
        for item in query.select:
            aggregate = item.payload
            assert isinstance(aggregate, Aggregate)
            if aggregate.operand is None:
                out_columns[item.name] = np.array([aggregate.apply([], match_count)])
            else:
                if match_count == 0 and aggregate.func != "COUNT":
                    # Aggregate over empty result: SQL would yield NULL; we
                    # return an empty result set instead of inventing a value.
                    return JoinResult(tuple(aliases), node_ids, combos, {})
                per_row = (
                    _per_row(aggregate.operand, env, match_count)
                    if match_count
                    else np.array([])
                )
                out_columns[item.name] = np.array([aggregate.apply(per_row, match_count)])
    else:
        for item in query.select:
            out_columns[item.name] = _per_row(item.payload, env, match_count).astype(float)
    return JoinResult(tuple(aliases), node_ids, combos, out_columns)


def _per_row(
    expression: Expression, env: Dict[ColumnRef, np.ndarray], match_count: int
) -> np.ndarray:
    """``expression`` at every match; a constant broadcasts to all of them."""
    return np.broadcast_to(np.asarray(expression.values(env), dtype=float), (match_count,))


#: Most (partial combination, tuple) pairs one binding block tests at once:
#: 2**22, so a float64 temporary of a block takes 32 MiB.
_BLOCK_ELEMENTS = 1 << 22


def _expand_exact(
    query: JoinQuery,
    aliases: Sequence[str],
    working: Mapping[str, Sequence[Row]],
) -> np.ndarray:
    """Index combinations satisfying every join conjunct, shape (M, n).

    Row ``i`` holds one match as row indices into ``working``, in FROM
    order, and the rows come in nested-loop order.  :func:`_bind` tests the
    rows' values in blocks of at most ``_BLOCK_ELEMENTS`` pairs.

    The result is :func:`_reference_expand_exact`'s array for array:
    broadcasting only changes how operands are addressed, so every pair
    gets the same IEEE operations on the same floats, and every conjunct
    still runs on every pair of its step, so a zero denominator raises
    :class:`EvaluationError` exactly when the reference's does.  Only the
    conjunct the message names may differ, when several would raise.
    """
    columns = {
        (alias, attr): np.array([row.values[attr] for row in working[alias]], dtype=float)
        for alias in aliases
        for attr in query.join_attributes(alias)
    }
    counts = [len(working[alias]) for alias in aliases]
    return _bind(query, aliases, counts, columns, "values", _BLOCK_ELEMENTS)


def _reference_expand_exact(
    query: JoinQuery,
    aliases: Sequence[str],
    working: Mapping[str, Sequence[Row]],
) -> np.ndarray:
    """Pinned pre-optimisation twin of :func:`_expand_exact`.

    Materialises every partial combination x every tuple of the new alias
    with ``np.repeat``/``np.tile`` and masks afterwards.  Only tests and the
    perf suite call it.
    """
    schedule = _conjunct_schedule(query, aliases)
    # Partial environment: (alias, attr) -> value array over partial combos.
    combos = np.zeros((1, 0), dtype=int)  # one empty combination
    env: Dict[ColumnRef, np.ndarray] = {}
    for step, alias in enumerate(aliases, start=1):
        rows = working[alias]
        count = len(rows)
        if count == 0:
            return np.zeros((0, len(aliases)), dtype=int)
        # Cross product: every partial combo x every tuple of this alias.
        partial = combos.shape[0]
        new_combos = np.empty((partial * count, combos.shape[1] + 1), dtype=int)
        new_combos[:, :-1] = np.repeat(combos, count, axis=0)
        new_combos[:, -1] = np.tile(np.arange(count), partial)
        combos = new_combos
        # Extend the environment to the new shape.
        env = {ref: np.repeat(column, count) for ref, column in env.items()}
        for attr in query.join_attributes(alias):
            column = np.array([row.values[attr] for row in rows], dtype=float)
            env[(alias, attr)] = np.tile(column, partial)
        # Fire every conjunct scheduled at this step.
        mask: Optional[np.ndarray] = None
        for fire_step, conjunct in schedule:
            if fire_step != step:
                continue
            part = np.broadcast_to(conjunct.values(env), (combos.shape[0],))
            mask = part if mask is None else (mask & part)
        if mask is not None:
            combos = combos[mask]
            env = {ref: column[mask] for ref, column in env.items()}
    return combos


# ---------------------------------------------------------------------------
# Conservative semi-join over quantization cells
# ---------------------------------------------------------------------------


#: Per attribute, the ``(lo, hi)`` arrays of a sequence of cells.
CellArrays = Mapping[str, Tuple[np.ndarray, np.ndarray]]


def conservative_semijoin(
    query: JoinQuery,
    bounds: CellArrays,
    rows: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """The cells per alias that possibly join (N-way semi-join).

    ``bounds`` holds one sequence of cells
    (:meth:`repro.codec.quantize.Quantizer.cell_bounds`); ``rows[alias]``
    indexes the cells that play ``alias``.  The result gives, per alias,
    the subset of ``rows[alias]`` that survives, in its order.

    A cell of alias X survives iff there is a combination of cells (one per
    other alias) such that **every** join predicate *possibly* holds under
    interval semantics.  Guaranteed no false negatives: if raw tuples
    t1..tn join, then their cells form a possibly-joining combination, so
    each of their cells survives.

    :func:`_bind` tests blocks of at most ``_SEMIJOIN_BLOCK_ELEMENTS`` cell
    pairs and reduces its last step to survivor masks, so a two-alias
    filter (every experiment in the paper) materialises no combination, and
    an n-alias one only those of its first n-1 aliases.
    """
    aliases = query.aliases
    if len(aliases) < 2:
        raise QueryError("conservative_semijoin needs at least two relations")
    rows = {alias: np.asarray(rows.get(alias, ()), dtype=np.intp) for alias in aliases}
    columns = {
        (alias, attr): np.array([side[rows[alias]] for side in bounds[attr]])
        for alias in aliases
        for attr in query.join_attributes(alias)
    }
    counts = [len(rows[alias]) for alias in aliases]
    keep = _bind(
        query, aliases, counts, columns, "possible", _SEMIJOIN_BLOCK_ELEMENTS, reduce_last=True
    )
    return {alias: rows[alias][mask] for alias, mask in zip(aliases, keep)}


#: Most cell pairs one semi-join block tests at once: 2**15, sized for the
#: cache rather than to bound memory.  A float64 temporary of a block takes
#: 256 KiB, so the dozen that a predicate's bounds make per block stay in L2
#: and are recycled by the heap.  An unblocked pass over 600 x 600 cells
#: makes 2.9 MB temporaries, which glibc returns to the system and faults
#: in again on every call unless an earlier, larger array has raised its
#: trim threshold.
_SEMIJOIN_BLOCK_ELEMENTS = 1 << 15


def _reference_semijoin_two_way(
    query: JoinQuery, bounds: CellArrays, rows: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Pinned pre-optimisation twin of :func:`_semijoin_two_way`: one
    ``(len(A), len(B))`` pass.  Only tests and the perf suite call it."""
    alias_a, alias_b = query.aliases
    rows_a, rows_b = rows[alias_a], rows[alias_b]
    if not len(rows_a) or not len(rows_b):
        return {alias_a: rows_a[:0], alias_b: rows_b[:0]}
    env: Dict[ColumnRef, Tuple[np.ndarray, np.ndarray]] = {}
    for attr in query.join_attributes(alias_a):
        lo, hi = bounds[attr]
        env[(alias_a, attr)] = (lo[rows_a, None], hi[rows_a, None])
    for attr in query.join_attributes(alias_b):
        lo, hi = bounds[attr]
        env[(alias_b, attr)] = (lo[None, rows_b], hi[None, rows_b])
    possible = np.ones((len(rows_a), len(rows_b)), dtype=bool)
    for conjunct in query.join_predicates:
        possible &= conjunct.possible(env)
    return {alias_a: rows_a[possible.any(axis=1)], alias_b: rows_b[possible.any(axis=0)]}
