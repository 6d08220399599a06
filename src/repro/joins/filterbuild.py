"""Join-filter construction at the base station (§IV-A step 1a, tail end).

After the Join-Attribute-Collection the base station holds the set of
quantized join-attribute tuples of the whole network (as flagged points).
"The join-attribute tuples that have a partner form the 'join filter'".

Because the points are quantization cells, the join runs under conservative
interval semantics (:func:`repro.query.evaluate.conservative_semijoin`): a
point stays in the filter when the cells *possibly* satisfy every join
predicate — the N-way semi-join reduction of the quantized relations.  A
surviving point keeps exactly the alias flags of the roles in which it
survived, so a node later checks the filter with its own alias flags.

Self-join subtlety: with aliases A and B over the same relation, a single
node's point typically carries flags '11'.  Its A-role and B-role survive
independently (e.g. in Q1 a hot node may join as A but not as B).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

import numpy as np

from ..codec.quadtree import FlaggedPoint
from ..codec.setops import union_points
from ..query.evaluate import conservative_semijoin
from ..query.query import JoinQuery
from .base import TupleFormat

__all__ = ["build_join_filter", "compose_filters"]


def build_join_filter(
    fmt: TupleFormat, points: Iterable[FlaggedPoint], query: Optional[JoinQuery] = None
) -> FrozenSet[FlaggedPoint]:
    """The join filter: the sub-(multi)set of points that possibly join.

    ``query`` defaults to the format's own; another query must share the
    format's aliases and quantizer (a broker share group).
    """
    # Collapse duplicate Z-numbers, OR-ing their flags (different nodes can
    # share a quantization cell — that is the whole point of quantizing).
    flags_by_z: Dict[int, int] = {}
    for flags, z in points:
        flags_by_z[z] = flags_by_z.get(z, 0) | flags
    zs = sorted(flags_by_z)
    flags = np.array([flags_by_z[z] for z in zs], dtype=np.int64)
    bits = {alias: fmt.alias_bit(alias) for alias in fmt.aliases}

    # Each distinct cell is decoded once, whichever aliases it plays.
    survivors = conservative_semijoin(
        fmt.query if query is None else query,
        fmt.quantizer.cell_bounds(zs),
        {alias: np.flatnonzero(flags & bit) for alias, bit in bits.items()},
    )

    surviving_flags: Dict[int, int] = {}
    for alias, bit in bits.items():
        for index in survivors[alias].tolist():
            z = zs[index]
            surviving_flags[z] = surviving_flags.get(z, 0) | bit
    return frozenset((flags, z) for z, flags in surviving_flags.items())


def compose_filters(
    filters: Iterable[FrozenSet[FlaggedPoint]],
) -> FrozenSet[FlaggedPoint]:
    """Unite per-query join filters over one quantized domain into one.

    The callers (``repro.service.broker``) guarantee the filters share a
    :class:`TupleFormat` up to the join predicate: same aliases in the same
    order (so alias-flag bits agree) and the same quantizer (so Z-numbers
    index the same cells).  Under that premise the flag-OR union is a
    conservative filter for *every* member query — it is a superset of each
    per-query filter, so no joining tuple of any query is dismissed, and the
    exact final join at the base station still discards every false
    positive.  Flags of coinciding cells are OR-ed (``union_points``).
    """
    composed: FrozenSet[FlaggedPoint] = frozenset()
    for points in filters:
        composed = union_points(composed, points)
    return composed
