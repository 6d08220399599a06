"""Set operations on flagged point sets (§V-D).

The protocol needs three primitives on ``Join_Attr_Structure`` (Figs. 2, 3):
``Insert``, ``Union`` and ``Intersect``.  "A strength of our quadtree
representation is that Union and Intersect can be computed directly on it.
There is no need to recover the original tuples."

The reproduction unites and intersects the flagged points themselves and
charges each message the size of the quadtree that would carry the result
(:meth:`repro.codec.quadtree.QuadtreeCodec.encoded_size_bits`); the result
sets and the sizes are those of the tree-level operations, since the
encoding of a set is canonical.  Insert is a union with a one-point set.
Relation flags combine bitwise on union ('10' ∪ '01' = '11', i.e. the point
now belongs to both relations) and intersect bitwise on intersection; a
point whose intersected flags are empty drops out.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from .quadtree import FlaggedPoint

__all__ = ["union_points", "intersect_points"]


def union_points(
    a: Iterable[FlaggedPoint], b: Iterable[FlaggedPoint]
) -> FrozenSet[FlaggedPoint]:
    """Union of flagged point sets; flags of shared Z-numbers OR together.

    This is ``UnionJoin_Atts``: a Z-number present as relation A in one
    operand and relation B in the other is present as 'both' afterwards.
    """
    merged: Dict[int, int] = {}
    for flags, z in a:
        merged[z] = merged.get(z, 0) | flags
    for flags, z in b:
        merged[z] = merged.get(z, 0) | flags
    return frozenset((flags, z) for z, flags in merged.items())


def intersect_points(
    a: Iterable[FlaggedPoint], b: Iterable[FlaggedPoint]
) -> FrozenSet[FlaggedPoint]:
    """Intersection; flags AND together, flagless points disappear.

    This is ``IntersectJoin_Atts`` as used by Selective Filter Forwarding
    (Fig. 3 line 3): the subtree's points restricted to those that appear in
    the join filter *in a role the subtree actually has*.
    """
    left: Dict[int, int] = {}
    for flags, z in a:
        left[z] = left.get(z, 0) | flags
    result = {}
    for flags, z in b:
        if z in left:
            combined = left[z] & flags
            if combined:
                result[z] = result.get(z, 0) | combined
    return frozenset((flags, z) for z, flags in result.items())
