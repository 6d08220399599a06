"""Pointerless region quadtree over Z-numbers (§V-C, Figs. 8 and 9).

A set of quantized join-attribute tuples — each a ``(relation flags,
Z-number)`` pair — is encoded as one bitstring:

* an **index node** starts with a ``0`` bit, followed by a presence mask with
  one bit per quadrant of the next level ("The remaining bits of an index
  node encode which of the quadrants at the subsequent level is present"),
  then the encodings of the present quadrants in depth-first order;
* a **point list** is a sequence of points, each a leading ``1`` bit followed
  by the point's position *relative to the current quadrant* (only the
  not-yet-consumed low bits), terminated by a single ``0`` bit.

The tree structure follows the Z-order bit interleaving: level *l* of the
tree consumes the bits of interleave round *l*, so a quadrant at level *l*
is exactly a Z-prefix.  The relation flags are simply the two (in general,
one-per-alias) leading bits of every point, which makes "the topmost index
node represent the relation flags" fall out for free.

Decomposition threshold (§V-C): instead of a fixed point-count threshold the
encoder compares, per node, the cost of listing the points against the cost
of subdividing (index marker + presence mask + children), and keeps the
cheaper — the paper's "compare both solutions and stop the decomposition if
a list of points is shorter", applied optimally via bottom-up recursion.

Canonical form: the encoding of a point set is unique (independent of
insertion order), so encodings can be compared for equality — a property the
round-trip tests rely on.

Implementation note: the public :meth:`QuadtreeCodec.encode` /
:meth:`~QuadtreeCodec.decode` / :meth:`~QuadtreeCodec.encoded_size_bits` run
int-native: encoding exploits that sorted packed points make every quadrant a
contiguous slice (``bisect_left`` instead of dict partitioning) and builds
each subtree bottom-up as a single ``(bit length, int value)`` pair; decoding
is an explicit-stack walk with inline shift/mask reads.  The decomposition
decision (`strict <` between subdivide and list cost) is byte-for-byte the
same as the original recursive writer, which is kept as
:meth:`~QuadtreeCodec._reference_encode` /
:meth:`~QuadtreeCodec._reference_decode` /
:meth:`~QuadtreeCodec._reference_encoded_size_bits` and pinned equivalent by
``tests/test_codec_equivalence.py``.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import CodecError
from .bits import BitReader, Bits, _ReferenceBitReader, _ReferenceBitWriter, _fold_chunks
from .quantize import Quantizer
from . import zcurve

__all__ = ["FlaggedPoint", "QuadtreeCodec"]

#: A point in the tree: (relation flags, Z-number).
FlaggedPoint = Tuple[int, int]


@functools.lru_cache(maxsize=None)
def _quadrant_table(arity: int, level_shift: int) -> Tuple[Tuple[int, ...], ...]:
    """mask -> present quadrants in *reverse* order (decode pushes them on a
    stack), pre-shifted past the level field; shared by every level and
    codec of one arity (at most 8) and level shift."""
    return tuple(
        tuple(
            q << level_shift
            for q in range(arity - 1, -1, -1)
            if (mask >> (arity - 1 - q)) & 1
        )
        for mask in range(1 << arity)
    )


class QuadtreeCodec:
    """Encoder/decoder for point sets under a fixed level schedule.

    Parameters
    ----------
    flag_bits:
        Width of the relation-flag prefix (one bit per alias; 2 in every
        paper query).  May be 0 for plain point sets.
    z_level_widths:
        Bits consumed per tree level below the flag level — i.e.
        :func:`repro.codec.zcurve.level_widths` of the quantizer.
    """

    def __init__(self, flag_bits: int, z_level_widths: Sequence[int]):
        if flag_bits < 0:
            raise CodecError(f"negative flag width: {flag_bits}")
        for width in z_level_widths:
            if width <= 0:
                raise CodecError(f"level widths must be positive: {list(z_level_widths)}")
        self.flag_bits = flag_bits
        self.z_level_widths = list(z_level_widths)
        self._schedule: List[int] = ([flag_bits] if flag_bits else []) + self.z_level_widths
        self.z_bits = sum(self.z_level_widths)
        self.total_bits = self.flag_bits + self.z_bits
        if self.total_bits == 0:
            raise CodecError("codec with zero total bits")
        # Per-level decode constants: bits remaining below each level, and
        # (width, arity) per index level (computed once, read every decode).
        self._rems: List[int] = [self.total_bits]
        for width in self._schedule:
            self._rems.append(self._rems[-1] - width)
        self._arities: List[Tuple[int, int]] = [(w, 1 << w) for w in self._schedule]
        # Decode packs (prefix, level) stack entries into one int; this many
        # low bits address the level.
        self._level_shift: int = max(1, len(self._schedule).bit_length())
        # None past width 3 keeps a pathological schedule from exploding
        # the table.
        self._quadrants: List[Optional[Tuple[Tuple[int, ...], ...]]] = [
            _quadrant_table(arity, self._level_shift) if arity <= 8 else None
            for _, arity in self._arities
        ]

    @classmethod
    def for_quantizer(cls, quantizer: Quantizer, alias_count: int = 2) -> "QuadtreeCodec":
        """The codec matching a quantizer's interleave schedule."""
        return cls(alias_count, zcurve.level_widths(quantizer.bits_per_dim))

    # -- point packing -------------------------------------------------------------

    def pack(self, point: FlaggedPoint) -> int:
        """(flags, z) -> full point bitstring as an int."""
        flags, z = point
        if flags < 0 or flags >> self.flag_bits:
            raise CodecError(f"flags {flags} do not fit in {self.flag_bits} bits")
        if self.flag_bits and flags == 0:
            raise CodecError("flags must name at least one relation")
        if z < 0 or z >> self.z_bits:
            raise CodecError(f"Z-number {z} does not fit in {self.z_bits} bits")
        return (flags << self.z_bits) | z

    def unpack(self, packed: int) -> FlaggedPoint:
        """Inverse of :meth:`pack`."""
        return (packed >> self.z_bits, packed & ((1 << self.z_bits) - 1))

    # -- encoding ---------------------------------------------------------------

    def encode(self, points: Iterable[FlaggedPoint]) -> Bits:
        """Encode a set of flagged points; the empty set encodes to 0 bits."""
        packed = sorted({self.pack(point) for point in points})
        if not packed:
            return Bits()
        length, value = self._best_encode(packed, 0, len(packed), 0, self.total_bits)
        return Bits(value, length)

    def _best_encode(
        self, points: Sequence[int], lo: int, hi: int, level: int, remaining: int
    ) -> Tuple[int, int]:
        """Cheapest encoding of ``points[lo:hi]`` as a ``(bits, value)`` pair.

        Same decomposition DP as :meth:`_encode_node`, but bottom-up: child
        encodings come back as ints and are spliced with shifts, so no per-bit
        writer calls happen and the cost comparison reuses the child lengths
        for free.
        """
        count = hi - lo
        list_length = count * (1 + remaining) + 1
        if count == 1:
            # A lone point always lists: subdividing costs
            # 1 + arity + child >= remaining + 4 > remaining + 2 since
            # arity = 2**width >= width + 1, so the strict `<` never fires.
            return list_length, ((1 << remaining) | (points[lo] & ((1 << remaining) - 1))) << 1
        if level < len(self._schedule):
            width = self._schedule[level]
            shift = remaining - width
            arity = 1 << width
            subdivide_length = 1 + arity
            mask = 0
            children: List[Tuple[int, int]] = []
            i = lo
            while i < hi:
                high = points[i] >> shift
                # Sorted input keeps each quadrant contiguous: everything in
                # this quadrant is < (high + 1) << shift.
                j = bisect_left(points, (high + 1) << shift, i, hi)
                child = self._best_encode(points, i, j, level + 1, shift)
                subdivide_length += child[0]
                mask |= 1 << (arity - 1 - (high & (arity - 1)))
                children.append(child)
                i = j
            if subdivide_length < list_length:
                value = mask  # the leading 0 marker adds length, not value
                for child_length, child_value in children:
                    value = (value << child_length) | child_value
                return subdivide_length, value
        if remaining:
            field = 1 + remaining
            marker = 1 << remaining
            suffix_mask = marker - 1
            if count > 16:
                chunks = [(marker | (points[k] & suffix_mask), field) for k in range(lo, hi)]
                chunks.append((0, 1))  # list terminator
                value, _ = _fold_chunks(chunks)
            else:
                value = 0
                for k in range(lo, hi):
                    value = (value << field) | marker | (points[k] & suffix_mask)
                value <<= 1
        else:
            value = ((1 << count) - 1) << 1
        return list_length, value

    def _best_cost(
        self, points: Sequence[int], lo: int, hi: int, level: int, remaining: int
    ) -> int:
        """Size-only twin of :meth:`_best_encode` (no value assembly)."""
        list_length = (hi - lo) * (1 + remaining) + 1
        if hi - lo == 1 or level >= len(self._schedule):
            # Singletons always list — see the proof in _best_encode.
            return list_length
        width = self._schedule[level]
        shift = remaining - width
        subdivide_length = 1 + (1 << width)
        i = lo
        while i < hi:
            j = bisect_left(points, ((points[i] >> shift) + 1) << shift, i, hi)
            subdivide_length += self._best_cost(points, i, j, level + 1, shift)
            i = j
        return subdivide_length if subdivide_length < list_length else list_length

    def encoded_size_bits(self, points: Iterable[FlaggedPoint]) -> int:
        """Size of :meth:`encode` without materialising the bitstring."""
        packed = sorted({self.pack(point) for point in points})
        if not packed:
            return 0
        return self._best_cost(packed, 0, len(packed), 0, self.total_bits)

    # -- decoding ---------------------------------------------------------------

    def decode(self, bits: Bits) -> FrozenSet[FlaggedPoint]:
        """Decode a bitstring back into the set of flagged points."""
        length = len(bits)
        if length == 0:
            return frozenset()
        # The stream is parsed as a '0101...' string: field reads become
        # `int(s[a:b], 2)` over just the field's characters.  Shifting the
        # whole stream integer per read (what the reference reader does)
        # costs O(stream bits) *per field*, which made decoding quadratic.
        stream = format(bits.value, f"0{length}b")
        rems = self._rems
        arities = self._arities
        quadrant_tables = self._quadrants
        max_level = len(self._schedule)
        position = 0
        points: List[int] = []
        # DFS via explicit stack; children pushed in reverse quadrant order so
        # reads happen in exactly the recursive (reference) order.  Entries
        # pack (prefix, level) into one int: cheaper to push/pop than tuples.
        level_shift = self._level_shift
        level_mask = (1 << level_shift) - 1
        stack: List[int] = [0]
        pop = stack.pop
        push = stack.append
        while stack:
            entry = pop()
            level = entry & level_mask
            prefix = entry >> level_shift
            if position >= length:
                raise CodecError(
                    f"bitstream underrun: wanted 1 bits at position "
                    f"{position}, only {length - position} remain"
                )
            marker = stream[position]
            position += 1
            if marker == "1":
                # Point list; the leading 1 of the first point is consumed.
                # Layout from here: suffix ('1' suffix)* '0' — continuation
                # markers sit at a fixed stride, so scan them first and bulk-
                # extract the suffixes; any scan that would run off the end
                # falls back to the bit-at-a-time loop, which raises the
                # exact reference error.
                remaining = rems[level]
                base = prefix << remaining
                stride = remaining + 1
                first_end = position + remaining
                cursor = first_end
                while cursor < length and stream[cursor] == "1":
                    cursor += stride
                if cursor < length:
                    if cursor == first_end:  # single point: the common case
                        points.append(
                            base | int(stream[position:cursor], 2) if remaining else base
                        )
                    elif remaining:
                        points.extend(
                            [
                                base | int(stream[start : start + remaining], 2)
                                for start in range(position, cursor, stride)
                            ]
                        )
                    else:
                        points.extend([base] * ((cursor - position) // stride + 1))
                    position = cursor + 1
                    continue
                # Ran off the end: replay carefully for the right message.
                while True:
                    end = position + remaining
                    if end > length:
                        raise CodecError(
                            f"bitstream underrun: wanted {remaining} bits at "
                            f"position {position}, only {length - position} remain"
                        )
                    points.append(base | int(stream[position:end], 2) if remaining else base)
                    if end >= length:
                        raise CodecError(
                            f"bitstream underrun: wanted 1 bits at position "
                            f"{end}, only {length - end} remain"
                        )
                    position = end + 1
                    if stream[end] == "0":
                        break
                continue
            # Index node.
            if level >= max_level:
                raise CodecError("index node below the maximum tree depth")
            width, arity = arities[level]
            end = position + arity
            if end > length:
                raise CodecError(
                    f"bitstream underrun: wanted {arity} bits at position "
                    f"{position}, only {length - position} remain"
                )
            mask = int(stream[position:end], 2)
            position = end
            if mask == 0:
                raise CodecError("index node with no present quadrants")
            child_entry = ((prefix << width) << level_shift) | (level + 1)
            table = quadrant_tables[level]
            if table is not None:
                for shifted_quadrant in table[mask]:
                    push(child_entry | shifted_quadrant)
            else:
                top = arity - 1
                for quadrant in range(top, -1, -1):
                    if (mask >> (top - quadrant)) & 1:
                        push(child_entry | (quadrant << level_shift))
        if position != length:
            raise CodecError(
                f"{length - position} trailing bits after decoding the quadtree"
            )
        z_bits = self.z_bits
        z_mask = (1 << z_bits) - 1
        return frozenset((point >> z_bits, point & z_mask) for point in points)

    # -- reference implementations (pre-optimization, kept for equivalence) ------

    def _reference_encode(self, points: Iterable[FlaggedPoint]) -> Bits:
        """The original recursive writer-based encoder (oracle/baseline)."""
        packed = sorted({self.pack(point) for point in points})
        if not packed:
            return Bits()
        writer = _ReferenceBitWriter()
        self._encode_node(writer, packed, level=0, remaining=self.total_bits)
        return writer.getvalue()

    def _encode_node(
        self, writer, points: Sequence[int], level: int, remaining: int
    ) -> None:
        list_cost = len(points) * (1 + remaining) + 1
        if level < len(self._schedule):
            width = self._schedule[level]
            groups = self._partition(points, remaining, width)
            subdivide_cost = 1 + (1 << width) + sum(
                self._node_cost(group, level + 1, remaining - width)
                for group in groups.values()
            )
            if subdivide_cost < list_cost:
                writer.write_bit(0)
                mask = 0
                for quadrant in groups:
                    mask |= 1 << ((1 << width) - 1 - quadrant)
                writer.write_uint(mask, 1 << width)
                for quadrant in sorted(groups):
                    self._encode_node(writer, groups[quadrant], level + 1, remaining - width)
                return
        for point in points:
            writer.write_bit(1)
            writer.write_uint(point & ((1 << remaining) - 1) if remaining else 0, remaining)
        writer.write_bit(0)

    def _partition(
        self, points: Sequence[int], remaining: int, width: int
    ) -> Dict[int, List[int]]:
        """Group points by their next ``width`` bits (already sorted input
        keeps the groups sorted)."""
        groups: Dict[int, List[int]] = {}
        shift = remaining - width
        for point in points:
            quadrant = (point >> shift) & ((1 << width) - 1)
            groups.setdefault(quadrant, []).append(point)
        return groups

    def _node_cost(self, points: Sequence[int], level: int, remaining: int) -> int:
        """Minimal encoded size of a node (the decomposition-threshold DP)."""
        list_cost = len(points) * (1 + remaining) + 1
        if level >= len(self._schedule):
            return list_cost
        width = self._schedule[level]
        groups = self._partition(points, remaining, width)
        subdivide_cost = 1 + (1 << width) + sum(
            self._node_cost(group, level + 1, remaining - width) for group in groups.values()
        )
        return min(list_cost, subdivide_cost)

    def _reference_encoded_size_bits(self, points: Iterable[FlaggedPoint]) -> int:
        """The original recursive size DP (oracle/baseline)."""
        packed = sorted({self.pack(point) for point in points})
        if not packed:
            return 0
        return self._node_cost(packed, 0, self.total_bits)

    def _reference_decode(self, bits: Bits) -> FrozenSet[FlaggedPoint]:
        """The original recursive reader-based decoder (oracle/baseline)."""
        if len(bits) == 0:
            return frozenset()
        reader = _ReferenceBitReader(bits)
        points: List[int] = []
        self._decode_node(reader, points, level=0, prefix=0, remaining=self.total_bits)
        if not reader.at_end():
            raise CodecError(
                f"{reader.remaining} trailing bits after decoding the quadtree"
            )
        return frozenset(self.unpack(point) for point in points)

    def _decode_node(
        self, reader: BitReader, out: List[int], level: int, prefix: int, remaining: int
    ) -> None:
        first = reader.read_bit()
        if first == 1:
            # Point list; the leading 1 of the first point is consumed.
            while True:
                suffix = reader.read_uint(remaining)
                out.append((prefix << remaining) | suffix)
                if reader.read_bit() == 0:
                    return
            # unreachable
        # Index node.
        if level >= len(self._schedule):
            raise CodecError("index node below the maximum tree depth")
        width = self._schedule[level]
        arity = 1 << width
        mask = reader.read_uint(arity)
        if mask == 0:
            raise CodecError("index node with no present quadrants")
        for quadrant in range(arity):
            if (mask >> (arity - 1 - quadrant)) & 1:
                self._decode_node(
                    reader, out, level + 1, (prefix << width) | quadrant, remaining - width
                )

    def __repr__(self) -> str:
        return (
            f"<QuadtreeCodec flags={self.flag_bits}b z={self.z_bits}b "
            f"levels={self._schedule}>"
        )
