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

Implementation note: :meth:`QuadtreeCodec.encode` and
:meth:`~QuadtreeCodec.decode` are the plain recursive writer and reader over
one :class:`~repro.codec.bits.BitWriter` / :class:`~repro.codec.bits.BitReader`;
no protocol path runs them.  The protocol prices every message with
:meth:`~QuadtreeCodec.encoded_size_bits`, which runs the same decomposition
DP int-native over sorted packed points (every quadrant a contiguous slice,
``bisect_left`` instead of dict partitioning) and never builds the
bitstring.  Its recursive twin
:meth:`~QuadtreeCodec._reference_encoded_size_bits` is pinned equal by
``tests/test_codec_equivalence.py``, and a golden digest in
``tests/test_codec_quadtree.py`` pins the bit layout.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from ..errors import CodecError
from .bits import BitReader, Bits, BitWriter
from .quantize import Quantizer
from . import zcurve

__all__ = ["FlaggedPoint", "QuadtreeCodec"]

#: A point in the tree: (relation flags, Z-number).
FlaggedPoint = Tuple[int, int]


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
        writer = BitWriter()
        self._encode_node(writer, packed, level=0, remaining=self.total_bits)
        return writer.getvalue()

    def _best_cost(
        self, points: Sequence[int], lo: int, hi: int, level: int, remaining: int
    ) -> int:
        """Size of :meth:`_encode_node`'s output for ``points[lo:hi]``, the
        same DP bottom-up over contiguous slices of sorted input."""
        list_length = (hi - lo) * (1 + remaining) + 1
        if hi - lo == 1 or level >= len(self._schedule):
            # A lone point always lists: subdividing costs
            # 1 + arity + child >= remaining + 4 > remaining + 2 since
            # arity = 2**width >= width + 1, so the strict `<` never fires.
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
        if len(bits) == 0:
            return frozenset()
        reader = BitReader(bits)
        points: List[int] = []
        self._decode_node(reader, points, level=0, prefix=0, remaining=self.total_bits)
        if not reader.at_end():
            raise CodecError(
                f"{reader.remaining} trailing bits after decoding the quadtree"
            )
        return frozenset(self.unpack(point) for point in points)

    # -- recursive writer and reader, and the reference size DP -----------------

    def _encode_node(
        self, writer: BitWriter, points: Sequence[int], level: int, remaining: int
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
