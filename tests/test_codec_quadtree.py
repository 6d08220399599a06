"""Pointerless quadtree codec tests (Fig. 9 wire format)."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import zcurve
from repro.codec.bits import Bits
from repro.codec.quadtree import QuadtreeCodec
from repro.errors import CodecError


@pytest.fixture()
def codec():
    # 2 relation-flag bits, 3 x 2-bit Z levels (6-bit Z space).
    return QuadtreeCodec(2, [2, 2, 2])


def points_strategy(codec):
    flags = st.integers(min_value=1, max_value=(1 << codec.flag_bits) - 1)
    zs = st.integers(min_value=0, max_value=(1 << codec.z_bits) - 1)
    return st.frozensets(st.tuples(flags, zs), max_size=40)


def _seeded_points(rng, codec, count):
    max_flags = (1 << codec.flag_bits) - 1 if codec.flag_bits else 0
    return {
        (
            rng.randint(1, max_flags) if codec.flag_bits else 0,
            rng.getrandbits(codec.z_bits),
        )
        for _ in range(count)
    }


class TestRoundtrip:
    def test_empty_set(self, codec):
        assert codec.encode([]) == Bits()
        assert codec.decode(Bits()) == frozenset()

    def test_single_point(self, codec):
        points = {(0b10, 0b110011)}
        assert codec.decode(codec.encode(points)) == frozenset(points)

    def test_duplicate_points_collapse(self, codec):
        encoded = codec.encode([(3, 5), (3, 5), (3, 5)])
        assert codec.decode(encoded) == frozenset({(3, 5)})

    @settings(deadline=None)
    @given(st.data())
    def test_roundtrip_random(self, data):
        codec = QuadtreeCodec(2, [2, 2, 2])
        points = data.draw(points_strategy(codec))
        assert codec.decode(codec.encode(points)) == points

    @settings(deadline=None)
    @given(st.data())
    def test_encoding_is_canonical(self, data):
        """Same set, any insertion order -> identical bitstring."""
        codec = QuadtreeCodec(2, [3, 3])
        points = list(data.draw(points_strategy(codec)))
        forward = codec.encode(points)
        backward = codec.encode(list(reversed(points)))
        assert forward == backward

    # Codec shapes for the seeded sweep: uneven level widths, no flag bits,
    # single level, many narrow levels.  Replaces earlier hard-coded point
    # lists with generator-driven coverage of the same shapes.
    SWEEP_SHAPES = [
        (2, [3, 2, 1]),
        (0, [2, 2]),
        (0, [1, 1, 1]),
        (1, [4]),
        (2, [2] * 6),
        (3, [1] * 8),
    ]

    @pytest.mark.parametrize("flag_bits,widths", SWEEP_SHAPES)
    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_sweep_roundtrip(self, flag_bits, widths, seed):
        from repro.verify.generators import random_flagged_points

        codec = QuadtreeCodec(flag_bits, widths)
        rng = random.Random(seed)
        points = random_flagged_points(rng, codec, max_points=40)
        assert codec.decode(codec.encode(points)) == frozenset(points)
        assert codec.encoded_size_bits(points) == len(codec.encode(points))


class TestCompactness:
    def test_single_point_costs_two_bits_plus_payload(self, codec):
        # '1' + full point + '0' terminator.
        encoded = codec.encode({(1, 0)})
        assert len(encoded) == 1 + codec.total_bits + 1

    def test_encoded_size_matches_encode(self, codec):
        points = {(3, 0b000000), (3, 0b000001), (3, 0b000010), (1, 0b111111)}
        assert codec.encoded_size_bits(points) == len(codec.encode(points))

    def test_clustered_points_beat_raw_listing(self):
        """Spatially clustered Z-numbers share prefixes -> big savings."""
        codec = QuadtreeCodec(2, [2] * 8)  # 16-bit Z space
        cluster = {(3, 0b1010101010100000 | i) for i in range(16)}
        encoded_bits = len(codec.encode(cluster))
        raw_bits = len(cluster) * (codec.total_bits + 1) + 1
        assert encoded_bits < raw_bits * 0.6

    def test_scattered_points_never_worse_than_listing(self):
        codec = QuadtreeCodec(2, [2] * 8)
        scattered = {(3, (i * 2654435761) % (1 << 16)) for i in range(30)}
        encoded_bits = len(codec.encode(scattered))
        raw_bits = len(scattered) * (codec.total_bits + 1) + 1
        assert encoded_bits <= raw_bits

    def test_subdivision_reduces_per_point_cost(self):
        """Deep shared prefixes make the relative encoding shorter."""
        codec = QuadtreeCodec(2, [2] * 10)  # 20-bit Z space
        base = 0b10110011001100110000
        dense = {(3, base | i) for i in range(16)}
        sparse_cost = 16 * (1 + codec.total_bits) + 1
        assert len(codec.encode(dense)) < sparse_cost / 2


class TestValidation:
    def test_flags_must_name_a_relation(self, codec):
        with pytest.raises(CodecError):
            codec.encode([(0, 5)])

    def test_flags_overflow(self, codec):
        with pytest.raises(CodecError):
            codec.encode([(4, 5)])

    def test_z_overflow(self, codec):
        with pytest.raises(CodecError):
            codec.encode([(1, 1 << codec.z_bits)])

    def test_trailing_garbage_detected(self, codec):
        encoded = codec.encode({(1, 0)})
        padded = Bits(encoded.value << 3, len(encoded) + 3)
        with pytest.raises(CodecError, match="trailing"):
            codec.decode(padded)

    def test_bad_level_widths(self):
        with pytest.raises(CodecError):
            QuadtreeCodec(2, [2, 0])
        with pytest.raises(CodecError):
            QuadtreeCodec(-1, [2])
        with pytest.raises(CodecError):
            QuadtreeCodec(0, [])

    def test_pack_unpack(self, codec):
        packed = codec.pack((2, 0b101))
        assert codec.unpack(packed) == (2, 0b101)

    @pytest.mark.parametrize("mutation", ["truncate", "extend", "bitflip"])
    def test_corrupt_streams_decode_or_raise(self, mutation):
        """Every truncation, extension and bit flip of a valid stream either
        decodes or raises :class:`CodecError`, never another exception."""
        codec = QuadtreeCodec(2, zcurve.level_widths([5, 5]))
        rng = random.Random(77)
        encoded = codec.encode(_seeded_points(rng, codec, 25))
        length, value = len(encoded), encoded.value
        if mutation == "truncate":
            corrupt = [Bits(value >> (length - cut), cut) for cut in range(length)]
        elif mutation == "extend":
            corrupt = [
                Bits((value << extra) | tail, length + extra)
                for extra in range(1, 9)
                for tail in {0, (1 << extra) - 1, rng.getrandbits(extra)}
            ]
        else:
            corrupt = [Bits(value ^ (1 << position), length) for position in range(length)]
        for bits in corrupt:
            try:
                codec.decode(bits)
            except CodecError:
                pass


class TestOptimality:
    """The decomposition-threshold DP must find the minimal encoding."""

    @staticmethod
    def _brute_minimum(codec, packed, level, remaining):
        """Independent exhaustive minimiser over subdivide/list decisions.

        Deliberately written differently from the production DP (explicit
        recursion over sorted groups, list cost computed from first
        principles) so a shared bug cannot hide.
        """
        cost_as_list = len(packed) * (1 + remaining) + 1
        if level >= len(codec._schedule):
            return cost_as_list
        width = codec._schedule[level]
        groups = {}
        for point in packed:
            key = (point >> (remaining - width)) & ((1 << width) - 1)
            groups.setdefault(key, []).append(point)
        cost_subdivided = 1 + (1 << width)
        for group in groups.values():
            cost_subdivided += TestOptimality._brute_minimum(
                codec, group, level + 1, remaining - width
            )
        return min(cost_as_list, cost_subdivided)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_encoding_size_is_minimal(self, data):
        codec = QuadtreeCodec(2, [2, 2, 2])
        points = data.draw(points_strategy(codec))
        if not points:
            return
        packed = sorted(codec.pack(p) for p in points)
        optimal = self._brute_minimum(codec, packed, 0, codec.total_bits)
        assert len(codec.encode(points)) == optimal

    def test_paper_fig8_style_example(self):
        """Fig. 8's scenario: five clustered 2-D points; the tree isolates
        their common region and lists the remainders relative to it."""
        codec = QuadtreeCodec(0, [2, 2, 2, 2])  # 8-bit Z space, 2 dims
        # Five points sharing the same top quadrant.
        base = 0b01_00_00_00
        points = {(0, base | offset) for offset in (0b000000, 0b000001, 0b000100,
                                                    0b010000, 0b010101)}
        encoded = codec.encode(points)
        flat_cost = 5 * (1 + 8) + 1
        assert len(encoded) < flat_cost
        assert codec.decode(encoded) == frozenset(points)


class TestFullPipeline:
    """Raw values -> quantize -> Z-curve -> quadtree wire format -> decode.

    The whole encoding stack the protocol runs per tuple, driven by the
    differential harness's seeded generators: the decoded cell must contain
    the raw value on every dimension, and the wire round trip must be exact.
    """

    @pytest.mark.parametrize("attrs", [["temp"], ["temp", "hum"], ["temp", "hum", "x"]])
    @pytest.mark.parametrize("seed", range(4))
    def test_quantize_zcurve_quadtree_roundtrip(self, attrs, seed):
        from repro.codec.quantize import Quantizer
        from repro.data.sensors import standard_catalog
        from repro.verify.generators import random_values

        quantizer = Quantizer.for_attributes(standard_catalog(), attrs)
        codec = QuadtreeCodec.for_quantizer(quantizer, alias_count=2)
        rng = random.Random(seed)
        points = set()
        for _ in range(30):
            values = random_values(rng, quantizer)
            z = quantizer.encode(values)
            bounds = quantizer.cell_bounds([z])
            for name, value in values.items():
                lo, hi = bounds[name]
                assert lo[0] <= value <= hi[0]
            cells = quantizer.decode_cells(z)
            for dim in quantizer.dimensions:
                assert cells[dim.name] == dim.cell_of(values[dim.name])
            points.add((rng.randrange(1, 4), z))
        assert codec.decode(codec.encode(points)) == frozenset(points)


#: Codec shapes and set sizes of the golden digest: 0-3 flag bits, up to 26
#: Z bits, up to 1000 points.
GOLDEN_SHAPES = [
    (2, [10, 10]),
    (2, [4, 9]),
    (0, [5, 5]),
    (1, [6]),
    (3, [2, 2, 2]),
    (2, [1, 1]),
    (0, [8]),
    (2, [13, 13]),
]
GOLDEN_COUNTS = [0, 1, 2, 7, 40, 200, 1000]

#: sha256 of the grid's encodings; an int-native encoder that the codec
#: once carried beside the recursive one wrote the same bits.
GOLDEN_DIGEST = "424957e7fea16cf7552f850f802193747c67a2e51b3a6909080fc3146ec50712"


def test_golden_encodings():
    """The bit layout is pinned: sizes alone cannot see two fields swapped."""
    digest = hashlib.sha256()
    for flag_bits, bpd in GOLDEN_SHAPES:
        codec = QuadtreeCodec(flag_bits, zcurve.level_widths(bpd))
        for count in GOLDEN_COUNTS:
            rng = random.Random(count * 31 + sum(bpd))
            encoded = codec.encode(_seeded_points(rng, codec, count))
            digest.update(f"{len(encoded)}:{encoded.value:x};".encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
