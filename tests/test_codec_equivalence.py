"""Optimized codec kernels vs their pinned ``_reference_*`` twins.

Every hot path rewritten for the perf suite keeps its original
implementation in the same module; these sweeps pin the pair equivalent —
identical outputs on valid inputs and identical error messages on invalid
ones — across parameterized shape grids, hypothesis-driven random inputs,
and the degenerate shapes the rewrites special-case (empty sets,
single-dimension interleaves, maximum-depth quadtrees).  The quadtree's
twin is its size DP: every size must also equal the length of
:meth:`~repro.codec.quadtree.QuadtreeCodec.encode`'s bitstring, which must
decode back to the set.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import zcurve
from repro.codec.bits import Bits
from repro.codec.quadtree import QuadtreeCodec
from repro.errors import CodecError


# ---------------------------------------------------------------------------
# Z-curve interleave / deinterleave
# ---------------------------------------------------------------------------


SHAPES = [
    [1],                 # single dimension, single bit
    [7],                 # single dimension (pass-through path)
    [1, 1],
    [10, 10],
    [4, 9],              # unequal widths
    [13, 2, 5],
    [3, 0, 3],           # zero-width dimension mixed in
    [2] * 8,             # many narrow dimensions
]


class TestZcurveEquivalence:
    @pytest.mark.parametrize("bits_per_dim", SHAPES, ids=str)
    def test_round_trip_matches_reference_exhaustively_or_sampled(self, bits_per_dim):
        total = sum(bits_per_dim)
        rng = random.Random(total * 1001)
        if total <= 12:
            zs = range(1 << total)
        else:
            zs = [rng.getrandbits(total) for _ in range(500)]
        for z in zs:
            coords = zcurve.deinterleave(z, bits_per_dim)
            assert coords == zcurve._reference_deinterleave(z, bits_per_dim)
            assert zcurve.interleave(coords, bits_per_dim) == z
            assert zcurve._reference_interleave(coords, bits_per_dim) == z

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_shapes_match_reference(self, data):
        ndim = data.draw(st.integers(1, 4))
        bits_per_dim = data.draw(
            st.lists(st.integers(0, 14), min_size=ndim, max_size=ndim).filter(
                lambda widths: sum(widths) > 0
            )
        )
        coords = [data.draw(st.integers(0, (1 << w) - 1)) for w in bits_per_dim]
        z = zcurve.interleave(coords, bits_per_dim)
        assert z == zcurve._reference_interleave(coords, bits_per_dim)
        assert zcurve.deinterleave(z, bits_per_dim) == coords

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: f([1, 2], [3]),            # arity mismatch
            lambda f: f([8], [3]),               # coordinate too wide
            lambda f: f([-1], [3]),              # negative coordinate
        ],
    )
    def test_error_messages_match_reference(self, call):
        with pytest.raises(CodecError) as optimized:
            call(zcurve.interleave)
        with pytest.raises(CodecError) as reference:
            call(zcurve._reference_interleave)
        assert str(optimized.value) == str(reference.value)

    def test_deinterleave_error_matches_reference(self):
        for bad in (-1, 1 << 6):
            with pytest.raises(CodecError) as optimized:
                zcurve.deinterleave(bad, [3, 3])
            with pytest.raises(CodecError) as reference:
                zcurve._reference_deinterleave(bad, [3, 3])
            assert str(optimized.value) == str(reference.value)


# ---------------------------------------------------------------------------
# Quadtree size
# ---------------------------------------------------------------------------


def _random_points(rng, codec, count):
    max_flags = (1 << codec.flag_bits) - 1 if codec.flag_bits else 0
    return {
        (
            rng.randint(1, max_flags) if codec.flag_bits else 0,
            rng.getrandbits(codec.z_bits),
        )
        for _ in range(count)
    }


CODEC_SHAPES = [
    (2, [10, 10]),   # the paper's two-alias standard shape
    (2, [4, 9]),     # unequal dims
    (0, [5, 5]),     # no flag level
    (1, [6]),        # single dimension
    (3, [2, 2, 2]),  # three aliases, three dims
    (2, [1, 1]),     # maximum-depth tree: every level one bit wide
    (0, [8]),        # single dim, no flags: 8 levels of width 1
]


class TestQuadtreeEquivalence:
    @pytest.mark.parametrize("flag_bits,bpd", CODEC_SHAPES, ids=str)
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 40, 200])
    def test_encode_size_decode_match_reference(self, flag_bits, bpd, count):
        codec = QuadtreeCodec(flag_bits, zcurve.level_widths(bpd))
        rng = random.Random(count * 31 + sum(bpd))
        points = _random_points(rng, codec, count)
        encoded = codec.encode(points)
        assert (
            codec.encoded_size_bits(points)
            == codec._reference_encoded_size_bits(points)
            == len(encoded)
        )
        assert codec.decode(encoded) == frozenset(points)

    def test_zero_length_bits_decode_to_empty_set(self):
        codec = QuadtreeCodec(2, zcurve.level_widths([10, 10]))
        assert codec.encode([]) == Bits()
        assert codec.encoded_size_bits([]) == codec._reference_encoded_size_bits([]) == 0
        assert codec.decode(Bits()) == frozenset()

    def test_full_domain_max_depth_tree(self):
        # Every point of a tiny domain present: decomposition reaches the
        # maximum level everywhere subdivision pays off.
        codec = QuadtreeCodec(0, zcurve.level_widths([2, 2]))
        points = {(0, z) for z in range(1 << 4)}
        encoded = codec.encode(points)
        assert (
            codec.encoded_size_bits(points)
            == codec._reference_encoded_size_bits(points)
            == len(encoded)
        )
        assert codec.decode(encoded) == frozenset(points)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_codecs_match_reference(self, data):
        flag_bits = data.draw(st.integers(0, 3))
        ndim = data.draw(st.integers(1, 3))
        bpd = data.draw(st.lists(st.integers(1, 6), min_size=ndim, max_size=ndim))
        codec = QuadtreeCodec(flag_bits, zcurve.level_widths(bpd))
        seed = data.draw(st.integers(0, 2**16))
        rng = random.Random(seed)
        points = _random_points(rng, codec, data.draw(st.integers(0, 60)))
        encoded = codec.encode(points)
        assert (
            codec.encoded_size_bits(points)
            == codec._reference_encoded_size_bits(points)
            == len(encoded)
        )
        assert codec.decode(encoded) == frozenset(points)
