"""Compact representation of join-attribute tuples (paper §V)."""

from .bits import BitReader, BitWriter, Bits
from .compression import COMPRESSORS, compressed_size, encode_raw_tuples, raw_size_bytes
from .quadtree import FlaggedPoint, QuadtreeCodec
from .quantize import UNBOUNDED_SENTINEL, QuantizedDimension, Quantizer
from .setops import intersect_points, union_points
from .zcurve import deinterleave, interleave, level_widths, total_bits

__all__ = [
    "BitReader",
    "BitWriter",
    "Bits",
    "COMPRESSORS",
    "FlaggedPoint",
    "QuadtreeCodec",
    "QuantizedDimension",
    "Quantizer",
    "UNBOUNDED_SENTINEL",
    "compressed_size",
    "deinterleave",
    "encode_raw_tuples",
    "interleave",
    "intersect_points",
    "level_widths",
    "raw_size_bytes",
    "total_bits",
    "union_points",
]
