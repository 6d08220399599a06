"""Quantization of join-attribute tuples (Fig. 7).

"The key idea towards representing single join-attribute tuples is to
perform a quantization of the range of each sensor type" (§V-B).  Each
dimension gets a bounded, discrete domain::

    SizeOfDim[i]  = floor((MaxVal[i] - MinVal[i]) / Resolution[i]) + 1
    SizeOfDim[i]  = roundUpToPowOf2(SizeOfDim[i])
    BitPerDim[i]  = log2(SizeOfDim[i])

and a value maps to cell ``floor((v - MinVal) / Resolution)``, clamped to
``[0, SizeOfDim - 1]`` — out-of-range readings land in the boundary cells
(Fig. 7 lines 12-15).

Conservativeness at the boundary: the paper argues clamping can only cause
false *positives*.  That is true only if the pre-computation join treats the
boundary cells as unbounded; otherwise a clamped value could be pruned away
and the final result would silently lose a row.
:meth:`QuantizedDimension.bounds_of`, the one definition of a cell's
interval, therefore widens cell 0 downwards and the last cell upwards (to a
large finite sentinel), which preserves the paper's exactness claim for
arbitrary data.  :meth:`Quantizer.cell_bounds` applies it to many Z-numbers
at once, giving per-attribute ``(lo, hi)`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..data.sensors import SensorCatalog, SensorSpec
from ..errors import CodecError
from . import zcurve

__all__ = ["Quantizer", "QuantizedDimension", "UNBOUNDED_SENTINEL"]

#: Large finite stand-in for +-infinity in boundary-cell bounds, large enough
#: to dominate any realistic sensor value or coordinate.
UNBOUNDED_SENTINEL = 1e30


@dataclass(frozen=True)
class QuantizedDimension:
    """Derived quantization parameters of one dimension (Fig. 7 lines 1-5)."""

    name: str
    min_value: float
    resolution: float
    size: int  # number of cells, a power of two
    bits: int  # log2(size)

    @staticmethod
    def from_spec(spec: SensorSpec) -> "QuantizedDimension":
        """Compute size/bits from a sensor's range and resolution."""
        raw_size = math.floor(spec.span / spec.resolution) + 1
        size = 1
        while size < raw_size:
            size *= 2
        return QuantizedDimension(
            name=spec.name,
            min_value=spec.min_value,
            resolution=spec.resolution,
            size=size,
            bits=size.bit_length() - 1,
        )

    def cell_of(self, value: float) -> int:
        """Map a raw value to its (clamped) cell index (Fig. 7 lines 10-15)."""
        cell = math.floor((value - self.min_value) / self.resolution)
        if cell < 0:
            return 0
        if cell >= self.size:
            return self.size - 1
        return cell

    def bounds_of(self, cell: int | np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Raw-value interval covered by ``cell`` (an index or an array of
        them; floats for an index), boundary cells widened."""
        cells = np.asarray(cell)
        if np.any((cells < 0) | (cells >= self.size)):
            raise CodecError(f"cell {cell} out of range for dimension {self.name!r}")
        lo = self.min_value + cells * self.resolution
        hi = lo + self.resolution
        lo = np.where(cells == 0, -UNBOUNDED_SENTINEL, lo)
        hi = np.where(cells == self.size - 1, UNBOUNDED_SENTINEL, hi)
        return lo[()], hi[()]


class Quantizer:
    """Quantizes join-attribute tuples into Z-numbers and back.

    Construction fixes the dimension order (= the order used for bit
    interleaving), which must be identical network-wide — in the modelled
    system the ranges and resolutions "are specific to the environment of
    the WSN ... fixed while setting up the network" (§V-B) and the dimension
    order is the sorted attribute order of the query's join attributes.
    """

    def __init__(self, dimensions: Sequence[QuantizedDimension]):
        if not dimensions:
            raise CodecError("quantizer needs at least one dimension")
        names = [dimension.name for dimension in dimensions]
        if len(set(names)) != len(names):
            raise CodecError(f"duplicate dimension names: {names}")
        self.dimensions: Tuple[QuantizedDimension, ...] = tuple(dimensions)
        self.bits_per_dim: List[int] = [dimension.bits for dimension in dimensions]

    @classmethod
    def for_attributes(cls, catalog: SensorCatalog, attributes: Sequence[str]) -> "Quantizer":
        """Build from catalogue specs for the given attributes (sorted order)."""
        ordered = sorted(attributes)
        return cls([QuantizedDimension.from_spec(catalog[name]) for name in ordered])

    @property
    def attribute_names(self) -> List[str]:
        """Dimension names in interleave order."""
        return [dimension.name for dimension in self.dimensions]

    @property
    def total_bits(self) -> int:
        """Bits of one encoded Z-number."""
        return sum(self.bits_per_dim)

    # -- encoding ---------------------------------------------------------------

    def encode(self, values: Mapping[str, float]) -> int:
        """Raw join-attribute tuple -> Z-number (Fig. 7 EncodeTuple)."""
        coordinates = []
        for dimension in self.dimensions:
            try:
                value = values[dimension.name]
            except KeyError:
                raise CodecError(
                    f"missing attribute {dimension.name!r} in tuple {dict(values)!r}"
                ) from None
            coordinates.append(dimension.cell_of(value))
        return zcurve.interleave(coordinates, self.bits_per_dim)

    def decode_cells(self, z: int) -> Dict[str, int]:
        """Z-number -> per-dimension cell indices."""
        coordinates = zcurve.deinterleave(z, self.bits_per_dim)
        return {
            dimension.name: coordinate
            for dimension, coordinate in zip(self.dimensions, coordinates)
        }

    def cell_bounds(self, zs: Sequence[int]) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Z-numbers -> per attribute, the ``(lo, hi)`` arrays of their cells."""
        cells = np.array(
            [zcurve.deinterleave(z, self.bits_per_dim) for z in zs], dtype=np.int64
        ).reshape(len(zs), len(self.dimensions))
        return {
            dimension.name: dimension.bounds_of(cells[:, index])
            for index, dimension in enumerate(self.dimensions)
        }

    def representative(self, z: int) -> Dict[str, float]:
        """Z-number -> the centre point of the cell (for visualisation)."""
        cells = self.decode_cells(z)
        return {
            dimension.name: dimension.min_value
            + (cells[dimension.name] + 0.5) * dimension.resolution
            for dimension in self.dimensions
        }

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{dimension.name}:{dimension.bits}b" for dimension in self.dimensions
        )
        return f"<Quantizer {parts} ({self.total_bits} bits)>"
