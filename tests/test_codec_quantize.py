"""Quantizer tests (Fig. 7 semantics)."""

import numpy as np
import pytest

from repro.codec.quantize import UNBOUNDED_SENTINEL, QuantizedDimension, Quantizer
from repro.data.sensors import SensorSpec, standard_catalog
from repro.errors import CodecError


def dim(name="t", lo=0.0, hi=10.0, res=1.0):
    return QuantizedDimension.from_spec(SensorSpec(name, "u", lo, hi, res))


class TestDimension:
    def test_size_rounds_up_to_power_of_two(self):
        # span 10, resolution 1 -> 11 raw cells -> 16.
        d = dim()
        assert d.size == 16 and d.bits == 4

    def test_paper_example_range_insensitivity(self):
        """§V-B: ranges of 600 and 900 values both need 10 bits."""
        d600 = dim(lo=0.0, hi=599.0, res=1.0)
        d900 = dim(lo=0.0, hi=899.0, res=1.0)
        assert d600.bits == d900.bits == 10

    def test_cell_of_basic(self):
        d = dim()
        assert d.cell_of(0.0) == 0
        assert d.cell_of(0.99) == 0
        assert d.cell_of(1.0) == 1
        assert d.cell_of(9.5) == 9

    def test_cell_of_clamps_out_of_range(self):
        d = dim()
        assert d.cell_of(-100.0) == 0
        assert d.cell_of(1e9) == d.size - 1

    def test_bounds_of_interior_cell(self):
        d = dim()
        lo, hi = d.bounds_of(3)
        assert lo == 3.0 and hi == 4.0

    def test_bounds_of_boundary_cells_widened(self):
        d = dim()
        lo0, hi0 = d.bounds_of(0)
        assert lo0 == -UNBOUNDED_SENTINEL and hi0 == 1.0
        lo_top, hi_top = d.bounds_of(d.size - 1)
        assert hi_top == UNBOUNDED_SENTINEL

    def test_bounds_of_invalid_cell(self):
        with pytest.raises(CodecError):
            dim().bounds_of(16)
        with pytest.raises(CodecError):
            dim().bounds_of(np.array([3, -1]))

    def test_bounds_of_cell_array_is_float_exact(self):
        """Each cell's bounds are the scalar float operations, bit for bit."""
        d = dim(lo=-10.0, hi=54.0, res=0.1)
        expected = []
        for cell in range(d.size):
            lo = d.min_value + cell * d.resolution
            hi = lo + d.resolution
            expected.append(
                (
                    -UNBOUNDED_SENTINEL if cell == 0 else lo,
                    UNBOUNDED_SENTINEL if cell == d.size - 1 else hi,
                )
            )
        lo, hi = d.bounds_of(np.arange(d.size))
        assert list(zip(lo.tolist(), hi.tolist())) == expected
        assert d.bounds_of(7) == expected[7]


class TestQuantizer:
    @pytest.fixture()
    def quantizer(self):
        return Quantizer.for_attributes(standard_catalog(1050.0), ["temp", "x", "y"])

    def test_dimension_order_is_sorted(self, quantizer):
        assert quantizer.attribute_names == ["temp", "x", "y"]

    def test_encode_decode_cells(self, quantizer):
        values = {"temp": 23.4, "x": 512.0, "y": 17.0}
        z = quantizer.encode(values)
        cells = quantizer.decode_cells(z)
        assert cells["temp"] == int((23.4 + 10.0) / 0.1)
        assert cells["x"] == 512 and cells["y"] == 17

    def test_cell_bounds_contain_value(self, quantizer):
        values = {"temp": 23.44, "x": 512.3, "y": 17.9}
        bounds = quantizer.cell_bounds([quantizer.encode(values)])
        for name, value in values.items():
            lo, hi = bounds[name]
            assert lo[0] <= value <= hi[0]

    def test_cell_bounds_are_bounds_of_each_cell(self, quantizer):
        """The array decode is the per-cell definition, boundaries included."""
        zs = [
            quantizer.encode(values)
            for values in (
                {"temp": -50.0, "x": 0.0, "y": 1e9},
                {"temp": 23.44, "x": 512.3, "y": 17.9},
                {"temp": 1e9, "x": -3.0, "y": 0.4},
            )
        ]
        bounds = quantizer.cell_bounds(zs)
        for index, z in enumerate(zs):
            cells = quantizer.decode_cells(z)
            for dimension in quantizer.dimensions:
                lo, hi = bounds[dimension.name]
                assert (lo[index], hi[index]) == dimension.bounds_of(cells[dimension.name])
        assert bounds["temp"][0][0] == -UNBOUNDED_SENTINEL
        assert bounds["y"][1][0] == UNBOUNDED_SENTINEL

    def test_cell_bounds_of_no_cells(self, quantizer):
        bounds = quantizer.cell_bounds([])
        assert list(bounds) == ["temp", "x", "y"]
        assert all(lo.shape == hi.shape == (0,) for lo, hi in bounds.values())

    def test_representative_within_cell(self, quantizer):
        values = {"temp": 23.44, "x": 512.3, "y": 17.9}
        z = quantizer.encode(values)
        representative = quantizer.representative(z)
        assert quantizer.encode(representative) == z

    def test_quantization_is_idempotent_on_representatives(self, quantizer):
        values = {"temp": 30.0, "x": 100.0, "y": 200.0}
        z = quantizer.encode(values)
        rep = quantizer.representative(z)
        assert quantizer.encode(rep) == z

    def test_nearby_values_share_cells(self, quantizer):
        a = quantizer.encode({"temp": 23.41, "x": 10.2, "y": 10.2})
        b = quantizer.encode({"temp": 23.44, "x": 10.7, "y": 10.9})
        assert a == b

    def test_missing_attribute_raises(self, quantizer):
        with pytest.raises(CodecError, match="missing attribute"):
            quantizer.encode({"temp": 20.0})

    def test_total_bits(self, quantizer):
        assert quantizer.total_bits == sum(quantizer.bits_per_dim)
        # temp: 64/0.1=641 -> 1024 cells = 10 bits; x/y: 1051 -> 2048 = 11.
        assert quantizer.bits_per_dim == [10, 11, 11]

    def test_duplicate_dimensions_rejected(self):
        d = dim()
        with pytest.raises(CodecError):
            Quantizer([d, d])

    def test_empty_quantizer_rejected(self):
        with pytest.raises(CodecError):
            Quantizer([])

    def test_resolution_controls_bits(self):
        coarse = QuantizedDimension.from_spec(SensorSpec("t", "u", 0.0, 100.0, 10.0))
        fine = QuantizedDimension.from_spec(SensorSpec("t", "u", 0.0, 100.0, 0.1))
        assert coarse.bits < fine.bits
