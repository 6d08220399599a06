"""E8 — §VI-B text table: general-purpose compression vs the quadtree.

Paper (1500 nodes, three join attributes — temperature and coordinates):
no compression 5619 packets, bzip2 5666 (inflates), zlib 4571, quadtree 2762
(about half).  The reproduction checks the ordering and the ~2x quadtree
factor on the byte volume.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.codec.compression import compressed_size, encode_raw_tuples

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "compression_table",
        "paper packets: none 5619, bzip2 5666, zlib 4571, quadtree 2762 "
        "(ordering: quadtree < zlib <= none <= bzip2)",
    )


def test_quadtree_is_best(series):
    by_repr = dict(zip(series.column("representation"), series.column("collection_bytes")))
    assert by_repr["quadtree"] == min(by_repr.values())


def test_quadtree_roughly_halves_bytes(series):
    by_repr = dict(zip(series.column("representation"), series.column("collection_bytes")))
    ratio = by_repr["quadtree"] / by_repr["none"]
    assert 0.25 <= ratio <= 0.7


def test_bzip2_no_better_than_raw(series):
    by_repr = dict(zip(series.column("representation"), series.column("collection_bytes")))
    assert by_repr["bzip2"] >= by_repr["none"] * 0.9


def test_packets_follow_bytes(series):
    by_repr = dict(zip(series.column("representation"), series.column("collection_tx")))
    assert by_repr["quadtree"] <= by_repr["none"]


def test_compression_benchmark(benchmark, series):
    """Time zlib over a 1500-tuple stream (the paper's full-scale volume)."""
    tuples = [
        {"temp": 20.0 + 0.1 * (i % 40), "x": float(i % 300), "y": float(i % 211)}
        for i in range(1500)
    ]
    raw = encode_raw_tuples(tuples, ["temp", "x", "y"])
    benchmark(lambda: compressed_size(raw, "zlib"))
