"""E9 — §VI-A (last paragraph): influence of the maximum packet size.

Paper: with 124-byte packets the external join profits more in overall
packet count, but SENS-Join still relieves the nodes close to the root by
about an order of magnitude.
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "packet_size",
        "124B packets: external gains more overall, but near-root nodes stay "
        "~an order of magnitude better off under SENS-Join",
    )


def test_external_gains_more_from_large_packets(series):
    rows = {row[0]: dict(zip(series.columns, row)) for row in series.rows}
    ext_gain = rows[48]["external_tx"] / max(rows[124]["external_tx"], 1)
    sens_gain = rows[48]["sens_tx"] / max(rows[124]["sens_tx"], 1)
    assert ext_gain >= sens_gain


def test_max_node_reduction_survives_large_packets(series):
    rows = {row[0]: dict(zip(series.columns, row)) for row in series.rows}
    assert rows[124]["max_node_reduction_x"] >= 2.0


def test_packet_size_benchmark(benchmark, series):
    scenario = build_scenario(packet_bytes=124)
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, SensJoin()))
