"""E7 — Fig. 16: influence of the quadtree representation (4% fraction).

Paper: sending only join attributes cuts the collection step ~38% below the
external join; the quadtree representation roughly halves the remaining
pre-computation volume (some nodes cannot profit — their payload is already
a single packet).
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.sensjoin import SensJoin, SensJoinConfig

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "fig16",
        "collection: external > sens-no-quad > sens-join (quadtree ~halves bytes)",
    )


def test_join_attr_only_cheaper_than_external(series):
    rows = {row[0]: row for row in series.rows}
    assert rows["sens-no-quad"][1] <= rows["external-join"][1]


def test_quadtree_cheaper_than_raw(series):
    rows = {row[0]: row for row in series.rows}
    assert rows["sens-join"][1] <= rows["sens-no-quad"][1]


def test_quadtree_total_beats_raw_total(series):
    rows = {row[0]: row for row in series.rows}
    assert rows["sens-join"][2] <= rows["sens-no-quad"][2]


def test_fig16_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 3, 5, 0.04)
    benchmark(lambda: scenario.run(query, SensJoin(SensJoinConfig(representation="raw"))))
