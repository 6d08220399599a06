"""A5 — robustness of the savings to the base-station placement.

The paper does not pin the access point's position.  The comparison must
hold wherever the base station sits; the tree depth it induces modulates the
magnitude (deeper trees -> more interior forwarding -> larger savings).
"""

import pytest

from repro.bench.workloads import build_scenario, calibrated_query
from repro.joins.external import ExternalJoin

from conftest import run_series


@pytest.fixture(scope="module")
def series():
    return run_series(
        "bs_position", "SENS-Join wins for every placement; depth modulates magnitude"
    )


def test_sens_wins_everywhere(series):
    for row in series.as_dicts():
        assert row["savings_pct"] > 0, row


def test_depth_modulates_savings(series):
    rows = sorted(series.as_dicts(), key=lambda r: r["tree_height"])
    assert rows[0]["savings_pct"] < rows[-1]["savings_pct"]


def test_corner_is_deepest(series):
    rows = {row["placement"]: row["tree_height"] for row in series.as_dicts()}
    assert rows["corner"] >= rows["edge-centre"] >= rows["area-centre"]


def test_bs_position_benchmark(benchmark, series):
    scenario = build_scenario()
    query = calibrated_query(scenario, 1, 3, 0.05)
    benchmark(lambda: scenario.run(query, ExternalJoin()))
